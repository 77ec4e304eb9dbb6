#include "sim/runner.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <mutex>
#include <sstream>
#include <thread>

#include "gbdt/binning.h"
#include "gbdt/model_io.h"
#include "serve/client.h"
#include "serve/model_slot.h"
#include "serve/server.h"
#include "stream/retrainer.h"
#include "util/simd.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "workloads/synth.h"

namespace booster::sim {

namespace {

void set_error(std::string* error, const std::string& message) {
  if (error != nullptr && error->empty()) *error = message;
}

/// One full streaming pipeline run (bootstrap -> freeze -> chunked ingest
/// -> cadenced warm-start refresh through an in-process ModelSlot), fully
/// deterministic given (dataset, st, seed, trainer knobs): chunk i is
/// synthesized with seed + kChunkSeedStride * (i + 1), drift applied per
/// schedule. Returns each refreshed generation's serialized bytes so
/// callers can assert bit-identity across (threads, shards) reruns.
struct StreamRun {
  std::vector<std::string> generations;  // save_model bytes per refresh
  std::uint64_t rows = 0;                // streamed rows (bootstrap excl.)
  double wall_seconds = 0.0;
  std::vector<double> staleness_ms;  // per refresh: newest-row age at install
  std::uint64_t handoff_failures = 0;
  std::uint64_t final_trees = 0;
  std::uint64_t slot_version = 0;  // installs observed by the slot
};

constexpr std::uint64_t kChunkSeedStride = 1000003;

workloads::DatasetSpec drifted_spec(const workloads::DatasetSpec& dataset,
                                    const StreamingSpec& st,
                                    std::uint32_t chunk_index) {
  workloads::DatasetSpec out = dataset;
  if (st.drift == "noise-ramp") {
    // Label noise ramps to 2x over the stream: the label relation the
    // bootstrap generation learned keeps degrading, so refreshes have real
    // drift to absorb.
    out.label_noise = dataset.label_noise *
                      (1.0 + static_cast<double>(chunk_index + 1) /
                                 static_cast<double>(st.chunks));
  }
  return out;
}

StreamRun run_stream_pipeline(const workloads::DatasetSpec& dataset,
                              const StreamingSpec& st, std::uint64_t seed,
                              std::uint32_t max_depth, std::uint32_t threads,
                              std::uint32_t shards, bool paced) {
  const gbdt::Dataset bootstrap_raw =
      workloads::synthesize(dataset, st.bootstrap_rows, seed);
  const gbdt::BinnedDataset bootstrap = gbdt::Binner().bin(bootstrap_raw);
  const stream::FrozenBinMap map(bootstrap);

  stream::RetrainerConfig rcfg;
  rcfg.trainer.num_trees = st.refresh_trees;
  rcfg.trainer.max_depth = max_depth;
  rcfg.trainer.loss = dataset.loss;
  rcfg.trainer.num_threads = threads;
  rcfg.trainer.num_shards = shards;
  rcfg.refresh_every_chunks = st.refresh_every_chunks;
  rcfg.window_chunks = st.window_chunks;
  rcfg.warm_start = st.warm_start;
  serve::ModelSlot slot;
  rcfg.slot = &slot;
  stream::Retrainer retrainer(map, rcfg);

  StreamRun run;
  const auto start = std::chrono::steady_clock::now();
  for (std::uint32_t i = 0; i < st.chunks; ++i) {
    const gbdt::Dataset chunk =
        workloads::synthesize(drifted_spec(dataset, st, i), st.chunk_rows,
                              seed + kChunkSeedStride * (i + 1));
    if (paced && st.arrival_rows_per_sec > 0.0) {
      const double due_s =
          static_cast<double>(run.rows + chunk.num_records()) /
          st.arrival_rows_per_sec;
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<
                      std::chrono::steady_clock::duration>(
                      std::chrono::duration<double>(due_s)));
    }
    const auto arrived = std::chrono::steady_clock::now();
    if (retrainer.ingest(chunk)) {
      const auto installed = std::chrono::steady_clock::now();
      run.staleness_ms.push_back(
          std::chrono::duration<double, std::milli>(installed - arrived)
              .count());
      std::stringstream bytes;
      gbdt::save_model(*retrainer.latest(), bytes);
      run.generations.push_back(bytes.str());
    }
    run.rows += chunk.num_records();
  }
  run.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  run.handoff_failures = retrainer.stats().handoff_failures;
  run.final_trees = retrainer.stats().latest_trees;
  const auto served = slot.current();
  run.slot_version = served == nullptr ? 0 : served->version;
  return run;
}

}  // namespace

RunOptions parse_run_options(int argc, char** argv) {
  RunOptions opt;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      opt.quick = true;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      opt.json = true;
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      const long v = std::strtol(argv[++i], nullptr, 10);
      if (v > 0) opt.threads = static_cast<unsigned>(v);
    }
  }
  return opt;
}

void print_header(const std::string& title, const std::string& paper_ref) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("Reproduces: %s\n", paper_ref.c_str());
  // Provenance: which kernel dispatch level this process trains with.
  // Outputs are bit-identical across levels; only the wall clock moves.
  std::printf("SIMD dispatch: %s\n",
              util::simd::level_name(util::simd::active()));
  std::printf("==============================================================\n");
}

const memsim::BandwidthProfile& calibrated_profile(
    const memsim::DramConfig& cfg) {
  // Keyed by every config field that can change the measurement; profiles
  // are appended once and referenced for the process lifetime (deque:
  // appending a new config must not invalidate handed-out references).
  static std::mutex mutex;
  static std::deque<std::pair<std::string, memsim::BandwidthProfile>>* cache =
      new std::deque<std::pair<std::string, memsim::BandwidthProfile>>();

  char key[256];
  std::snprintf(key, sizeof(key), "%u/%u/%u|%u-%u-%u-%u|%u/%u|%u/%u|%.6e|%u",
                cfg.channels, cfg.banks_per_channel, cfg.row_bytes, cfg.tCAS,
                cfg.tRP, cfg.tRCD, cfg.tRAS, cfg.tRRD, cfg.tFAW,
                cfg.block_bytes, cfg.bus_bytes_per_cycle, cfg.clock_hz,
                cfg.queue_depth);

  std::lock_guard<std::mutex> lock(mutex);
  for (const auto& [k, profile] : *cache) {
    if (k == key) return profile;
  }
  const memsim::BandwidthProbe probe(cfg);
  cache->emplace_back(key, probe.calibrate(/*num_requests=*/60000));
  return cache->back().second;
}

core::BoosterConfig calibrated_booster_config() {
  core::BoosterConfig cfg;
  cfg.bandwidth = calibrated_profile(memsim::DramConfig{});
  return cfg;
}

const ScenarioCell& ScenarioResult::cell(std::size_t sweep,
                                         std::size_t workload,
                                         std::size_t model) const {
  const std::size_t per_sweep = workloads.size() * spec.models.size();
  return cells[sweep * per_sweep + workload * spec.models.size() + model];
}

Json ScenarioResult::to_json() const {
  Json j = Json::object();
  j.set("scenario", spec.name);
  if (!spec.paper_ref.empty()) j.set("paper_ref", spec.paper_ref);
  j.set("quick", quick);
  j.set("sweep_axis", sweep_axis_name(spec.sweep_axis));
  if (spec.sweep_axis != SweepAxis::kNone) {
    Json values = Json::array();
    for (const double v : sweep_values) values.push_back(v);
    j.set("sweep_values", std::move(values));
  }

  Json cell_array = Json::array();
  for (const auto& c : cells) {
    Json cj = Json::object();
    if (spec.sweep_axis != SweepAxis::kNone) {
      cj.set(sweep_axis_name(spec.sweep_axis), c.sweep_value);
    }
    cj.set("workload", workloads[c.workload_index].spec.name);
    cj.set("model", c.model_name);
    cj.set("step1_hist_s", c.breakdown[trace::StepKind::kHistogram]);
    cj.set("step2_split_s", c.breakdown[trace::StepKind::kSplitSelect]);
    cj.set("step3_partition_s", c.breakdown[trace::StepKind::kPartition]);
    cj.set("step5_traversal_s", c.breakdown[trace::StepKind::kTraversal]);
    cj.set("total_s", c.total_seconds);
    cj.set("sram_accesses", c.activity.sram_accesses);
    cj.set("dram_bytes", c.activity.dram_bytes);
    if (spec.include_inference) {
      cj.set("inference_s", c.inference_seconds);
      cj.set("analytic_qps", c.analytic_qps);
    }
    cell_array.push_back(std::move(cj));
  }
  j.set("cells", std::move(cell_array));

  if (!serving.empty()) {
    Json serving_array = Json::array();
    for (const auto& s : serving) {
      Json sj = Json::object();
      sj.set("workload", workloads[s.workload_index].spec.name);
      sj.set("qps", s.qps);
      sj.set("rows_per_sec", s.rows_per_sec);
      sj.set("mean_us", s.mean_us);
      sj.set("p50_us", s.p50_us);
      sj.set("p99_us", s.p99_us);
      sj.set("p999_us", s.p999_us);
      sj.set("requests", s.requests);
      sj.set("rows", s.rows);
      sj.set("bytes_per_request", s.bytes_per_request);
      serving_array.push_back(std::move(sj));
    }
    j.set("serving", std::move(serving_array));
  }

  if (!streaming.empty()) {
    Json streaming_array = Json::array();
    for (const auto& s : streaming) {
      Json sj = Json::object();
      sj.set("workload", workloads[s.workload_index].spec.name);
      if (spec.sweep_axis == SweepAxis::kArrivalRate ||
          spec.sweep_axis == SweepAxis::kRefreshCadence) {
        sj.set("sweep_value", s.sweep_value);
      }
      sj.set("arrival_rows_per_sec", s.arrival_rows_per_sec);
      sj.set("refresh_every_chunks", s.refresh_every_chunks);
      sj.set("chunks", s.chunks);
      sj.set("rows", s.rows);
      sj.set("refreshes", s.refreshes);
      sj.set("final_trees", s.final_trees);
      sj.set("rows_per_sec", s.rows_per_sec);
      sj.set("staleness_ms_mean", s.staleness_ms_mean);
      sj.set("staleness_ms_max", s.staleness_ms_max);
      streaming_array.push_back(std::move(sj));
    }
    j.set("streaming", std::move(streaming_array));
  }
  return j;
}

void ScenarioResult::print_table() const {
  std::vector<std::string> header;
  const bool swept = spec.sweep_axis != SweepAxis::kNone;
  if (swept) header.push_back(sweep_axis_name(spec.sweep_axis));
  header.insert(header.end(), {"Workload", "Model", "step1", "step2", "step3",
                               "step5", "total"});
  if (spec.include_inference) {
    header.push_back("inference");
    header.push_back("analytic-qps");
  }

  util::Table table(header);
  for (const auto& c : cells) {
    std::vector<std::string> row;
    if (swept) {
      // Integer sweep points (clusters) print bare; fractional ones
      // (bandwidth scales) keep two decimals so rows stay distinguishable.
      row.push_back(util::fmt(c.sweep_value,
                              c.sweep_value == std::floor(c.sweep_value)
                                  ? 0
                                  : 2));
    }
    row.insert(row.end(),
               {workloads[c.workload_index].spec.name, c.model_name,
                util::fmt_time(c.breakdown[trace::StepKind::kHistogram]),
                util::fmt_time(c.breakdown[trace::StepKind::kSplitSelect]),
                util::fmt_time(c.breakdown[trace::StepKind::kPartition]),
                util::fmt_time(c.breakdown[trace::StepKind::kTraversal]),
                util::fmt_time(c.total_seconds)});
    if (spec.include_inference) {
      row.push_back(util::fmt_time(c.inference_seconds));
      row.push_back(util::fmt(c.analytic_qps, 0));
    }
    table.add_row(std::move(row));
  }
  table.print();

  // The measured leg, when present: real sockets, closed loop, every
  // prediction already proven bit-identical (a mismatch would have failed
  // the run). Printed after the analytic table so the two QPS columns sit
  // together on the terminal.
  if (!serving.empty()) {
    util::Table measured({"Workload", "measured-qps", "rows/s", "p50-us",
                          "p99-us", "p999-us", "requests"});
    for (const auto& s : serving) {
      measured.add_row({workloads[s.workload_index].spec.name,
                        util::fmt(s.qps, 0), util::fmt(s.rows_per_sec, 0),
                        util::fmt(s.p50_us, 0), util::fmt(s.p99_us, 0),
                        util::fmt(s.p999_us, 0),
                        std::to_string(s.requests)});
    }
    std::printf("\nMeasured serving (closed-loop, localhost TCP,"
                " bit-identity gated):\n");
    measured.print();
  }

  // Same for the streaming leg: numbers only print after every refreshed
  // generation passed the (threads x shards) bit-identity gate.
  if (!streaming.empty()) {
    util::Table measured({"Workload", "cadence", "refreshes", "trees",
                          "rows/s", "stale-ms-mean", "stale-ms-max"});
    for (const auto& s : streaming) {
      measured.add_row({workloads[s.workload_index].spec.name,
                        std::to_string(s.refresh_every_chunks),
                        std::to_string(s.refreshes),
                        std::to_string(s.final_trees),
                        util::fmt(s.rows_per_sec, 0),
                        util::fmt(s.staleness_ms_mean, 2),
                        util::fmt(s.staleness_ms_max, 2)});
    }
    std::printf("\nMeasured streaming (chunked ingest + warm-start refresh,"
                " bit-identity gated):\n");
    measured.print();
  }
}

ScenarioRunner::ScenarioRunner()
    : models_(&ModelRegistry::builtin()),
      workloads_(WorkloadRegistry::with_builtin()) {}

ScenarioRunner::ScenarioRunner(const ModelRegistry* models,
                               WorkloadRegistry workloads)
    : models_(models), workloads_(std::move(workloads)) {}

std::optional<ScenarioResult> ScenarioRunner::run(const ScenarioSpec& spec,
                                                  const RunOptions& options,
                                                  std::string* error) const {
  // ---- resolve workloads and models up front (cheap failures first).
  WorkloadRegistry registry = workloads_;
  for (const auto& d : spec.datasets) registry.add(d);

  std::vector<workloads::DatasetSpec> dataset_specs;
  for (const auto& name : spec.workloads) {
    const workloads::DatasetSpec* found = registry.find(name);
    if (found == nullptr) {
      std::string known;
      for (const auto& n : registry.names()) {
        if (!known.empty()) known += ", ";
        known += n;
      }
      set_error(error, "unknown workload \"" + name + "\" (registered: " +
                           known + ")");
      return std::nullopt;
    }
    dataset_specs.push_back(*found);
  }
  for (const auto& m : spec.models) {
    // Full factory validation (name lookup + overrides) with a scratch
    // context, so a typo'd override fails here instead of after the
    // expensive functional-training stage.
    ModelContext scratch;
    std::string model_error;
    if (models_->create(m, scratch, &model_error) == nullptr) {
      set_error(error, model_error);
      return std::nullopt;
    }
  }

  ScenarioResult result;
  result.spec = spec;
  result.quick = options.quick;

  // ---- resolve configs.
  const auto dram = spec.dram_config(error);
  if (!dram) return std::nullopt;
  result.dram = *dram;

  core::BoosterConfig base_booster;
  // The probe is the dominant cost of a small run; pure-config scenarios
  // (no workloads or no models -> zero cells) never consume the profile.
  const bool has_cells = !spec.workloads.empty() && !spec.models.empty();
  if (options.calibrate_bandwidth && has_cells) {
    base_booster.bandwidth = calibrated_profile(*dram);
  }
  const auto booster = spec.booster_config(base_booster, error);
  if (!booster) return std::nullopt;

  // ---- expand the sweep into per-point configs / record scales.
  result.sweep_values =
      spec.sweep_axis == SweepAxis::kNone ? std::vector<double>{0.0}
                                          : spec.sweep_values;
  std::vector<core::BoosterConfig> point_configs;
  std::vector<double> record_scales;
  std::vector<std::uint32_t> point_replicas;
  for (const double value : result.sweep_values) {
    core::BoosterConfig cfg = *booster;
    double record_scale = 1.0;
    std::uint32_t replica_count = 1;
    switch (spec.sweep_axis) {
      case SweepAxis::kNone:
        break;
      case SweepAxis::kClusters:
        if (value < 1.0 || value != std::floor(value)) {
          set_error(error, "sweep axis clusters requires positive integer"
                           " values");
          return std::nullopt;
        }
        cfg.clusters = static_cast<std::uint32_t>(value);
        break;
      case SweepAxis::kBandwidthScale:
        if (value <= 0.0) {
          set_error(error, "sweep axis bandwidth-scale requires positive"
                           " values");
          return std::nullopt;
        }
        cfg.bandwidth.streaming *= value;
        cfg.bandwidth.strided_gather *= value;
        cfg.bandwidth.random *= value;
        cfg.bandwidth.peak *= value;
        break;
      case SweepAxis::kRecordScale:
        if (value <= 0.0) {
          set_error(error, "sweep axis record-scale requires positive"
                           " values");
          return std::nullopt;
        }
        record_scale = value;
        break;
      case SweepAxis::kShards:
        if (value < 1.0 || value != std::floor(value)) {
          set_error(error, "sweep axis shards requires positive integer"
                           " values");
          return std::nullopt;
        }
        cfg.training_shards = static_cast<std::uint32_t>(value);
        break;
      case SweepAxis::kReplicas:
        if (value < 1.0 || value != std::floor(value)) {
          set_error(error, "sweep axis replicas requires positive integer"
                           " values");
          return std::nullopt;
        }
        replica_count = static_cast<std::uint32_t>(value);
        break;
      case SweepAxis::kArrivalRate:
        // Moves only the measured streaming leg (pacing); the analytic
        // cells run at the base config for every point.
        if (value < 0.0) {
          set_error(error, "sweep axis arrival-rate requires non-negative"
                           " values (rows/s; 0 = unpaced)");
          return std::nullopt;
        }
        break;
      case SweepAxis::kRefreshCadence:
        // Moves only the measured streaming leg (refresh_every_chunks).
        if (value < 1.0 || value != std::floor(value)) {
          set_error(error, "sweep axis refresh-cadence requires positive"
                           " integer values (chunks per refresh)");
          return std::nullopt;
        }
        break;
    }
    point_configs.push_back(cfg);
    record_scales.push_back(record_scale);
    point_replicas.push_back(replica_count);
  }

  // ---- run the functional workloads (the expensive stage). Each run is
  // deterministic given (spec, runner config), so fanning them out over
  // the pool changes nothing but wall time.
  const workloads::RunnerConfig runner_cfg = spec.runner_config(options.quick);
  util::ThreadPool pool(options.threads);
  std::vector<std::optional<workloads::WorkloadResult>> workload_slots(
      dataset_specs.size());
  pool.run_tasks(static_cast<unsigned>(dataset_specs.size()), [&](unsigned i) {
    workload_slots[i] = workloads::run_workload(dataset_specs[i], runner_cfg);
  });
  result.workloads.reserve(workload_slots.size());
  for (auto& slot : workload_slots) {
    result.workloads.push_back(std::move(*slot));
  }

  // Per-workload inference shape, derived once (model traversal stats are
  // not cheap enough to recompute per cell).
  std::vector<perf::InferenceSpec> inference_specs(result.workloads.size());
  if (spec.include_inference) {
    for (std::size_t w = 0; w < result.workloads.size(); ++w) {
      const auto& wl = result.workloads[w];
      perf::InferenceSpec is;
      is.records = static_cast<double>(wl.spec.nominal_records);
      is.trees = wl.info.trees;
      is.max_depth = wl.train.model.max_tree_depth();
      is.avg_path_length = wl.train.model.avg_path_length(wl.binned);
      is.record_bytes = wl.info.record_bytes;
      inference_specs[w] = is;
    }
  }

  // ---- evaluate the cell matrix in parallel. Every cell owns slot
  // cells[index]; reductions (tables, geomeans) happen in the shims,
  // serially, so parallel == serial bit-for-bit.
  const std::size_t num_models = spec.models.size();
  const std::size_t num_workloads = result.workloads.size();
  const std::size_t num_cells =
      result.sweep_values.size() * num_workloads * num_models;
  result.cells.resize(num_cells);

  std::mutex error_mutex;
  std::string cell_error;
  pool.run_tasks(static_cast<unsigned>(num_cells), [&](unsigned index) {
    const std::size_t s = index / (num_workloads * num_models);
    const std::size_t w = (index / num_models) % num_workloads;
    const std::size_t m = index % num_models;
    const auto& wl = result.workloads[w];

    ScenarioCell& cell = result.cells[index];
    cell.sweep_index = s;
    cell.sweep_value =
        spec.sweep_axis == SweepAxis::kNone ? 0.0 : result.sweep_values[s];
    cell.workload_index = w;
    cell.model_index = m;
    cell.booster = point_configs[s];
    cell.replicas = point_replicas[s];

    ModelContext ctx;
    ctx.booster = point_configs[s];
    ctx.dram = *dram;
    ctx.replay_threads = options.replay_threads;
    ctx.workload = &wl;
    std::string local_error;
    const auto model = models_->create(spec.models[m], ctx, &local_error);
    if (model == nullptr) {
      std::lock_guard<std::mutex> lock(error_mutex);
      if (cell_error.empty()) cell_error = local_error;
      return;
    }
    cell.model_name = model->name();

    const double record_scale = record_scales[s];
    if (record_scale == 1.0) {
      cell.breakdown = model->train_cost(wl.trace, wl.info);
      cell.activity = model->train_activity(wl.trace, wl.info);
    } else {
      // The paper's Fig 12 replication: scale the trace's record dimension
      // only (tree count and histogram sizes unchanged).
      const trace::StepTrace scaled = wl.trace.scaled_by(record_scale);
      trace::WorkloadInfo info = wl.info;
      info.nominal_records = static_cast<std::uint64_t>(
          std::llround(static_cast<double>(info.nominal_records) *
                       record_scale));
      cell.breakdown = model->train_cost(scaled, info);
      cell.activity = model->train_activity(scaled, info);
    }
    cell.total_seconds = cell.breakdown.total();
    if (spec.include_inference) {
      perf::InferenceSpec is = inference_specs[w];
      is.records *= record_scale;
      is.chips = point_replicas[s];
      cell.inference_seconds = model->inference_cost(is);
      cell.analytic_qps = perf::projected_qps(is.records,
                                              cell.inference_seconds);
    }
  });
  if (!cell_error.empty()) {
    set_error(error, cell_error);
    return std::nullopt;
  }

  // ---- the measured serving leg: a real serve::Server per workload on
  // localhost TCP, driven closed-loop over the exact rows the functional
  // sample trained on (re-synthesized: synthesize is deterministic in
  // (spec, records, seed)). Runs serially after the cell matrix so its
  // wall-clock numbers are not polluted by pool contention. Any bitwise
  // mismatch between a served prediction and local Model::predict -- or
  // any transport error -- fails the whole scenario loudly.
  if (spec.serving.has_value()) {
    const ServingSpec& sv = *spec.serving;
    for (std::size_t w = 0; w < result.workloads.size(); ++w) {
      const auto& wl = result.workloads[w];

      // Model is move-only and the workload keeps its copy; clone through
      // the text serializer (round-tripping preserves every prediction).
      std::stringstream clone;
      gbdt::save_model(wl.train.model, clone);
      serve::ModelSlot slot;
      slot.install(gbdt::load_model(clone));

      serve::ServerConfig server_cfg;
      server_cfg.batch_window = std::chrono::microseconds(sv.batch_window_us);
      server_cfg.max_batch_rows = sv.max_batch_rows;
      serve::Server server(server_cfg, &slot, wl.binned);
      std::thread loop([&server] { server.run(); });

      const gbdt::Dataset queries =
          workloads::synthesize(wl.spec, runner_cfg.sim_records,
                                runner_cfg.seed);
      std::vector<double> expected(wl.binned.num_records());
      for (std::uint64_t r = 0; r < wl.binned.num_records(); ++r) {
        expected[r] = wl.train.model.predict(wl.binned, r);
      }

      serve::LoadConfig load;
      load.port = server.port();
      load.connections = sv.connections;
      load.requests_per_connection = sv.requests_per_connection;
      load.rows_per_request = sv.rows_per_request;
      load.json_body = sv.json_body;
      if (options.quick && load.requests_per_connection > 25) {
        load.requests_per_connection = 25;
      }
      const serve::LoadResult measured =
          serve::run_closed_loop(load, queries, expected);
      server.stop();
      loop.join();

      if (measured.errors != 0 || measured.mismatches != 0) {
        set_error(error, "serving leg failed for workload \"" +
                             wl.spec.name + "\": " +
                             std::to_string(measured.errors) + " errors, " +
                             std::to_string(measured.mismatches) +
                             " prediction mismatches vs local"
                             " Model::predict");
        return std::nullopt;
      }

      ServingMeasurement sm;
      sm.workload_index = w;
      sm.qps = measured.qps;
      sm.rows_per_sec = measured.rows_per_sec;
      sm.mean_us = measured.mean_us;
      sm.p50_us = measured.p50_us;
      sm.p99_us = measured.p99_us;
      sm.p999_us = measured.p999_us;
      sm.requests = measured.requests;
      sm.rows = measured.rows;
      sm.bytes_per_request = measured.bytes_per_request;
      result.serving.push_back(sm);
    }
  }

  // ---- the measured streaming leg: the full chunked-ingest +
  // continuous-retraining pipeline per workload (per streaming sweep point
  // when the axis is arrival-rate / refresh-cadence). Each measured run's
  // refreshed generations are then recomputed across a (threads x shards)
  // verification grid -- same chunk sequence, unpaced -- and any bitwise
  // divergence or failed hand-off fails the whole scenario, so the
  // staleness/throughput numbers are determinism-gated by construction.
  // Runs serially after the cell matrix, like the serving leg.
  if (spec.streaming.has_value()) {
    StreamingSpec base_st = *spec.streaming;
    if (options.quick) {
      base_st.bootstrap_rows = std::min<std::uint64_t>(base_st.bootstrap_rows,
                                                       2000);
      base_st.chunk_rows = std::min<std::uint64_t>(base_st.chunk_rows, 500);
      base_st.chunks = std::min<std::uint32_t>(base_st.chunks, 4);
      // Never sleep in CI smoke runs: quick measures the pipeline, not the
      // pacing.
      base_st.arrival_rows_per_sec = 0.0;
    }
    const bool streaming_swept =
        spec.sweep_axis == SweepAxis::kArrivalRate ||
        spec.sweep_axis == SweepAxis::kRefreshCadence;
    const std::vector<double> stream_points =
        streaming_swept ? result.sweep_values : std::vector<double>{0.0};

    for (std::size_t w = 0; w < result.workloads.size(); ++w) {
      const auto& wl = result.workloads[w];
      for (const double point : stream_points) {
        StreamingSpec st = base_st;
        if (spec.sweep_axis == SweepAxis::kArrivalRate && !options.quick) {
          st.arrival_rows_per_sec = point;
        }
        if (spec.sweep_axis == SweepAxis::kRefreshCadence) {
          st.refresh_every_chunks = static_cast<std::uint32_t>(point);
        }

        const StreamRun measured = run_stream_pipeline(
            wl.spec, st, runner_cfg.seed, spec.max_depth, /*threads=*/1,
            /*shards=*/1, /*paced=*/true);
        if (measured.handoff_failures != 0) {
          set_error(error, "streaming leg failed for workload \"" +
                               wl.spec.name + "\": " +
                               std::to_string(measured.handoff_failures) +
                               " model hand-offs failed");
          return std::nullopt;
        }
        if (measured.slot_version != measured.generations.size()) {
          set_error(error, "streaming leg failed for workload \"" +
                               wl.spec.name +
                               "\": ModelSlot version does not match the"
                               " refresh count");
          return std::nullopt;
        }

        // Determinism gate: every refreshed generation must be
        // bit-identical when the same chunk sequence retrains with more
        // threads and shards.
        for (const auto& [vthreads, vshards] :
             {std::pair<std::uint32_t, std::uint32_t>{1, 3},
              std::pair<std::uint32_t, std::uint32_t>{8, 1},
              std::pair<std::uint32_t, std::uint32_t>{8, 3}}) {
          const StreamRun verify = run_stream_pipeline(
              wl.spec, st, runner_cfg.seed, spec.max_depth, vthreads,
              vshards, /*paced=*/false);
          if (verify.generations != measured.generations) {
            set_error(error, "streaming leg failed for workload \"" +
                                 wl.spec.name + "\": refreshed models at"
                                 " threads=" + std::to_string(vthreads) +
                                 " shards=" + std::to_string(vshards) +
                                 " diverge bitwise from the threads=1"
                                 " shards=1 reference");
            return std::nullopt;
          }
        }

        StreamingMeasurement sm;
        sm.workload_index = w;
        sm.sweep_value = streaming_swept ? point : 0.0;
        sm.arrival_rows_per_sec = st.arrival_rows_per_sec;
        sm.refresh_every_chunks = st.refresh_every_chunks;
        sm.chunks = st.chunks;
        sm.rows = measured.rows;
        sm.refreshes = measured.generations.size();
        sm.final_trees = measured.final_trees;
        sm.rows_per_sec = measured.wall_seconds > 0.0
                              ? static_cast<double>(measured.rows) /
                                    measured.wall_seconds
                              : 0.0;
        if (!measured.staleness_ms.empty()) {
          double sum = 0.0;
          double max = 0.0;
          for (const double s : measured.staleness_ms) {
            sum += s;
            max = std::max(max, s);
          }
          sm.staleness_ms_mean =
              sum / static_cast<double>(measured.staleness_ms.size());
          sm.staleness_ms_max = max;
        }
        result.streaming.push_back(sm);
      }
    }
  }
  return result;
}

}  // namespace booster::sim

#include "sim/runner.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <mutex>

#include "util/simd.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace booster::sim {

namespace {

void set_error(std::string* error, const std::string& message) {
  if (error != nullptr && error->empty()) *error = message;
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

  return result;
}

}  // namespace booster::sim

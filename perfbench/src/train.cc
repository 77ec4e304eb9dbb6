// train-fraud: back-to-back gbdt::Trainer jobs on one table. Its traced run
// also trains the same data through a 2-rank localhost-TCP
// gbdt::DistributedTrainer world, which builds the bit-identical model by
// contract, so the difference between the two is the ipc layer and the
// rank-0 merge.
#include <cmath>
#include <string>
#include <vector>

#include "data.h"
#include "gbdt/distributed.h"
#include "gbdt/trainer.h"
#include "ipc/world.h"
#include "serve/model_slot.h"
#include "spans.h"
#include "workloads.h"
#include "workloads/split.h"

namespace perfbench {

using namespace booster;

namespace {

constexpr std::size_t kMinJobs = 3;

struct TrainSizes {
  std::uint64_t population_rows = 600000;
  double holdout_fraction = 1.0 / 6.0;  // ~500k train / ~100k holdout rows
  std::uint32_t trees = 10;
  std::uint32_t depth = 6;
  unsigned threads = 4;
  // The traced run's distributed comparison: same cores, 2 ranks.
  std::uint32_t ranks = 2;
  std::uint32_t shards = 8;
  unsigned threads_per_rank = 2;
};

TrainSizes train_sizes(Size size) {
  TrainSizes z;
  if (size == Size::kSmoke) {
    z.population_rows = 12000;
    z.trees = 2;
  }
  return z;
}

struct TrainSetup {
  gbdt::Dataset train_raw;
  gbdt::BinnedDataset train;
  gbdt::BinnedDataset holdout;
  SetupTimes times;
};

void setup_once(const TrainSizes& z, std::uint64_t seed, TrainSetup* s) {
  const ScopedSpan span("setup", Spans::kNone);
  const auto start = Clock::now();
  gbdt::Dataset raw;
  {
    const ScopedSpan call("workloads.synthesize", span.id());
    raw = synthesize_population(z.population_rows);
    s->times.synth_s = seconds_since(start);
  }
  workloads::TrainTestSplit split;
  {
    const ScopedSpan call("workloads.train_test_split", span.id());
    split = workloads::train_test_split(raw, z.holdout_fraction, seed);
  }
  {
    const ScopedSpan call("gbdt.Binner::bin", span.id());
    const auto t = Clock::now();
    s->train = gbdt::Binner().bin(split.train);
    s->times.bin_s = seconds_since(t);
  }
  {
    const ScopedSpan call("gbdt.BinnedDataset::ensure_row_major", span.id());
    const auto t = Clock::now();
    s->train.ensure_row_major();
    s->times.row_major_s = seconds_since(t);
  }
  {
    const ScopedSpan call("stream.FrozenBinMap::bin_chunk", span.id());
    s->holdout = bin_like(s->train, split.test);
  }
  s->train_raw = std::move(split.train);
  s->times.total_s = seconds_since(start);
}

gbdt::TrainerConfig trainer_config(const TrainSizes& z) {
  gbdt::TrainerConfig cfg;
  cfg.num_trees = z.trees;
  cfg.max_depth = z.depth;
  cfg.loss = "logistic";
  cfg.num_threads = z.threads;
  cfg.num_shards = 1;
  return cfg;
}

/// Bit-identity fingerprint of a training result: serialized model bytes
/// plus every per-tree training loss.
std::string fingerprint(const gbdt::Model& model,
                        const std::vector<gbdt::TreeStats>& trees) {
  std::string out = model_bytes(model);
  for (const auto& t : trees) {
    out.append(reinterpret_cast<const char*>(&t.train_loss), sizeof(double));
  }
  return out;
}

/// The traced run's distributed comparison: kMinJobs jobs of `cfg` through
/// a 2-rank localhost-TCP world (a fresh world per job), each gated
/// bit-identical to `reference`. Adds the last job's ipc counters and the
/// median distributed job wall over `in_process_wall`.
void distributed_comparison(const TrainSizes& z, const gbdt::TrainerConfig& cfg,
                            const TrainSetup& s, const std::string& reference,
                            double in_process_wall, RunResult* out) {
  const ScopedSpan span("distributed_comparison", Spans::kNone);
  gbdt::DistributedConfig dcfg;
  dcfg.trainer = cfg;
  dcfg.trainer.num_threads = z.threads_per_rank;
  dcfg.trainer.num_shards = z.shards;
  std::vector<double> walls;
  std::vector<gbdt::DistributedStats> stats;
  std::uint64_t mismatches = 0;
  for (std::size_t j = 0; j < kMinJobs; ++j) {
    const ScopedSpan call("gbdt.train_in_process", span.id(), j);
    stats.clear();
    const auto t0 = Clock::now();
    ipc::InProcessWorld world(ipc::TransportKind::kTcp, z.ranks);
    const gbdt::TrainResult r = gbdt::train_in_process(
        dcfg, world, s.train, nullptr, nullptr, nullptr, &stats);
    walls.push_back(seconds_since(t0));
    if (fingerprint(r.model, r.tree_stats) != reference) ++mismatches;
  }
  out->count(kMinJobs, mismatches,
             "distributed (2-rank TCP) model == gbdt::Trainer");
  double bytes = 0, frames = 0, messages = 0, retransmits = 0, reconnects = 0;
  for (const auto& st : stats) {
    bytes += static_cast<double>(st.transport.bytes_sent);
    frames += static_cast<double>(st.transport.frames_sent);
    messages += static_cast<double>(st.channel.messages_sent);
    retransmits += static_cast<double>(st.channel.retransmits);
    reconnects += static_cast<double>(st.transport.reconnects);
  }
  out->layer("ipc.wire_bytes", bytes, "bytes");
  out->layer("ipc.frames_sent", frames, "count");
  out->layer("ipc.messages", messages, "count");
  out->layer("ipc.retransmits", retransmits, "count");
  out->layer("ipc.reconnects", reconnects, "count");
  out->layer("ipc.dist_over_inprocess",
             in_process_wall > 0.0 ? median(walls) / in_process_wall : 0.0,
             "ratio");
}

}  // namespace

void run_train_fraud(const RunOptions& opt, Provenance* prov, RunResult* out) {
  const TrainSizes z = train_sizes(opt.size);
  TrainSetup s;
  std::vector<SetupTimes> setups;
  for (int k = 0; k < kSetups; ++k) {
    s = TrainSetup{};
    setup_once(z, opt.seed, &s);
    setups.push_back(s.times);
  }
  report_setups(setups, out);
  prov->put("rows", static_cast<double>(s.train.num_records()));
  prov->put("holdout_rows", static_cast<double>(s.holdout.num_records()));
  prov->put("trees", z.trees);
  prov->put("depth", z.depth);
  prov->put("threads", z.threads);
  prov->put("shards", 1);
  prov->put("ranks", 1);
  prov->put("traced_dist_ranks", z.ranks);
  prov->put("traced_dist_shards", z.shards);
  prov->put("traced_dist_threads_per_rank", z.threads_per_rank);
  prov->put("traced_dist_transport", "tcp");

  const gbdt::TrainerConfig cfg = trainer_config(z);
  // The warm-up job's result is the reference every timed job must
  // reproduce bit for bit, and it must equal a one-thread run.
  std::string reference;
  {
    const ScopedSpan span("warmup", Spans::kNone);
    const gbdt::TrainResult r = gbdt::Trainer(cfg).train(s.train);
    reference = fingerprint(r.model, r.tree_stats);
  }
  {
    const ScopedSpan span("gate.one_thread", Spans::kNone);
    gbdt::TrainerConfig serial = cfg;
    serial.num_threads = 1;
    const gbdt::TrainResult r = gbdt::Trainer(serial).train(s.train);
    out->check(fingerprint(r.model, r.tree_stats) == reference,
               "train-fraud model at 4 threads == at 1 thread");
  }

  // Back-to-back jobs; each model is installed into a ModelSlot, so
  // staleness is the job plus the install that makes its model servable.
  serve::ModelSlot slot;
  std::uint64_t jobs = 0;
  std::uint64_t mismatches = 0;
  std::vector<double> traced_walls;
  trace::StepTrace step_trace;
  gbdt::HotPathStats hot;
  const auto measure = [&](double seconds, bool traced) {
    const ScopedSpan phase(traced ? "measure.traced" : "measure.untraced",
                           Spans::kNone);
    std::vector<double> walls;
    std::vector<double> staleness_ms;
    const auto start = Clock::now();
    while (walls.size() < kMinJobs || seconds_since(start) < seconds) {
      const std::uint64_t id = jobs++;
      const ScopedSpan span("job", phase.id(), id);
      trace::StepTrace job_trace;
      const auto t0 = Clock::now();
      gbdt::TrainResult r = [&] {
        const ScopedSpan call("gbdt.Trainer::train", span.id(), id);
        return gbdt::Trainer(cfg).train(s.train, traced ? &job_trace : nullptr);
      }();
      walls.push_back(seconds_since(t0));
      {
        const ScopedSpan call("serve.ModelSlot::install", span.id(), id);
        slot.install(std::move(r.model));
      }
      staleness_ms.push_back(ms_since(t0));
      if (fingerprint(slot.current()->model, r.tree_stats) != reference) {
        ++mismatches;
      }
      if (traced) {
        step_trace = std::move(job_trace);
        hot = r.hot_path;
      }
    }
    if (traced) traced_walls = walls;
    const double wall = median(walls);
    PassFigures f;
    f.rows_per_s = static_cast<double>(s.train.num_records()) * z.trees / wall;
    f.latency_p50_ms = 1e3 * wall;
    f.latency_p90_ms = 1e3 * quantile(walls, 0.9);
    f.latency_p99_ms = 1e3 * quantile(walls, 0.99);
    f.staleness_p50_ms = median(staleness_ms);
    f.samples = walls.size();
    return f;
  };
  const PassFigures plain = measure_passes(opt, out, measure);
  out->count(jobs, mismatches, "train-fraud timed job model == warm-up model");
  out->e2e("rows_per_s", plain.rows_per_s, "rows/s");
  out->e2e("latency_p50_ms", plain.latency_p50_ms, "ms");
  out->e2e("staleness_p50_ms", plain.staleness_p50_ms, "ms");
  const auto served = slot.current();
  const double logloss = holdout_logloss(served->model, s.holdout);
  out->check(std::isfinite(logloss) && logloss > 0.0 && logloss < std::log(2.0),
             "holdout log-loss beats the constant 0.5 predictor");
  out->e2e("holdout_logloss", logloss, "nats");

  if (opt.trace) {
    ProbeInputs in;
    in.train = &s.train;
    in.train_raw = &s.train_raw;
    in.holdout = &s.holdout;
    in.model = &served->model;
    in.threads = z.threads;
    const UnitCosts costs = run_probes(in, Spans::kNone, out);
    const double traced_wall = median(traced_walls);
    add_step_metrics(step_trace, hot, s.train.total_bins(),
                     s.train.num_fields(), costs, traced_wall, out);
    distributed_comparison(z, cfg, s, reference, traced_wall, out);
  }
}

}  // namespace perfbench

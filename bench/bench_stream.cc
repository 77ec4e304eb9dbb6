// Streaming bench (ISSUE 9 acceptance): chunked ingestion through a frozen
// bin map into a stream::Retrainer, reporting staleness vs throughput as
// one machine-readable JSON object on stdout (see bench/README.md). Two
// sweeps share the points array: refresh cadence (unpaced -- how much
// ingest throughput the refresh path costs) and arrival rate (paced at a
// fixed cadence -- what staleness looks like under a real rows/s load).
//
// Every point is gated on determinism: the measured run's refreshed
// generations (serialized model bytes) must be bit-identical to reruns of
// the same chunk sequence at every (threads, shards) grid point in
// {1,8} x {1,3} and to a no-carry reference chain -- a plain gbdt::Trainer
// warm start per refresh on the materialized window, from the chain's
// previous generation, replaying every window row instead of carrying
// the Retrainer's predictions -- and every in-process hand-off must land
// (slot version == generation count). Any divergence exits non-zero --
// staleness numbers from a non-deterministic refresh path are worthless,
// so they are never printed. Each point also lists every refresh's wall
// time and replayed rows, which show whether a refresh's cost grows with
// the ensemble.
//
//   ./bench_stream [--quick]
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gbdt/binning.h"
#include "gbdt/model_io.h"
#include "gbdt/trainer.h"
#include "serve/model_slot.h"
#include "sim/runner.h"
#include "stream/chunk_window.h"
#include "stream/frozen_bin_map.h"
#include "stream/retrainer.h"
#include "workloads/spec.h"
#include "workloads/synth.h"

using namespace booster;

namespace {

// Distinct-looking seeds per chunk index.
constexpr std::uint64_t kChunkSeedStride = 1000003;
constexpr std::uint64_t kSeed = 42;

struct StreamParams {
  std::uint64_t bootstrap_rows = 4000;
  std::uint64_t chunk_rows = 1000;
  std::uint32_t chunks = 8;
  std::uint32_t window_chunks = 4;
  std::uint32_t refresh_every_chunks = 2;
  std::uint32_t refresh_trees = 16;
  double arrival_rows_per_sec = 0.0;  // 0 = unpaced
};

/// One refresh of a measured run.
struct RefreshSample {
  std::uint64_t init_trees = 0;     // trees the refresh warm-started from
  std::uint64_t replayed_rows = 0;  // RetrainerStats::replayed_rows
  /// The refreshing ingest call: also the refresh's staleness, the age of
  /// the newest window row when the refreshed model became available.
  double wall_ms = 0.0;
};

struct StreamRun {
  std::vector<std::string> generations;  // save_model bytes per refresh
  std::uint64_t rows = 0;
  double wall_seconds = 0.0;
  std::vector<RefreshSample> refreshes;
  std::uint64_t handoff_failures = 0;
  std::uint64_t final_trees = 0;
  std::uint64_t slot_version = 0;
};

workloads::DatasetSpec chunk_spec(const workloads::DatasetSpec& base,
                                  const StreamParams& p,
                                  std::uint32_t chunk_index) {
  // Label noise ramps to 2x over the stream (the scenario runner's
  // "noise-ramp" drift schedule): refreshes have real drift to absorb.
  workloads::DatasetSpec out = base;
  out.label_noise = base.label_noise *
                    (1.0 + static_cast<double>(chunk_index + 1) /
                               static_cast<double>(p.chunks));
  return out;
}

gbdt::Dataset stream_chunk(const workloads::DatasetSpec& spec,
                           const StreamParams& p, std::uint32_t i) {
  return workloads::synthesize(chunk_spec(spec, p, i), p.chunk_rows,
                               kSeed + kChunkSeedStride * (i + 1));
}

stream::FrozenBinMap bootstrap_map(const workloads::DatasetSpec& spec,
                                   const StreamParams& p) {
  return stream::FrozenBinMap(gbdt::Binner().bin(
      workloads::synthesize(spec, p.bootstrap_rows, kSeed)));
}

gbdt::TrainerConfig refresh_trainer(const workloads::DatasetSpec& spec,
                                    const StreamParams& p,
                                    std::uint32_t threads,
                                    std::uint32_t shards) {
  gbdt::TrainerConfig cfg;
  cfg.num_trees = p.refresh_trees;
  cfg.max_depth = 6;
  cfg.loss = spec.loss;
  cfg.num_threads = threads;
  cfg.num_shards = shards;
  return cfg;
}

std::string model_bytes(const gbdt::Model& model) {
  std::stringstream bytes;
  gbdt::save_model(model, bytes);
  return bytes.str();
}

StreamRun run_stream(const workloads::DatasetSpec& spec,
                     const StreamParams& p, std::uint32_t threads,
                     std::uint32_t shards, bool paced) {
  const stream::FrozenBinMap map = bootstrap_map(spec, p);

  stream::RetrainerConfig rcfg;
  rcfg.trainer = refresh_trainer(spec, p, threads, shards);
  rcfg.refresh_every_chunks = p.refresh_every_chunks;
  rcfg.window_chunks = p.window_chunks;
  serve::ModelSlot slot;
  rcfg.slot = &slot;
  stream::Retrainer retrainer(map, rcfg);

  StreamRun run;
  const auto start = std::chrono::steady_clock::now();
  for (std::uint32_t i = 0; i < p.chunks; ++i) {
    const gbdt::Dataset chunk = stream_chunk(spec, p, i);
    if (paced && p.arrival_rows_per_sec > 0.0) {
      const double due_s =
          static_cast<double>(run.rows + chunk.num_records()) /
          p.arrival_rows_per_sec;
      std::this_thread::sleep_until(
          start +
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(due_s)));
    }
    const std::uint64_t init_trees = retrainer.stats().latest_trees;
    const auto arrived = std::chrono::steady_clock::now();
    if (retrainer.ingest(chunk)) {
      const auto installed = std::chrono::steady_clock::now();
      run.refreshes.push_back(
          {init_trees, retrainer.stats().replayed_rows,
           std::chrono::duration<double, std::milli>(installed - arrived)
               .count()});
      run.generations.push_back(model_bytes(*retrainer.latest()));
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

/// The no-carry reference chain: the point's chunk sequence through a
/// plain ChunkWindow, and per refresh one gbdt::Trainer warm start on the
/// materialized window from the chain's previous generation, with no
/// init_predictions -- every window row replayed. Returns the generations.
std::vector<std::string> replayed_chain(const workloads::DatasetSpec& spec,
                                        const StreamParams& p) {
  const stream::FrozenBinMap map = bootstrap_map(spec, p);
  stream::ChunkWindow window(map, p.window_chunks);
  gbdt::BinnedDataset arena;
  std::optional<gbdt::Model> previous;
  std::vector<std::string> generations;
  for (std::uint32_t i = 0; i < p.chunks; ++i) {
    window.push(stream_chunk(spec, p, i));
    if ((i + 1) % p.refresh_every_chunks != 0) continue;
    window.materialize(&arena);
    gbdt::TrainerConfig cfg = refresh_trainer(spec, p, 1, 1);
    cfg.init_model = previous.has_value() ? &*previous : nullptr;
    previous.emplace(gbdt::Trainer(cfg).train(arena).model);
    generations.push_back(model_bytes(*previous));
  }
  return generations;
}

/// Reruns the point's chunk sequence across the verification grid and the
/// no-carry reference chain; true iff each reproduced the measured
/// generations bit-for-bit.
bool verify_grid(const workloads::DatasetSpec& spec, const StreamParams& p,
                 const StreamRun& measured) {
  if (replayed_chain(spec, p) != measured.generations) {
    std::fprintf(stderr,
                 "bench_stream: refreshed generations diverged from the"
                 " no-carry reference chain\n");
    return false;
  }
  const std::pair<std::uint32_t, std::uint32_t> grid[] = {
      {1, 3}, {8, 1}, {8, 3}};
  for (const auto& [threads, shards] : grid) {
    const StreamRun rerun =
        run_stream(spec, p, threads, shards, /*paced=*/false);
    if (rerun.generations != measured.generations) {
      std::fprintf(stderr,
                   "bench_stream: refreshed generations diverged at"
                   " %u threads x %u shards\n",
                   threads, shards);
      return false;
    }
  }
  return true;
}

double mean_wall_ms(const std::vector<RefreshSample>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (const RefreshSample& x : v) sum += x.wall_ms;
  return sum / static_cast<double>(v.size());
}

double max_wall_ms(const std::vector<RefreshSample>& v) {
  double best = 0.0;
  for (const RefreshSample& x : v) best = x.wall_ms > best ? x.wall_ms : best;
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = sim::parse_run_options(argc, argv);

  workloads::DatasetSpec spec = workloads::spec_by_name("IoT");
  StreamParams base;
  if (opt.quick) {
    base.bootstrap_rows = 2000;
    base.chunk_rows = 500;
    base.chunks = 4;
    // A window shorter than the stream, so the quick run evicts and its
    // gate sees a nonzero carry offset.
    base.window_chunks = 2;
    base.refresh_trees = 8;
  }

  // Sweep 1: refresh cadence, unpaced (throughput cost of the refresh
  // path). Sweep 2: arrival rate, paced at the base cadence (staleness
  // under load).
  const std::vector<std::uint32_t> cadence_points =
      opt.quick ? std::vector<std::uint32_t>{1, 2}
                : std::vector<std::uint32_t>{1, 2, 4};
  const std::vector<double> arrival_points =
      opt.quick ? std::vector<double>{8000.0}
                : std::vector<double>{8000.0, 32000.0};

  std::vector<StreamParams> points;
  for (const std::uint32_t cadence : cadence_points) {
    StreamParams p = base;
    p.refresh_every_chunks = cadence;
    points.push_back(p);
  }
  for (const double arrival : arrival_points) {
    StreamParams p = base;
    p.arrival_rows_per_sec = arrival;
    points.push_back(p);
  }

  std::printf("{\n  \"bench\": \"stream\",\n");
  std::printf("  \"workload\": \"%s\",\n", spec.name.c_str());
  std::printf("  \"bootstrap_rows\": %llu,\n",
              static_cast<unsigned long long>(base.bootstrap_rows));
  std::printf("  \"chunk_rows\": %llu,\n",
              static_cast<unsigned long long>(base.chunk_rows));
  std::printf("  \"chunks\": %u,\n", base.chunks);
  std::printf("  \"window_chunks\": %u,\n", base.window_chunks);
  std::printf("  \"refresh_trees\": %u,\n", base.refresh_trees);
  std::printf("  \"points\": [\n");

  bool diverged = false;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const StreamParams& p = points[i];
    const StreamRun r = run_stream(spec, p, /*threads=*/1, /*shards=*/1,
                                   /*paced=*/true);
    const bool ok = r.handoff_failures == 0 &&
                    r.slot_version == r.generations.size() &&
                    verify_grid(spec, p, r);
    if (!ok) diverged = true;
    std::printf("    {\"arrival_rows_per_sec\": %.1f,"
                " \"refresh_every_chunks\": %u, \"rows\": %llu,"
                " \"refreshes\": %llu, \"final_trees\": %llu,"
                " \"rows_per_sec\": %.1f, \"staleness_ms_mean\": %.3f,"
                " \"staleness_ms_max\": %.3f, \"verify_grid\": \"%s\",\n"
                "     \"refreshes_detail\": [",
                p.arrival_rows_per_sec, p.refresh_every_chunks,
                static_cast<unsigned long long>(r.rows),
                static_cast<unsigned long long>(r.generations.size()),
                static_cast<unsigned long long>(r.final_trees),
                r.wall_seconds > 0.0
                    ? static_cast<double>(r.rows) / r.wall_seconds
                    : 0.0,
                mean_wall_ms(r.refreshes), max_wall_ms(r.refreshes),
                ok ? "pass" : "FAIL");
    for (std::size_t k = 0; k < r.refreshes.size(); ++k) {
      const RefreshSample& rs = r.refreshes[k];
      std::printf("%s{\"init_trees\": %llu, \"replayed_rows\": %llu,"
                  " \"wall_ms\": %.3f}",
                  k == 0 ? "" : ", ",
                  static_cast<unsigned long long>(rs.init_trees),
                  static_cast<unsigned long long>(rs.replayed_rows),
                  rs.wall_ms);
    }
    std::printf("]}%s\n", i + 1 < points.size() ? "," : "");
  }
  std::printf("  ],\n");
  std::printf("  \"bit_identity\": \"%s\"\n}\n",
              diverged ? "FAIL" : "pass");
  if (diverged) {
    std::fprintf(stderr,
                 "bench_stream: a refresh hand-off failed or generations"
                 " diverged across the (threads x shards) grid\n");
    return 1;
  }
  return 0;
}

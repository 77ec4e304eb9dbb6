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
// {1,8} x {1,3}, and every in-process hand-off must land (slot version ==
// generation count). Any divergence exits non-zero -- staleness numbers
// from a non-deterministic refresh path are worthless, so they are never
// printed.
//
//   ./bench_stream [--quick]
#include <chrono>
#include <cstdio>
#include <cstdlib>
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

struct StreamRun {
  std::vector<std::string> generations;  // save_model bytes per refresh
  std::uint64_t rows = 0;
  double wall_seconds = 0.0;
  std::vector<double> staleness_ms;
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

StreamRun run_stream(const workloads::DatasetSpec& spec,
                     const StreamParams& p, std::uint32_t threads,
                     std::uint32_t shards, bool paced) {
  const gbdt::Dataset bootstrap_raw =
      workloads::synthesize(spec, p.bootstrap_rows, kSeed);
  const gbdt::BinnedDataset bootstrap = gbdt::Binner().bin(bootstrap_raw);
  const stream::FrozenBinMap map(bootstrap);

  stream::RetrainerConfig rcfg;
  rcfg.trainer.num_trees = p.refresh_trees;
  rcfg.trainer.max_depth = 6;
  rcfg.trainer.loss = spec.loss;
  rcfg.trainer.num_threads = threads;
  rcfg.trainer.num_shards = shards;
  rcfg.refresh_every_chunks = p.refresh_every_chunks;
  rcfg.window_chunks = p.window_chunks;
  serve::ModelSlot slot;
  rcfg.slot = &slot;
  stream::Retrainer retrainer(map, rcfg);

  StreamRun run;
  const auto start = std::chrono::steady_clock::now();
  for (std::uint32_t i = 0; i < p.chunks; ++i) {
    const gbdt::Dataset chunk =
        workloads::synthesize(chunk_spec(spec, p, i), p.chunk_rows,
                              kSeed + kChunkSeedStride * (i + 1));
    if (paced && p.arrival_rows_per_sec > 0.0) {
      const double due_s =
          static_cast<double>(run.rows + chunk.num_records()) /
          p.arrival_rows_per_sec;
      std::this_thread::sleep_until(
          start +
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
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

/// Reruns the point's chunk sequence across the verification grid; true
/// iff every grid point reproduced the measured generations bit-for-bit.
bool verify_grid(const workloads::DatasetSpec& spec, const StreamParams& p,
                 const StreamRun& measured) {
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

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (const double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double max_of(const std::vector<double>& v) {
  double best = 0.0;
  for (const double x : v) best = x > best ? x : best;
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
                " \"staleness_ms_max\": %.3f, \"verify_grid\": \"%s\"}%s\n",
                p.arrival_rows_per_sec, p.refresh_every_chunks,
                static_cast<unsigned long long>(r.rows),
                static_cast<unsigned long long>(r.generations.size()),
                static_cast<unsigned long long>(r.final_trees),
                r.wall_seconds > 0.0
                    ? static_cast<double>(r.rows) / r.wall_seconds
                    : 0.0,
                mean(r.staleness_ms), max_of(r.staleness_ms),
                ok ? "pass" : "FAIL", i + 1 < points.size() ? "," : "");
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

// Micro-benchmarks (google-benchmark) for the hot kernels of the functional
// library and simulators: histogram build (software and BU-array), split
// scan, predicate partition (the accelerator model's and the trainer's),
// tree traversal, and the cycle-level DRAM model.
// These measure *simulator* throughput, useful when tuning the functional
// pipeline; the paper's figures come from the bench_fig* binaries.
#include <benchmark/benchmark.h>

#include <numeric>
#include <span>
#include <vector>

#include "core/engines.h"
#include "gbdt/binning.h"
#include "gbdt/flat_ensemble.h"
#include "gbdt/histogram.h"
#include "gbdt/hotpath.h"
#include "gbdt/split.h"
#include "gbdt/trainer.h"
#include "memsim/memory_system.h"
#include "util/simd.h"
#include "util/thread_pool.h"
#include "workloads/runner.h"
#include "workloads/synth.h"

namespace {

using namespace booster;

const workloads::WorkloadResult& higgs_sample() {
  static const workloads::WorkloadResult result = [] {
    workloads::RunnerConfig cfg;
    cfg.sim_records = 16000;
    cfg.sim_trees = 4;
    return workloads::run_workload(workloads::spec_by_name("Higgs"), cfg);
  }();
  return result;
}

std::vector<gbdt::GradientPair> unit_gradients(std::uint64_t n) {
  return std::vector<gbdt::GradientPair>(n, gbdt::GradientPair{0.5f, 1.0f});
}

void BM_HistogramBuild(benchmark::State& state) {
  const auto& w = higgs_sample();
  const auto grads = unit_gradients(w.binned.num_records());
  std::vector<std::uint32_t> rows(w.binned.num_records());
  std::iota(rows.begin(), rows.end(), 0);
  gbdt::Histogram hist(w.binned);
  for (auto _ : state) {
    hist.clear();
    hist.build(w.binned, rows, grads);
    benchmark::DoNotOptimize(hist.totals());
  }
  state.SetItemsProcessed(state.iterations() * rows.size() *
                          w.binned.num_fields());
}
BENCHMARK(BM_HistogramBuild);

void BM_HistogramEngineBU(benchmark::State& state) {
  const auto& w = higgs_sample();
  const auto grads = unit_gradients(w.binned.num_records());
  std::vector<std::uint32_t> rows(w.binned.num_records());
  std::iota(rows.begin(), rows.end(), 0);
  core::BoosterConfig cfg;
  core::HistogramEngine engine(cfg, core::BinnedFieldShape::of(w.binned),
                               core::MappingStrategy::kGroupByField);
  for (auto _ : state) {
    engine.clear();
    benchmark::DoNotOptimize(engine.run(w.binned, rows, grads));
  }
  state.SetItemsProcessed(state.iterations() * rows.size() *
                          w.binned.num_fields());
}
BENCHMARK(BM_HistogramEngineBU);

void BM_SplitScan(benchmark::State& state) {
  const auto& w = higgs_sample();
  const auto grads = unit_gradients(w.binned.num_records());
  std::vector<std::uint32_t> rows(w.binned.num_records());
  std::iota(rows.begin(), rows.end(), 0);
  gbdt::Histogram hist(w.binned);
  hist.build(w.binned, rows, grads);
  const gbdt::SplitFinder finder;
  for (auto _ : state) {
    benchmark::DoNotOptimize(finder.find_best(hist, w.binned));
  }
  state.SetItemsProcessed(state.iterations() * w.binned.total_bins());
}
BENCHMARK(BM_SplitScan);

void BM_Partition(benchmark::State& state) {
  const auto& w = higgs_sample();
  const auto& tree = w.train.model.trees().front();
  std::vector<std::uint32_t> rows(w.binned.num_records());
  std::iota(rows.begin(), rows.end(), 0);
  const core::PredicateEngine engine{core::BoosterConfig{}};
  for (auto _ : state) {
    auto result = engine.run(w.binned, tree, tree.root(), rows);
    benchmark::DoNotOptimize(result.pred_true.size());
  }
  state.SetItemsProcessed(state.iterations() * rows.size());
}
BENCHMARK(BM_Partition);

// The trainer's step-3 kernel, gbdt::partition_to, on the root's best
// split over 2^18 fraud rows, in place with a caller scratch as Trainer
// runs it; the argument is the thread count. (BM_Partition above times
// core::PredicateEngine, the accelerator model, not this kernel.) A stable
// partition by the same split is idempotent, so every iteration after the
// first re-partitions an already partitioned span: the same rows and the
// same writes.
void BM_PartitionTo(benchmark::State& state) {
  static const gbdt::BinnedDataset data = gbdt::Binner().bin(
      workloads::synthesize(workloads::fraud_spec(), 1 << 18, 42));
  const std::uint64_t n = data.num_records();
  std::vector<std::uint32_t> rows(n);
  std::iota(rows.begin(), rows.end(), 0);
  // Logistic-loss gradients at a 0.5 prior: g = 0.5 - label, h = 0.25.
  std::vector<gbdt::GradientPair> grads(n);
  for (std::uint64_t r = 0; r < n; ++r) {
    grads[r] = gbdt::GradientPair{0.5f - data.labels()[r], 0.25f};
  }
  gbdt::Histogram hist(data);
  hist.build(data, rows, grads);
  const auto split = gbdt::SplitFinder().find_best(hist, data);
  if (!split) {
    state.SkipWithError("no admissible root split");
    return;
  }
  util::ThreadPool pool(static_cast<unsigned>(state.range(0)));
  std::vector<std::uint32_t> scratch(n);
  std::vector<std::uint64_t> chunk_counts(pool.num_threads() + 1);
  for (auto _ : state) {
    gbdt::partition_to(rows, rows, 0, n, split->left.count_u64(), data,
                       *split, pool, chunk_counts, scratch);
    benchmark::DoNotOptimize(rows.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_PartitionTo)->ArgName("threads")->Arg(1)->Arg(4);

void BM_TreeTraversal(benchmark::State& state) {
  const auto& w = higgs_sample();
  const core::TraversalEngine engine{core::BoosterConfig{}};
  const auto& tree = w.train.model.trees().front();
  for (auto _ : state) {
    auto result = engine.run(w.binned, tree);
    benchmark::DoNotOptimize(result.avg_path_length);
  }
  state.SetItemsProcessed(state.iterations() * w.binned.num_records());
}
BENCHMARK(BM_TreeTraversal);

// ---------------------------------------------------------- SIMD legs
// Each benchmark below takes a dispatch level as its argument (0=scalar,
// 1=avx2, 2=avx512) and repins the process-wide kernel table for its
// duration, so one run reports scalar-vs-wide side by side. Levels this
// host (or toolchain) lacks are skipped, not failed. Outputs are
// bit-identical across legs -- only the wall clock differs.

/// Resolves the level a SIMD leg requests into *out; returns false (after
/// flagging the skip) when this binary/host cannot execute it.
bool simd_leg_level(benchmark::State& state, util::simd::Level* out) {
  const auto lv = static_cast<util::simd::Level>(state.range(0));
  if (util::simd::kernels(lv).level != lv) {
    state.SkipWithError("dispatch level not supported on this host");
    return false;
  }
  *out = lv;
  return true;
}

void BM_SimdHistogramAdd(benchmark::State& state) {
  util::simd::Level lv;
  if (!simd_leg_level(state, &lv)) return;
  const util::simd::ScopedLevelForTesting scoped(lv);
  const auto& w = higgs_sample();
  const auto grads = unit_gradients(w.binned.num_records());
  std::vector<std::uint32_t> rows(w.binned.num_records());
  std::iota(rows.begin(), rows.end(), 0);
  gbdt::Histogram dst(w.binned);
  gbdt::Histogram src(w.binned);
  src.build(w.binned, rows, grads);
  for (auto _ : state) {
    dst.add(src);
    benchmark::DoNotOptimize(dst);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          dst.total_bins() * sizeof(gbdt::BinStats) * 2);
}
BENCHMARK(BM_SimdHistogramAdd)->ArgName("level")->Arg(0)->Arg(1)->Arg(2);

void BM_SimdHistogramSubtract(benchmark::State& state) {
  util::simd::Level lv;
  if (!simd_leg_level(state, &lv)) return;
  const util::simd::ScopedLevelForTesting scoped(lv);
  const auto& w = higgs_sample();
  const auto grads = unit_gradients(w.binned.num_records());
  std::vector<std::uint32_t> rows(w.binned.num_records());
  std::iota(rows.begin(), rows.end(), 0);
  gbdt::Histogram parent(w.binned);
  parent.build(w.binned, rows, grads);
  gbdt::Histogram sibling(w.binned);
  sibling.build(w.binned,
                std::span<const std::uint32_t>(rows).subspan(0, rows.size() / 2),
                grads);
  gbdt::Histogram scratch(w.binned);
  for (auto _ : state) {
    // The smaller-child trick's kernel: scratch = parent - sibling.
    scratch.subtract_from(parent, sibling);
    benchmark::DoNotOptimize(scratch);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          scratch.total_bins() * sizeof(gbdt::BinStats) * 3);
}
BENCHMARK(BM_SimdHistogramSubtract)->ArgName("level")->Arg(0)->Arg(1)->Arg(2);

void BM_SimdHistogramClear(benchmark::State& state) {
  util::simd::Level lv;
  if (!simd_leg_level(state, &lv)) return;
  const util::simd::ScopedLevelForTesting scoped(lv);
  const auto& w = higgs_sample();
  gbdt::Histogram hist(w.binned);
  for (auto _ : state) {
    hist.clear();
    benchmark::DoNotOptimize(hist);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          hist.total_bins() * sizeof(gbdt::BinStats));
}
BENCHMARK(BM_SimdHistogramClear)->ArgName("level")->Arg(0)->Arg(1)->Arg(2);

void BM_SimdQuantizeGather(benchmark::State& state) {
  util::simd::Level lv;
  if (!simd_leg_level(state, &lv)) return;
  const util::simd::ScopedLevelForTesting scoped(lv);
  constexpr std::size_t kRows = 16384;
  std::vector<gbdt::GradientPair> grads(kRows);
  for (std::size_t i = 0; i < kRows; ++i) {
    grads[i] = {static_cast<float>(i) * 1e-3f - 8.0f,
                static_cast<float>(i % 97) * 1e-2f};
  }
  std::vector<std::uint32_t> rows(kRows);
  std::iota(rows.begin(), rows.end(), 0);
  std::vector<double> qg(kRows), qh(kRows);
  const auto& ker = util::simd::kernels();
  for (auto _ : state) {
    ker.quantize_gather(reinterpret_cast<const float*>(grads.data()),
                        rows.data(), kRows, gbdt::kStatInvQuantum,
                        gbdt::kStatQuantum, qg.data(), qh.data());
    benchmark::DoNotOptimize(qg.data());
    benchmark::DoNotOptimize(qh.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kRows);
}
BENCHMARK(BM_SimdQuantizeGather)->ArgName("level")->Arg(0)->Arg(1)->Arg(2);

void BM_SimdHistogramBuild(benchmark::State& state) {
  util::simd::Level lv;
  if (!simd_leg_level(state, &lv)) return;
  const util::simd::ScopedLevelForTesting scoped(lv);
  const auto& w = higgs_sample();
  const auto grads = unit_gradients(w.binned.num_records());
  std::vector<std::uint32_t> rows(w.binned.num_records());
  std::iota(rows.begin(), rows.end(), 0);
  gbdt::Histogram hist(w.binned);
  for (auto _ : state) {
    hist.clear();
    hist.build(w.binned, rows, grads);
    benchmark::DoNotOptimize(hist.totals());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          rows.size() * w.binned.num_fields());
}
BENCHMARK(BM_SimdHistogramBuild)->ArgName("level")->Arg(0)->Arg(1)->Arg(2);

/// Serving-shaped sample for the prediction legs: a full-depth 48-tree
/// ensemble (higgs_sample's 4 trees fit in L1, where blocking is pure
/// overhead; the blocked path earns its keep once the ensemble's node
/// tables and the records' bin columns start missing in cache).
const workloads::WorkloadResult& predict_sample() {
  static const workloads::WorkloadResult result = [] {
    workloads::RunnerConfig cfg;
    cfg.sim_records = 16000;
    cfg.sim_trees = 48;
    return workloads::run_workload(workloads::spec_by_name("Higgs"), cfg);
  }();
  return result;
}

void BM_SimdPredictMany(benchmark::State& state) {
  util::simd::Level lv;
  if (!simd_leg_level(state, &lv)) return;
  const util::simd::ScopedLevelForTesting scoped(lv);
  const auto& w = predict_sample();
  const gbdt::FlatEnsemble flat(w.train.model);
  const std::uint64_t n = w.binned.num_records();
  std::vector<double> out(n);
  for (auto _ : state) {
    flat.predict_many(w.binned, 0, n, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_SimdPredictMany)->ArgName("level")->Arg(0)->Arg(1)->Arg(2);

void BM_PredictPerRecord(benchmark::State& state) {
  // Per-record Model::predict baseline for the BM_SimdPredictMany legs
  // (same records, same trees, one record at a time, no tiling).
  const auto& w = predict_sample();
  const std::uint64_t n = w.binned.num_records();
  std::vector<double> out(n);
  for (auto _ : state) {
    for (std::uint64_t r = 0; r < n; ++r) {
      out[r] = w.train.model.predict(w.binned, r);
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_PredictPerRecord);

void BM_DramStreaming(benchmark::State& state) {
  for (auto _ : state) {
    memsim::MemorySystem mem;
    std::uint64_t addr = 0;
    constexpr std::uint64_t kRequests = 20000;
    std::uint64_t issued = 0;
    while (mem.completed_requests() < kRequests) {
      for (int b = 0; b < 8 && issued < kRequests; ++b) {
        if (!mem.enqueue(addr, false)) break;
        ++addr;
        ++issued;
      }
      mem.tick();
    }
    benchmark::DoNotOptimize(mem.achieved_bandwidth());
  }
  state.SetItemsProcessed(state.iterations() * 20000);
}
BENCHMARK(BM_DramStreaming);

}  // namespace

BENCHMARK_MAIN();

// Sharded-training equivalence layer (ISSUE 4 acceptance): ShardedTrainer
// must produce *bit-identical* output to the single-shard Trainer at every
// tested (shards, threads) combination -- tree structure, split decisions,
// leaf weights, gains, raw predictions, and per-tree training losses all
// compare with EXPECT_EQ, no tolerances. The guarantee rests on two
// properties this file also exercises end to end:
//   * quantized-exact histogram accumulation (gbdt::quantize_stat) makes
//     the per-shard Histogram::add merge order-insensitive, and
//   * stable per-shard partitions over contiguous row shards reproduce the
//     single-arena row order when concatenated in shard order.
// Also asserts the per-shard steady-state allocation-free property and the
// emitted StepTrace equality (performance models see the same workload
// regardless of sharding).
#include <gtest/gtest.h>

#include <vector>

#include "gbdt/binning.h"
#include "gbdt/sharded.h"
#include "gbdt/trainer.h"
#include "trace/step_trace.h"
#include "workloads/synth.h"

namespace booster::gbdt {
namespace {

BinnedDataset random_binned(std::uint64_t n, std::uint64_t seed) {
  workloads::DatasetSpec spec;
  spec.name = "sharded";
  spec.nominal_records = n;
  spec.numeric_fields = 5;
  spec.categorical_cardinalities = {9, 4};
  spec.missing_rate = 0.12;
  spec.loss = "logistic";
  return Binner().bin(workloads::synthesize(spec, n, seed));
}

TrainerConfig base_config(std::uint32_t trees = 5) {
  TrainerConfig cfg;
  cfg.num_trees = trees;
  cfg.max_depth = 5;
  cfg.loss = "logistic";
  cfg.num_threads = 1;
  return cfg;
}

void expect_models_bit_identical(const Model& got, const Model& ref,
                                 const std::string& context) {
  ASSERT_EQ(got.num_trees(), ref.num_trees()) << context;
  for (std::uint32_t t = 0; t < ref.num_trees(); ++t) {
    const Tree& a = got.trees()[t];
    const Tree& b = ref.trees()[t];
    ASSERT_EQ(a.num_nodes(), b.num_nodes()) << context << " tree " << t;
    for (std::uint32_t id = 0; id < a.num_nodes(); ++id) {
      const TreeNode& x = a.node(static_cast<std::int32_t>(id));
      const TreeNode& y = b.node(static_cast<std::int32_t>(id));
      ASSERT_EQ(x.is_leaf, y.is_leaf) << context;
      ASSERT_EQ(x.field, y.field) << context;
      ASSERT_EQ(x.kind, y.kind) << context;
      ASSERT_EQ(x.threshold_bin, y.threshold_bin) << context;
      ASSERT_EQ(x.default_left, y.default_left) << context;
      ASSERT_EQ(x.left, y.left) << context;
      ASSERT_EQ(x.right, y.right) << context;
      // Bit-identical, not approximately equal: quantized-exact merges
      // remove the FP-reduction-order caveat entirely.
      ASSERT_EQ(x.weight, y.weight)
          << context << " tree " << t << " node " << id;
      ASSERT_EQ(x.gain, y.gain) << context << " tree " << t << " node " << id;
    }
  }
}

void expect_results_bit_identical(const TrainResult& got,
                                  const TrainResult& ref,
                                  const BinnedDataset& data,
                                  const std::string& context) {
  expect_models_bit_identical(got.model, ref.model, context);
  ASSERT_EQ(got.tree_stats.size(), ref.tree_stats.size()) << context;
  for (std::size_t t = 0; t < ref.tree_stats.size(); ++t) {
    EXPECT_EQ(got.tree_stats[t].leaves, ref.tree_stats[t].leaves) << context;
    EXPECT_EQ(got.tree_stats[t].depth, ref.tree_stats[t].depth) << context;
    EXPECT_EQ(got.tree_stats[t].train_loss, ref.tree_stats[t].train_loss)
        << context << " tree " << t;
  }
  EXPECT_EQ(got.avg_leaf_depth, ref.avg_leaf_depth) << context;
  EXPECT_EQ(got.early_stopped, ref.early_stopped) << context;
  for (std::uint64_t r = 0; r < data.num_records(); r += 89) {
    EXPECT_EQ(got.model.predict_raw(data, r), ref.model.predict_raw(data, r))
        << context << " record " << r;
  }
}

TEST(ShardRowRange, PartitionsContiguouslyIncludingUnevenSizes) {
  for (const std::uint64_t n : {1ull, 7ull, 6001ull, 50000ull}) {
    for (const std::uint32_t shards : {1u, 2u, 3u, 8u}) {
      if (shards > n) continue;
      std::uint64_t expect_begin = 0;
      for (std::uint32_t s = 0; s < shards; ++s) {
        const auto [begin, end] = shard_row_range(n, shards, s);
        EXPECT_EQ(begin, expect_begin) << n << "/" << shards << "/" << s;
        EXPECT_LE(end - begin, n / shards + 1);
        EXPECT_GE(end, begin);
        expect_begin = end;
      }
      EXPECT_EQ(expect_begin, n);
    }
  }
}

TEST(ShardedEquivalence, BitIdenticalAcrossShardAndThreadCounts) {
  // n = 6001 is divisible by none of the tested shard counts, so every
  // sharding here has uneven shard sizes.
  const auto data = random_binned(6001, 17);
  const auto ref = Trainer(base_config()).train(data);

  for (const std::uint32_t shards : {1u, 2u, 3u, 8u}) {
    for (const unsigned threads : {1u, 2u, 8u}) {
      TrainerConfig cfg = base_config();
      cfg.num_shards = shards;
      cfg.num_threads = threads;
      const auto got = ShardedTrainer(cfg).train(data);
      const std::string context =
          std::to_string(shards) + " shards / " + std::to_string(threads) +
          " threads";
      expect_results_bit_identical(got, ref, data, context);
      EXPECT_EQ(got.hot_path.shards, shards) << context;
      EXPECT_EQ(got.hot_path.threads, threads) << context;
      ASSERT_EQ(got.hot_path.per_shard.size(), shards) << context;
      std::uint64_t rows = 0;
      for (const auto& ss : got.hot_path.per_shard) rows += ss.rows;
      EXPECT_EQ(rows, data.num_records()) << context;
      // K merge adds per merged node histogram, none on the single path.
      EXPECT_EQ(got.hot_path.histogram_merges % shards, 0u) << context;
      EXPECT_GT(got.hot_path.histogram_merges, 0u) << context;
    }
  }
}

TEST(ShardedEquivalence, TrainerDelegatesWhenNumShardsExceedsOne) {
  const auto data = random_binned(4000, 23);
  const auto ref = Trainer(base_config()).train(data);

  TrainerConfig cfg = base_config();
  cfg.num_shards = 3;
  cfg.num_threads = 2;
  const auto via_trainer = Trainer(cfg).train(data);
  expect_results_bit_identical(via_trainer, ref, data, "delegated 3 shards");
  EXPECT_EQ(via_trainer.hot_path.shards, 3u);
  ASSERT_EQ(via_trainer.hot_path.per_shard.size(), 3u);
}

TEST(ShardedEquivalence, EmittedTracesIdenticalToSingleShard) {
  // Perf models must see the *same* workload whether or not training was
  // sharded: event streams compare field by field.
  const auto data = random_binned(3000, 31);
  trace::StepTrace ref_trace;
  trace::WorkloadInfo ref_info;
  const auto ref = Trainer(base_config(3)).train(data, &ref_trace, &ref_info);

  TrainerConfig cfg = base_config(3);
  cfg.num_shards = 4;
  trace::StepTrace trace;
  trace::WorkloadInfo info;
  const auto got = ShardedTrainer(cfg).train(data, &trace, &info);
  expect_results_bit_identical(got, ref, data, "traced 4 shards");

  ASSERT_EQ(trace.events().size(), ref_trace.events().size());
  for (std::size_t i = 0; i < ref_trace.events().size(); ++i) {
    const auto& a = trace.events()[i];
    const auto& b = ref_trace.events()[i];
    EXPECT_EQ(a.kind, b.kind) << "event " << i;
    EXPECT_EQ(a.tree, b.tree) << "event " << i;
    EXPECT_EQ(a.depth, b.depth) << "event " << i;
    EXPECT_EQ(a.records, b.records) << "event " << i;
    EXPECT_EQ(a.fields_touched, b.fields_touched) << "event " << i;
    EXPECT_EQ(a.record_fields, b.record_fields) << "event " << i;
    EXPECT_EQ(a.bins_scanned, b.bins_scanned) << "event " << i;
    EXPECT_EQ(a.histograms, b.histograms) << "event " << i;
    EXPECT_EQ(a.avg_path_length, b.avg_path_length) << "event " << i;
    EXPECT_EQ(a.used_sibling_subtraction, b.used_sibling_subtraction)
        << "event " << i;
  }
  EXPECT_EQ(info.avg_leaf_depth, ref_info.avg_leaf_depth);
  EXPECT_EQ(info.total_bins, ref_info.total_bins);
}

TEST(ShardedEquivalence, LevelByLevelGrowthAlsoBitIdentical) {
  const auto data = random_binned(3000, 41);
  TrainerConfig cfg = base_config(3);
  cfg.growth = GrowthOrder::kLevelByLevel;
  trace::StepTrace ref_trace;
  const auto ref = Trainer(cfg).train(data, &ref_trace);

  TrainerConfig scfg = cfg;
  scfg.num_shards = 2;
  trace::StepTrace trace;
  const auto got = ShardedTrainer(scfg).train(data, &trace);
  expect_results_bit_identical(got, ref, data, "level-by-level 2 shards");
  ASSERT_EQ(trace.events().size(), ref_trace.events().size());
}

TEST(ShardedEquivalence, EarlyStoppingDecisionsIdentical) {
  // Step-6 decisions hinge on train_loss comparisons; quantized loss sums
  // make those bit-identical, so sharded runs stop after the same tree.
  const auto data = random_binned(3000, 47);
  TrainerConfig cfg = base_config(30);
  cfg.early_stop_rel_improvement = 0.02;
  cfg.early_stop_patience = 2;
  const auto ref = Trainer(cfg).train(data);

  TrainerConfig scfg = cfg;
  scfg.num_shards = 4;
  const auto got = ShardedTrainer(scfg).train(data);
  EXPECT_EQ(got.early_stopped, ref.early_stopped);
  ASSERT_EQ(got.model.num_trees(), ref.model.num_trees());
  expect_results_bit_identical(got, ref, data, "early stopping 4 shards");
}

TEST(ShardedEquivalence, SteadyStateIsAllocationFreePerShard) {
  const auto data = random_binned(4000, 53);
  for (const std::uint32_t shards : {2u, 3u}) {
    TrainerConfig cfg = base_config(/*trees=*/3);
    cfg.num_shards = shards;
    const auto short_run = ShardedTrainer(cfg).train(data);
    cfg.num_trees = 12;
    const auto long_run = ShardedTrainer(cfg).train(data);

    // More trees request more node histograms and more merges...
    EXPECT_GT(long_run.hot_path.histogram_acquires,
              short_run.hot_path.histogram_acquires);
    EXPECT_GT(long_run.hot_path.histogram_merges,
              short_run.hot_path.histogram_merges);
    // ...but every shard's pool (and the merged pool, via the aggregate)
    // stops allocating once warm.
    EXPECT_EQ(long_run.hot_path.histogram_allocations,
              short_run.hot_path.histogram_allocations);
    ASSERT_EQ(long_run.hot_path.per_shard.size(), shards);
    for (std::uint32_t s = 0; s < shards; ++s) {
      EXPECT_EQ(long_run.hot_path.per_shard[s].histogram_allocations,
                short_run.hot_path.per_shard[s].histogram_allocations)
          << "shard " << s;
      // A row arena and a partition scratch per shard, uint32 row ids,
      // plus the step-5 float leaf delta per row, shard-sized.
      EXPECT_EQ(long_run.hot_path.per_shard[s].arena_bytes,
                2 * long_run.hot_path.per_shard[s].rows *
                        sizeof(std::uint32_t) +
                    long_run.hot_path.per_shard[s].rows * sizeof(float))
          << "shard " << s;
    }
    EXPECT_EQ(long_run.hot_path.arena_bytes,
              2 * data.num_records() * sizeof(std::uint32_t) +
                  data.num_records() * sizeof(float));
  }
}

TEST(ShardedEquivalence, SubChunkingKeepsSurplusThreadsBusyBitIdentically) {
  // threads > shards used to idle the surplus (each shard's work was one
  // serial task); per-shard sub-chunking splits every shard task into
  // ceil(threads / shards) contiguous row chunks. Exactness is grouping-
  // independent, so the model must not move by a bit -- and the stats
  // must show the surplus actually engaged.
  const auto data = random_binned(6001, 61);
  const auto ref = Trainer(base_config()).train(data);

  TrainerConfig cfg = base_config();
  cfg.num_shards = 2;
  cfg.num_threads = 8;
  const auto got = ShardedTrainer(cfg).train(data);
  expect_results_bit_identical(got, ref, data, "K=2 T=8 sub-chunked");
  ASSERT_EQ(got.hot_path.per_shard.size(), 2u);
  for (const auto& ss : got.hot_path.per_shard) {
    // ceil(8 / 2) = 4 sub-chunks per shard task.
    EXPECT_EQ(ss.sub_chunks, 4u);
  }
  // No idle-thread regression: shard tasks x sub-chunks covers the pool.
  EXPECT_GE(got.hot_path.shards * got.hot_path.per_shard[0].sub_chunks,
            got.hot_path.threads);

  // threads <= shards keeps whole-shard tasks (sub_chunks == 1).
  TrainerConfig flat = base_config();
  flat.num_shards = 8;
  flat.num_threads = 8;
  const auto even = ShardedTrainer(flat).train(data);
  expect_results_bit_identical(even, ref, data, "K=8 T=8 whole-shard");
  for (const auto& ss : even.hot_path.per_shard) {
    EXPECT_EQ(ss.sub_chunks, 1u);
  }
}

TEST(ShardedEquivalence, SubChunkedRunsStayAllocationFreePerShard) {
  // The allocation-free property must survive sub-chunking: each shard's
  // pool warms up to its sub-chunk partials and then stops allocating.
  const auto data = random_binned(4000, 67);
  TrainerConfig cfg = base_config(/*trees=*/3);
  cfg.num_shards = 2;
  cfg.num_threads = 8;
  const auto short_run = ShardedTrainer(cfg).train(data);
  cfg.num_trees = 12;
  const auto long_run = ShardedTrainer(cfg).train(data);
  EXPECT_GT(long_run.hot_path.histogram_acquires,
            short_run.hot_path.histogram_acquires);
  EXPECT_EQ(long_run.hot_path.histogram_allocations,
            short_run.hot_path.histogram_allocations);
  ASSERT_EQ(long_run.hot_path.per_shard.size(), 2u);
  for (std::uint32_t s = 0; s < 2; ++s) {
    EXPECT_EQ(long_run.hot_path.per_shard[s].histogram_allocations,
              short_run.hot_path.per_shard[s].histogram_allocations)
        << "shard " << s;
  }
}

TEST(ShardedEquivalence, MoreShardsThanRecordsClamps) {
  const auto data = random_binned(11, 59);
  TrainerConfig cfg = base_config(2);
  cfg.num_shards = 64;
  cfg.min_node_records = 2;
  const auto got = ShardedTrainer(cfg).train(data);
  EXPECT_EQ(got.hot_path.shards, 11u);
  const auto ref = Trainer(base_config(2)).train(data);
  expect_results_bit_identical(got, ref, data, "clamped shards");
}

}  // namespace
}  // namespace booster::gbdt

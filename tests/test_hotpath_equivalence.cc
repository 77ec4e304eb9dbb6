// Hot-path equivalence properties (ISSUE 1 acceptance): the row-major /
// threaded histogram build and the in-place arena partition must produce
// the same results as the seed's scalar reference -- counts and row orders
// exactly, G/H sums within FP-reduction tolerance, and whole trained
// models with identical structure/split decisions at 1, 2, and 8 threads.
// Also asserts the steady-state allocation-free property: histogram pool
// misses stop growing with more trees, and partitioning uses one arena
// plus one scratch of the same size. ArenaPartition* cover the partition
// kernel itself: in place and out of place, edge span lengths and splits,
// and the abort on a wrong left count.
// LeafSpanStep5 checks step 5 -- resolved from the partition's leaf spans
// rather than a tree traversal -- against an independent per-record
// Tree::predict reference; the ascending-span test pins the invariant its
// row-range scatter relies on, and ShardGroupReset checks the warm-start
// replay's tile-major reset -- with and without a carried prediction
// prefix -- against a per-tree reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>
#include <span>
#include <tuple>
#include <vector>

#include "gbdt/binning.h"
#include "gbdt/histogram.h"
#include "gbdt/hotpath.h"
#include "gbdt/shard_ops.h"
#include "gbdt/split.h"
#include "gbdt/trainer.h"
#include "util/rng.h"
#include "util/simd.h"
#include "util/thread_pool.h"
#include "workloads/synth.h"

namespace booster::gbdt {
namespace {

BinnedDataset random_binned(std::uint64_t n, std::uint64_t seed) {
  workloads::DatasetSpec spec;
  spec.name = "hotpath";
  spec.nominal_records = n;
  spec.numeric_fields = 6;
  spec.categorical_cardinalities = {7, 3};
  spec.missing_rate = 0.15;
  spec.loss = "logistic";
  return Binner().bin(workloads::synthesize(spec, n, seed));
}

std::vector<GradientPair> random_gradients(std::uint64_t n,
                                           std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<GradientPair> g(n);
  for (auto& gp : g) {
    gp.g = static_cast<float>(rng.normal());
    gp.h = static_cast<float>(rng.uniform(0.1, 1.0));
  }
  return g;
}

void expect_histograms_equivalent(const Histogram& got, const Histogram& ref) {
  ASSERT_EQ(got.num_fields(), ref.num_fields());
  for (std::uint32_t f = 0; f < got.num_fields(); ++f) {
    const auto a = got.field(f);
    const auto b = ref.field(f);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      // Counts are integer additions: exact at any accumulation order.
      EXPECT_DOUBLE_EQ(a[i].count, b[i].count) << "field " << f << " bin " << i;
      EXPECT_NEAR(a[i].g, b[i].g, 1e-6);
      EXPECT_NEAR(a[i].h, b[i].h, 1e-6);
    }
  }
}

TEST(HotPathEquivalence, RowMajorBuildMatchesColumnGatherReference) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const auto data = random_binned(3000, seed);
    const auto grads = random_gradients(data.num_records(), seed + 100);
    // An arbitrary row subset in arbitrary order (as mid-tree nodes see).
    util::Rng rng(seed + 200);
    std::vector<std::uint32_t> rows;
    for (std::uint32_t r = 0; r < data.num_records(); ++r) {
      if (rng.uniform(0.0, 1.0) < 0.6) rows.push_back(r);
    }
    for (std::size_t i = rows.size(); i > 1; --i) {
      std::swap(rows[i - 1], rows[rng.next_below(i)]);
    }

    Histogram row_major(data), reference(data);
    row_major.build(data, rows, grads);
    reference.build_reference(data, rows, grads);
    expect_histograms_equivalent(row_major, reference);
  }
}

TEST(HotPathEquivalence, ParallelBuildMatchesReferenceAt1_2_8Threads) {
  const auto data = random_binned(5000, 7);
  const auto grads = random_gradients(data.num_records(), 8);
  std::vector<std::uint32_t> rows(data.num_records());
  std::iota(rows.begin(), rows.end(), 0u);

  Histogram reference(data);
  reference.build_reference(data, rows, grads);

  for (const unsigned threads : {1u, 2u, 8u}) {
    util::ThreadPool pool(threads);
    HistogramPool hist_pool(data);
    std::vector<Histogram> partials_scratch;
    Histogram got = hist_pool.acquire();
    build_histogram_parallel(got, data, rows, grads, pool, hist_pool,
                             partials_scratch);
    expect_histograms_equivalent(got, reference);
  }
}

TEST(HotPathEquivalence, ArenaPartitionMatchesScalarReferenceExactly) {
  for (const std::uint64_t seed : {11ull, 12ull}) {
    const auto data = random_binned(4000, seed);
    const std::uint64_t n = data.num_records();

    // Candidate splits covering numeric/categorical and both default
    // directions, on a mid-array span (as interior tree nodes see).
    std::vector<SplitInfo> splits;
    for (std::uint32_t f = 0; f < data.num_fields(); ++f) {
      SplitInfo s;
      s.field = f;
      const bool numeric = data.field_bins(f).kind == FieldKind::kNumeric;
      s.kind = numeric ? PredicateKind::kNumericLE
                       : PredicateKind::kCategoryEqual;
      s.threshold_bin =
          static_cast<std::uint16_t>(data.field_bins(f).num_bins / 2);
      if (s.threshold_bin == 0) s.threshold_bin = 1;
      s.default_left = (f % 2) == 0;
      splits.push_back(s);
    }

    for (const auto& split : splits) {
      const std::uint64_t begin = n / 5;
      const std::uint64_t end = n - n / 7;
      std::vector<std::uint32_t> initial(n);
      std::iota(initial.begin(), initial.end(), 0u);
      // Shuffle so the span holds an arbitrary permutation.
      util::Rng rng(seed + split.field);
      for (std::size_t i = n; i > 1; --i) {
        std::swap(initial[i - 1], initial[rng.next_below(i)]);
      }

      // Scalar reference: the seed's two-vector stable partition.
      const auto& col = data.column(split.field);
      std::vector<std::uint32_t> expect_left, expect_right;
      for (std::uint64_t i = begin; i < end; ++i) {
        const std::uint32_t r = initial[i];
        (split_goes_left(split, col[r]) ? expect_left : expect_right)
            .push_back(r);
      }

      for (const unsigned threads : {1u, 2u, 8u}) {
        util::ThreadPool pool(threads);
        const std::vector<std::uint32_t> src = initial;
        std::vector<std::uint32_t> dst(n, 0xFFFFFFFFu);
        std::vector<std::uint64_t> chunk_counts(pool.num_threads() + 1);
        const std::uint64_t n_left = expect_left.size();
        partition_to(src, dst, begin, end, n_left, data, split, pool,
                     chunk_counts);
        for (std::uint64_t i = 0; i < n_left; ++i) {
          ASSERT_EQ(dst[begin + i], expect_left[i]);
        }
        for (std::uint64_t i = 0; i < expect_right.size(); ++i) {
          ASSERT_EQ(dst[begin + n_left + i], expect_right[i]);
        }
        // Source and the destination outside the span: untouched.
        for (std::uint64_t i = 0; i < n; ++i) {
          ASSERT_EQ(src[i], initial[i]);
        }
        for (std::uint64_t i = 0; i < begin; ++i) {
          ASSERT_EQ(dst[i], 0xFFFFFFFFu);
        }
        for (std::uint64_t i = end; i < n; ++i) {
          ASSERT_EQ(dst[i], 0xFFFFFFFFu);
        }
      }
    }
  }
}

// Splits for the in-place partition test: every field at a middle
// threshold with both default directions, plus an all-left and an
// all-right split (a numeric field at its last bin with missing routed
// left, and at bin 0 with missing routed right).
std::vector<SplitInfo> partition_test_splits(const BinnedDataset& data) {
  std::vector<SplitInfo> splits;
  for (std::uint32_t f = 0; f < data.num_fields(); ++f) {
    SplitInfo s;
    s.field = f;
    const bool numeric = data.field_bins(f).kind == FieldKind::kNumeric;
    s.kind =
        numeric ? PredicateKind::kNumericLE : PredicateKind::kCategoryEqual;
    s.threshold_bin =
        static_cast<std::uint16_t>(data.field_bins(f).num_bins / 2);
    if (s.threshold_bin == 0) s.threshold_bin = 1;
    for (const bool default_left : {false, true}) {
      s.default_left = default_left;
      splits.push_back(s);
    }
  }
  SplitInfo all_left;
  all_left.field = 0;
  all_left.kind = PredicateKind::kNumericLE;
  all_left.threshold_bin =
      static_cast<std::uint16_t>(data.field_bins(0).num_bins - 1);
  all_left.default_left = true;
  splits.push_back(all_left);
  SplitInfo all_right = all_left;
  all_right.threshold_bin = 0;
  all_right.default_left = false;
  splits.push_back(all_right);
  return splits;
}

TEST(HotPathEquivalence, ArenaPartitionInPlaceMatchesScalarReferenceExactly) {
  const auto data = random_binned(40000, 13);
  ASSERT_EQ(data.field_bins(0).kind, FieldKind::kNumeric);
  const std::uint64_t n = data.num_records();
  std::vector<std::uint32_t> initial(n);
  std::iota(initial.begin(), initial.end(), 0u);
  util::Rng rng(14);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(initial[i - 1], initial[rng.next_below(i)]);
  }
  constexpr std::uint32_t kUnset = 0xFFFFFFFFu;
  const std::uint64_t g = kPartitionGrain;
  const std::vector<SplitInfo> splits = partition_test_splits(data);
  bool saw_all_left = false;
  bool saw_all_right = false;

  // Span lengths below, at and just above the grain, and multi-chunk
  // lengths that do not divide evenly into chunks.
  const std::uint64_t counts[] = {1,         g - 1,     g,         g + 1,
                                  2 * g,     2 * g + 1, 3 * g + 7, 9 * g + 5};
  for (const unsigned threads : {1u, 2u, 3u, 8u}) {
    util::ThreadPool pool(threads);
    std::vector<std::uint64_t> chunk_counts(pool.num_threads() + 1);
    for (const std::uint64_t count : counts) {
      const std::uint64_t begin = (n - count) / 3;
      const std::uint64_t end = begin + count;
      for (const auto& split : splits) {
        const auto& col = data.column(split.field);
        std::vector<std::uint32_t> expect_left, expect_right;
        for (std::uint64_t i = begin; i < end; ++i) {
          const std::uint32_t r = initial[i];
          (split_goes_left(split, col[r]) ? expect_left : expect_right)
              .push_back(r);
        }
        saw_all_left |= count > 2 * g && expect_right.empty();
        saw_all_right |= count > 2 * g && expect_left.empty();
        const std::uint64_t n_left = expect_left.size();

        // In place with the caller's scratch (the trainers' form) and out
        // of place with the kernel's own per-call scratch.
        for (const bool in_place : {true, false}) {
          SCOPED_TRACE(::testing::Message()
                       << "count " << count << " field " << split.field
                       << " threshold " << split.threshold_bin
                       << " default_left " << split.default_left
                       << " threads " << threads << " in_place "
                       << in_place);
          std::vector<std::uint32_t> arena = initial;
          std::vector<std::uint32_t> dst(n, kUnset);
          std::vector<std::uint32_t> scratch(n, kUnset);
          if (in_place) {
            partition_to(arena, arena, begin, end, n_left, data, split, pool,
                         chunk_counts, scratch);
          } else {
            partition_to(arena, dst, begin, end, n_left, data, split, pool,
                         chunk_counts);
          }
          const std::vector<std::uint32_t>& out = in_place ? arena : dst;
          ASSERT_TRUE(std::equal(expect_left.begin(), expect_left.end(),
                                 out.begin() + begin));
          ASSERT_TRUE(std::equal(expect_right.begin(), expect_right.end(),
                                 out.begin() + begin + n_left));
          // Rows outside [begin, end) are untouched in the destination,
          // and the scratch is written only inside [begin, end).
          const std::vector<std::uint32_t> untouched =
              in_place ? initial : std::vector<std::uint32_t>(n, kUnset);
          ASSERT_TRUE(std::equal(out.begin(), out.begin() + begin,
                                 untouched.begin()));
          ASSERT_TRUE(std::equal(out.begin() + end, out.end(),
                                 untouched.begin() + end));
          const auto unset = [](std::uint32_t v) { return v == kUnset; };
          ASSERT_TRUE(
              std::all_of(scratch.begin(), scratch.begin() + begin, unset));
          ASSERT_TRUE(std::all_of(scratch.begin() + end, scratch.end(), unset));
          if (!in_place) {
            ASSERT_EQ(arena, initial);
          }
        }
      }
    }
  }
  EXPECT_TRUE(saw_all_left);
  EXPECT_TRUE(saw_all_right);
}

TEST(ArenaPartitionDeathTest, WrongLeftCountAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const auto data = random_binned(8 * kPartitionGrain, 15);
  const std::uint64_t n = data.num_records();
  SplitInfo split;
  split.field = 0;
  split.kind = PredicateKind::kNumericLE;
  split.threshold_bin =
      static_cast<std::uint16_t>(data.field_bins(0).num_bins / 2);
  const auto& col = data.column(0);
  std::uint64_t n_left = 0;
  for (std::uint64_t r = 0; r < n; ++r) n_left += split_goes_left(split, col[r]);
  ASSERT_GT(n_left, 0u);
  ASSERT_LT(n_left, n);

  // One thread takes the serial path; four threads split the span into
  // four chunks. An n_left off by one either way must abort on both.
  for (const unsigned threads : {1u, 4u}) {
    util::ThreadPool pool(threads);
    ASSERT_EQ(pool.num_chunks(n, kPartitionGrain), threads);
    for (const std::uint64_t wrong : {n_left - 1, n_left + 1}) {
      std::vector<std::uint32_t> arena(n);
      std::iota(arena.begin(), arena.end(), 0u);
      std::vector<std::uint32_t> scratch(n);
      std::vector<std::uint64_t> chunk_counts(pool.num_threads() + 1);
      EXPECT_DEATH(partition_to(arena, arena, 0, n, wrong, data, split, pool,
                                chunk_counts, scratch),
                   "partition disagrees with the split's bucket counts");
    }
  }
}

TrainResult train_with_threads(const BinnedDataset& data, unsigned threads,
                               std::uint32_t trees = 6) {
  TrainerConfig cfg;
  cfg.num_trees = trees;
  cfg.max_depth = 5;
  cfg.loss = "logistic";
  cfg.num_threads = threads;
  return Trainer(cfg).train(data);
}

TEST(HotPathEquivalence, TrainedModelsIdenticalAcross1_2_8Threads) {
  for (const std::uint64_t seed : {21ull, 22ull}) {
    const auto data = random_binned(6000, seed);
    const auto ref = train_with_threads(data, 1);
    for (const unsigned threads : {2u, 8u}) {
      const auto got = train_with_threads(data, threads);
      ASSERT_EQ(got.model.num_trees(), ref.model.num_trees());
      for (std::uint32_t t = 0; t < ref.model.num_trees(); ++t) {
        const Tree& a = got.model.trees()[t];
        const Tree& b = ref.model.trees()[t];
        ASSERT_EQ(a.num_nodes(), b.num_nodes()) << "tree " << t;
        for (std::uint32_t id = 0; id < a.num_nodes(); ++id) {
          const TreeNode& x = a.node(static_cast<std::int32_t>(id));
          const TreeNode& y = b.node(static_cast<std::int32_t>(id));
          // Split decisions are exact across thread counts.
          ASSERT_EQ(x.is_leaf, y.is_leaf);
          ASSERT_EQ(x.field, y.field);
          ASSERT_EQ(x.kind, y.kind);
          ASSERT_EQ(x.threshold_bin, y.threshold_bin);
          ASSERT_EQ(x.default_left, y.default_left);
          ASSERT_EQ(x.left, y.left);
          ASSERT_EQ(x.right, y.right);
          // Weights/gains only differ by FP reduction order.
          EXPECT_NEAR(x.weight, y.weight, 1e-9);
          EXPECT_NEAR(x.gain, y.gain, 1e-6);
        }
      }
      for (std::uint64_t r = 0; r < data.num_records(); r += 97) {
        EXPECT_NEAR(got.model.predict_raw(data, r),
                    ref.model.predict_raw(data, r), 1e-6);
      }
      EXPECT_EQ(got.hot_path.threads, threads);
    }
  }
}

TEST(HotPathEquivalence, SteadyStateIsAllocationFree) {
  const auto data = random_binned(4000, 31);
  for (const unsigned threads : {1u, 4u}) {
    const auto short_run = train_with_threads(data, threads, /*trees=*/3);
    const auto long_run = train_with_threads(data, threads, /*trees=*/12);
    // More trees request more node histograms...
    EXPECT_GT(long_run.hot_path.histogram_acquires,
              short_run.hot_path.histogram_acquires);
    // ...but fresh buffer allocations stop once the pool is warm: the
    // per-node Histogram(data) of the seed is gone.
    EXPECT_EQ(long_run.hot_path.histogram_allocations,
              short_run.hot_path.histogram_allocations);
    // Partitioning uses exactly one persistent arena + scratch (uint32
    // row indices), not per-node row vectors; step 5 adds one persistent
    // float leaf delta per record.
    EXPECT_EQ(long_run.hot_path.arena_bytes,
              2 * data.num_records() * sizeof(std::uint32_t) +
                  data.num_records() * sizeof(float));
  }
}

TrainResult train_at_level(const BinnedDataset& data, unsigned threads,
                           std::uint32_t shards, util::simd::Level level) {
  const util::simd::ScopedLevelForTesting scoped(level);
  TrainerConfig cfg;
  cfg.num_trees = 5;
  cfg.max_depth = 5;
  cfg.loss = "logistic";
  cfg.num_threads = threads;
  cfg.num_shards = shards;
  return Trainer(cfg).train(data);
}

// The SIMD kernels perform the same IEEE operations elementwise as the
// scalar loops (util/simd.h), so trained models must match the scalar
// reference *bit for bit* -- EXPECT_EQ on weights and gains, not
// tolerances -- at every dispatch level, thread count, and shard count.
// Levels this host cannot execute are skipped, not failed.
TEST(HotPathEquivalence, TrainedModelsBitIdenticalAcrossSimdLevels) {
  const auto data = random_binned(4000, 41);
  for (const unsigned threads : {1u, 8u}) {
    for (const std::uint32_t shards : {1u, 3u}) {
      const auto ref =
          train_at_level(data, threads, shards, util::simd::Level::kScalar);
      EXPECT_STREQ(ref.hot_path.simd, "scalar");
      for (const auto level :
           {util::simd::Level::kAvx2, util::simd::Level::kAvx512}) {
        if (util::simd::kernels(level).level != level) continue;  // skip
        const auto got = train_at_level(data, threads, shards, level);
        EXPECT_STREQ(got.hot_path.simd, util::simd::level_name(level));
        ASSERT_EQ(got.model.num_trees(), ref.model.num_trees())
            << "threads=" << threads << " shards=" << shards
            << " level=" << util::simd::level_name(level);
        for (std::uint32_t t = 0; t < ref.model.num_trees(); ++t) {
          const Tree& a = got.model.trees()[t];
          const Tree& b = ref.model.trees()[t];
          ASSERT_EQ(a.num_nodes(), b.num_nodes()) << "tree " << t;
          for (std::uint32_t id = 0; id < a.num_nodes(); ++id) {
            const TreeNode& x = a.node(static_cast<std::int32_t>(id));
            const TreeNode& y = b.node(static_cast<std::int32_t>(id));
            ASSERT_EQ(x.is_leaf, y.is_leaf);
            ASSERT_EQ(x.field, y.field);
            ASSERT_EQ(x.kind, y.kind);
            ASSERT_EQ(x.threshold_bin, y.threshold_bin);
            ASSERT_EQ(x.default_left, y.default_left);
            ASSERT_EQ(x.left, y.left);
            ASSERT_EQ(x.right, y.right);
            EXPECT_EQ(x.weight, y.weight) << "tree " << t << " node " << id;
            EXPECT_EQ(x.gain, y.gain) << "tree " << t << " node " << id;
          }
        }
        ASSERT_EQ(got.tree_stats.size(), ref.tree_stats.size());
        for (std::size_t t = 0; t < ref.tree_stats.size(); ++t) {
          EXPECT_EQ(got.tree_stats[t].train_loss, ref.tree_stats[t].train_loss);
        }
        for (std::uint64_t r = 0; r < data.num_records(); r += 41) {
          EXPECT_EQ(got.model.predict_raw(data, r),
                    ref.model.predict_raw(data, r));
        }
      }
    }
  }
}

TEST(HotPathEquivalence, CountU64RoundTripsExactCounts) {
  BinStats s;
  s.count = 12345.0;
  EXPECT_EQ(s.count_u64(), 12345u);
  s.count = 0.0;
  EXPECT_EQ(s.count_u64(), 0u);
}

// Step 5 reads each record's leaf off the arena spans the partitions left
// behind. The reference here never looks at spans: it re-accumulates every
// record's float prediction tree by tree with Tree::predict, and counts
// hops with Tree::path_length. Per-tree train_loss (quantized terms, exact
// in any order) and the kTraversal event's path length must match it
// exactly. Trees of the init model are replayed, not grown, and carry
// placeholder stats and no event.
void expect_step5_matches_reference(const BinnedDataset& data,
                                    const TrainerConfig& cfg,
                                    const TrainResult& result,
                                    const trace::StepTrace& trace) {
  const std::uint64_t n = data.num_records();
  const std::uint32_t replayed =
      cfg.init_model == nullptr ? 0 : cfg.init_model->num_trees();
  std::vector<const trace::StepEvent*> traversals;
  for (const trace::StepEvent& e : trace.events()) {
    if (e.kind == trace::StepKind::kTraversal) traversals.push_back(&e);
  }
  ASSERT_EQ(traversals.size(), result.model.num_trees() - replayed);
  ASSERT_EQ(result.tree_stats.size(), result.model.num_trees());

  const auto loss = make_loss(cfg.loss);
  std::vector<float> preds(n, static_cast<float>(result.model.base_score()));
  for (std::uint32_t t = 0; t < result.model.num_trees(); ++t) {
    const Tree& tree = result.model.trees()[t];
    std::uint64_t hops = 0;
    double loss_sum = 0.0;
    for (std::uint64_t r = 0; r < n; ++r) {
      preds[r] += static_cast<float>(tree.predict(data, r));
      hops += tree.path_length(data, r);
      loss_sum += quantize_stat(loss->value(preds[r], data.labels()[r]));
    }
    if (t < replayed) continue;
    EXPECT_EQ(result.tree_stats[t].train_loss,
              loss_sum / static_cast<double>(n))
        << "tree " << t;
    const trace::StepEvent& ev = *traversals[t - replayed];
    EXPECT_EQ(ev.tree, static_cast<std::int32_t>(t - replayed));
    EXPECT_EQ(ev.records, n);
    EXPECT_EQ(ev.avg_path_length,
              static_cast<double>(hops) / static_cast<double>(n))
        << "tree " << t;
  }
}

/// Counts leaves shallower than the depth budget (made by make_leaf, not
/// by the last-level split).
std::uint32_t shallow_leaves(const TrainResult& result,
                             std::uint32_t max_depth) {
  std::uint32_t count = 0;
  for (const Tree& tree : result.model.trees()) {
    for (std::uint32_t id = 0; id < tree.num_nodes(); ++id) {
      const TreeNode& node = tree.node(static_cast<std::int32_t>(id));
      count += node.is_leaf &&
               node.depth < static_cast<std::int32_t>(max_depth);
    }
  }
  return count;
}

class LeafSpanStep5
    : public ::testing::TestWithParam<
          std::tuple<GrowthOrder, unsigned, std::uint32_t>> {
 protected:
  TrainerConfig config() const {
    TrainerConfig cfg;
    cfg.num_trees = 4;
    cfg.max_depth = 4;
    cfg.loss = "logistic";
    std::tie(cfg.growth, cfg.num_threads, cfg.num_shards) = GetParam();
    return cfg;
  }
  /// Trains with a trace and checks step 5 against the reference.
  TrainResult train_and_check(const BinnedDataset& data,
                              const TrainerConfig& cfg) const {
    trace::StepTrace trace;
    TrainResult result = Trainer(cfg).train(data, &trace);
    expect_step5_matches_reference(data, cfg, result, trace);
    return result;
  }
};

TEST_P(LeafSpanStep5, DepthLimitLeaves) {
  const auto data = random_binned(3000, 51);
  for (const char* loss : {"logistic", "squared"}) {
    TrainerConfig cfg = config();
    cfg.loss = loss;
    train_and_check(data, cfg);
  }
  // A zero depth budget makes the root itself a depth-limit leaf.
  TrainerConfig stump = config();
  stump.max_depth = 0;
  const auto result = train_and_check(data, stump);
  EXPECT_EQ(result.model.trees()[0].num_nodes(), 1u);
}

TEST_P(LeafSpanStep5, MinNodeRecordsLeaves) {
  const auto data = random_binned(3000, 52);
  TrainerConfig cfg = config();
  cfg.max_depth = 6;
  cfg.min_node_records = 400;
  const auto result = train_and_check(data, cfg);
  EXPECT_GT(shallow_leaves(result, cfg.max_depth), 0u);
}

TEST_P(LeafSpanStep5, NoGainLeaves) {
  const auto data = random_binned(3000, 53);
  TrainerConfig cfg = config();
  cfg.max_depth = 6;
  cfg.split.min_split_gain = 2.0;
  const auto result = train_and_check(data, cfg);
  EXPECT_GT(result.model.trees()[0].num_leaves(), 1u);
  EXPECT_GT(shallow_leaves(result, cfg.max_depth), 0u);
}

TEST_P(LeafSpanStep5, WarmStartFromInitModel) {
  const auto data = random_binned(3000, 54);
  const TrainResult init = Trainer(config()).train(data);
  TrainerConfig cfg = config();
  cfg.init_model = &init.model;
  cfg.num_trees = 3;
  const auto result = train_and_check(data, cfg);
  EXPECT_EQ(result.model.num_trees(), init.model.num_trees() + 3);
}

TEST_P(LeafSpanStep5, EarlyStop) {
  const auto data = random_binned(3000, 55);
  TrainerConfig cfg = config();
  cfg.num_trees = 20;
  cfg.early_stop_rel_improvement = 0.2;
  cfg.early_stop_patience = 1;
  const auto result = train_and_check(data, cfg);
  EXPECT_TRUE(result.early_stopped);
  EXPECT_LT(result.model.num_trees(), cfg.num_trees);
}

// Step 5's scatter finds each leaf's rows in a row range by binary search,
// so it needs every leaf span to ascend in row id. Growing a tree with the
// step-3 kernel from an ascending arena must keep every span ascending
// (the partition is stable), and the row-range scatter must then write
// exactly what a per-position scatter writes, for any chunking.
TEST(HotPathEquivalence, LeafSpansAscendAndRowRangeScatterMatchesPositions) {
  const auto data = random_binned(20000, 62);
  const std::uint64_t n = data.num_records();
  const std::vector<SplitInfo> splits = partition_test_splits(data);
  // Arena rows start at row_base, as a shard's do.
  const std::uint32_t row_base = 1000;
  std::vector<std::uint32_t> arena(n);
  std::iota(arena.begin(), arena.end(), row_base);
  std::vector<std::uint32_t> scratch(n);
  util::ThreadPool pool(3);
  std::vector<std::uint64_t> chunk_counts(pool.num_threads() + 1);
  util::Rng rng(63);
  std::vector<LeafSpan> leaves;
  const auto grow = [&](auto&& self, std::uint64_t begin, std::uint64_t end,
                        std::int32_t depth) -> void {
    if (depth == 5 || end - begin < 2) {
      ASSERT_TRUE(std::is_sorted(arena.begin() + begin, arena.begin() + end))
          << "leaf span [" << begin << ", " << end << ")";
      leaves.push_back(LeafSpan{
          .begin = begin,
          .end = end,
          .delta = 0.25f * static_cast<float>(leaves.size() + 1),
          .depth = depth});
      return;
    }
    const SplitInfo& split = splits[rng.next_below(splits.size())];
    const auto& col = data.column(split.field);
    std::uint64_t n_left = 0;
    for (std::uint64_t i = begin; i < end; ++i) {
      n_left += split_goes_left(split, col[arena[i] - row_base]);
    }
    // partition_to reads bins through the row ids it moves, so it runs on
    // the ids less row_base and the base is added back afterwards.
    for (std::uint64_t i = begin; i < end; ++i) arena[i] -= row_base;
    partition_to(arena, arena, begin, end, n_left, data, split, pool,
                 chunk_counts, scratch);
    for (std::uint64_t i = begin; i < end; ++i) arena[i] += row_base;
    self(self, begin, begin + n_left, depth + 1);
    self(self, begin + n_left, end, depth + 1);
  };
  grow(grow, 0, n, 0);
  order_leaf_spans(leaves, n);  // checks that the leaves tile the arena

  std::vector<float> want(n, -1.0f);
  for (const LeafSpan& leaf : leaves) {
    for (std::uint64_t i = leaf.begin; i < leaf.end; ++i) {
      want[arena[i] - row_base] = leaf.delta;
    }
  }
  for (const std::uint64_t chunks : {1u, 2u, 3u, 7u}) {
    std::vector<float> got(n, -1.0f);
    for (std::uint64_t c = 0; c < chunks; ++c) {
      scatter_leaf_deltas(leaves, arena, row_base + n * c / chunks,
                          row_base + n * (c + 1) / chunks, row_base, got);
    }
    EXPECT_EQ(got, want) << chunks << " chunks";
  }
  // A leaf span out of row order must abort the scatter, not skip rows.
  const auto big = std::max_element(
      leaves.begin(), leaves.end(), [](const LeafSpan& a, const LeafSpan& b) {
        return a.end - a.begin < b.end - b.begin;
      });
  ASSERT_GE(big->end - big->begin, 2u);
  std::reverse(arena.begin() + big->begin, arena.begin() + big->end);
  std::vector<float> got(n, -1.0f);
  EXPECT_DEATH(scatter_leaf_deltas(leaves, arena, row_base, row_base + n / 2,
                                   row_base, got),
               "leaf spans do not ascend in row id");
}

/// Float predictions of `model`'s first `trees` trees, replayed tree by
/// tree per record: start at (float)base_score, add (float)w per tree.
std::vector<float> per_tree_replay(const BinnedDataset& data,
                                   const Model& model, std::uint32_t trees) {
  std::vector<float> preds(data.num_records(),
                           static_cast<float>(model.base_score()));
  for (std::uint32_t t = 0; t < trees; ++t) {
    for (std::uint64_t r = 0; r < data.num_records(); ++r) {
      preds[r] += static_cast<float>(model.trees()[t].predict(data, r));
    }
  }
  return preds;
}

struct GroupShape {
  std::uint32_t shards, begin, end;
};
constexpr GroupShape kGroupShapes[] = {{1, 0, 1}, {3, 0, 3}, {3, 1, 3},
                                       {4, 2, 3}};

/// Runs `check(pool, shape)` at every SIMD level the host has, threads
/// {1, 3}, and every group shape of kGroupShapes.
template <class Check>
void for_each_level_threads_shape(Check&& check) {
  for (const util::simd::Level level :
       {util::simd::Level::kScalar, util::simd::Level::kAvx2,
        util::simd::Level::kAvx512}) {
    if (util::simd::kernels(level).level != level) continue;
    const util::simd::ScopedLevelForTesting scoped(level);
    for (const unsigned threads : {1u, 3u}) {
      util::ThreadPool pool(threads);
      for (const GroupShape& shape : kGroupShapes) {
        SCOPED_TRACE(::testing::Message()
                     << util::simd::level_name(level) << " threads "
                     << threads << " shards " << shape.shards << " ["
                     << shape.begin << ", " << shape.end << ")");
        check(pool, shape);
      }
    }
  }
}

/// The group's predictions and gradients must equal `preds` (indexed by
/// global row) and the loss's gradients of it, bit for bit.
void expect_group_state(const ShardGroup& group, const GroupShape& shape,
                        const BinnedDataset& data, const Loss& loss,
                        const std::vector<float>& preds) {
  const std::uint64_t first =
      shard_row_range(data.num_records(), shape.shards, shape.begin).first;
  const auto got_preds = group.predictions();
  const auto got_grads = group.gradients();
  for (std::uint64_t i = 0; i < got_preds.size(); ++i) {
    const std::uint64_t r = first + i;
    const GradientPair want = loss.gradients(preds[r], data.labels()[r]);
    ASSERT_EQ(std::bit_cast<std::uint32_t>(got_preds[i]),
              std::bit_cast<std::uint32_t>(preds[r]))
        << "row " << r;
    ASSERT_EQ(std::bit_cast<std::uint32_t>(got_grads[i].g),
              std::bit_cast<std::uint32_t>(want.g))
        << "row " << r;
    ASSERT_EQ(std::bit_cast<std::uint32_t>(got_grads[i].h),
              std::bit_cast<std::uint32_t>(want.h))
        << "row " << r;
  }
}

TrainerConfig reset_config(const char* loss_name) {
  TrainerConfig cfg;
  cfg.num_trees = 6;
  cfg.max_depth = 5;
  cfg.loss = loss_name;
  cfg.num_threads = 1;
  return cfg;
}

// ShardGroup::reset stands for replaying the model tree by tree: preds
// start at (float)base_score, each tree adds (float)w with a float add,
// and each row's gradients follow from its final prediction. The group's
// tile-major pass must give those predictions and gradients bit for bit,
// for every group shape, thread count and SIMD level, and for a model
// without trees (the start of training).
TEST(ShardGroupReset, MatchesPerTreeReplayBitwise) {
  const auto data = random_binned(5003, 64);
  for (const char* loss_name : {"logistic", "squared"}) {
    const TrainerConfig cfg = reset_config(loss_name);
    const Model trained = Trainer(cfg).train(data).model;
    const Model empty(trained.base_score(), make_loss(loss_name));
    const auto loss = make_loss(loss_name);
    for (const Model* model : {&trained, &empty}) {
      SCOPED_TRACE(::testing::Message()
                   << loss_name << " trees " << model->num_trees());
      const std::vector<float> preds =
          per_tree_replay(data, *model, model->num_trees());
      for_each_level_threads_shape([&](util::ThreadPool& pool,
                                       const GroupShape& shape) {
        ShardGroup group(data, cfg, shape.shards, shape.begin, shape.end,
                         &pool);
        group.reset(*loss, *model);
        expect_group_state(group, shape, data, *loss, preds);
      });
    }
  }
}

// A warm start's carried prefix: rows [0, m) start from predictions that
// already hold the model's first k trees and add only the later ones;
// the rest replay every tree. Whatever m (0, mid-shard, every row) and k
// (all trees -- the warm start itself -- or fewer -- a group rebuilt or
// adopted after more trees finished), the group's state must equal the
// full replay bit for bit.
TEST(ShardGroupReset, CarriedPrefixMatchesFullReplayBitwise) {
  const auto data = random_binned(5003, 65);
  const std::uint64_t n = data.num_records();
  for (const char* loss_name : {"logistic", "squared"}) {
    const TrainerConfig cfg = reset_config(loss_name);
    const Model model = Trainer(cfg).train(data).model;
    const auto loss = make_loss(loss_name);
    const std::vector<float> want =
        per_tree_replay(data, model, model.num_trees());
    for (const std::uint32_t k : {model.num_trees(), 2u}) {
      const std::vector<float> carried = per_tree_replay(data, model, k);
      for (const std::uint64_t m : {std::uint64_t{0}, n / 2 + 17, n}) {
        SCOPED_TRACE(::testing::Message() << loss_name << " carried " << m
                                          << " rows of " << k << " trees");
        for_each_level_threads_shape([&](util::ThreadPool& pool,
                                         const GroupShape& shape) {
          ShardGroup group(data, cfg, shape.shards, shape.begin, shape.end,
                           &pool);
          group.reset(*loss, model,
                      std::span<const float>(carried).first(m), k);
          expect_group_state(group, shape, data, *loss, want);
        });
      }
    }
  }
}

// A run's final predictions come back as TrainResult::predictions and,
// passed on as init_predictions of a warm start on the same rows, leave
// the trained model, every train_loss and the final predictions unchanged.
TEST(ShardGroupReset, TrainerReturnsAndTakesCarriedPredictions) {
  const auto data = random_binned(4001, 66);
  TrainerConfig cfg = reset_config("logistic");
  cfg.num_threads = 3;
  cfg.num_shards = 3;
  const TrainResult init = Trainer(cfg).train(data);
  EXPECT_EQ(init.predictions,
            per_tree_replay(data, init.model, init.model.num_trees()));
  cfg.init_model = &init.model;
  cfg.num_trees = 3;
  const TrainResult replayed = Trainer(cfg).train(data);
  for (const std::uint64_t m : {std::uint64_t{1000}, data.num_records()}) {
    SCOPED_TRACE(::testing::Message() << "carried " << m << " rows");
    TrainerConfig carried_cfg = cfg;
    carried_cfg.init_predictions =
        std::span<const float>(init.predictions).first(m);
    const TrainResult carried = Trainer(carried_cfg).train(data);
    ASSERT_EQ(carried.model.num_trees(), replayed.model.num_trees());
    for (std::uint32_t t = 0; t < carried.model.num_trees(); ++t) {
      const Tree& a = carried.model.trees()[t];
      const Tree& b = replayed.model.trees()[t];
      ASSERT_EQ(a.num_nodes(), b.num_nodes());
      for (std::uint32_t id = 0; id < a.num_nodes(); ++id) {
        EXPECT_EQ(a.node(static_cast<std::int32_t>(id)).weight,
                  b.node(static_cast<std::int32_t>(id)).weight);
      }
      EXPECT_EQ(carried.tree_stats[t].train_loss,
                replayed.tree_stats[t].train_loss);
    }
    EXPECT_EQ(carried.predictions, replayed.predictions);
  }
}

TEST(WarmStartDeathTest, InitPredictionsLongerThanTheDataset) {
  const auto data = random_binned(500, 67);
  TrainerConfig cfg = reset_config("logistic");
  const TrainResult init = Trainer(cfg).train(data);
  std::vector<float> longer = init.predictions;
  longer.push_back(0.0f);
  cfg.init_model = &init.model;
  cfg.init_predictions = longer;
  EXPECT_DEATH(Trainer(cfg).train(data),
               "more init_predictions than records");
}

TEST(WarmStartDeathTest, InitPredictionsWithoutInitModel) {
  const auto data = random_binned(500, 68);
  TrainerConfig cfg = reset_config("logistic");
  const std::vector<float> preds(data.num_records(), 0.0f);
  cfg.init_predictions = preds;
  EXPECT_DEATH(Trainer(cfg).train(data),
               "init_predictions without an init_model");
}

INSTANTIATE_TEST_SUITE_P(
    GrowthThreadsShards, LeafSpanStep5,
    ::testing::Combine(::testing::Values(GrowthOrder::kVertexByVertex,
                                         GrowthOrder::kLevelByLevel),
                       ::testing::Values(1u, 4u),
                       ::testing::Values(1u, 3u)));

}  // namespace
}  // namespace booster::gbdt

#include "gbdt/split.h"

#include <gtest/gtest.h>

#include <numeric>

#include "gbdt/binning.h"
#include "util/rng.h"
#include "util/simd.h"
#include "util/thread_pool.h"
#include "workloads/synth.h"

namespace booster::gbdt {
namespace {

/// Builds a binned dataset with one numeric field whose bin per record is
/// prescribed, so histogram contents are fully controlled.
BinnedDataset dataset_from_bins(const std::vector<BinIndex>& bins,
                                std::uint32_t num_bins) {
  Dataset d;
  d.add_numeric_field("x");
  d.resize(bins.size());
  // Values 0..num_bins-2 -> bins 1..num_bins-1 after quantile binning of
  // the full integer range; missing (bin 0) encoded as NaN.
  for (std::size_t r = 0; r < bins.size(); ++r) {
    if (bins[r] == 0) {
      d.set_numeric(0, r, std::numeric_limits<float>::quiet_NaN());
    } else {
      d.set_numeric(0, r, static_cast<float>(bins[r] - 1));
    }
  }
  BinningConfig cfg;
  cfg.max_numeric_bins = num_bins - 1;
  auto binned = Binner(cfg).bin(d);
  return binned;
}

Histogram build_hist(const BinnedDataset& data,
                     const std::vector<GradientPair>& grads) {
  std::vector<std::uint32_t> rows(data.num_records());
  std::iota(rows.begin(), rows.end(), 0);
  Histogram hist(data);
  hist.build(data, rows, grads);
  return hist;
}

TEST(LeafWeight, NewtonStep) {
  BinStats t{10.0, 5.0, 9.0};
  EXPECT_DOUBLE_EQ(leaf_weight(t, 1.0), -0.5);  // -G/(H+lambda)
}

TEST(BucketScore, Formula) {
  BinStats t{10.0, 4.0, 3.0};
  EXPECT_DOUBLE_EQ(bucket_score(t, 1.0), 4.0);  // G^2/(H+lambda)
}

TEST(SplitFinder, FindsObviousNumericSplit) {
  // Records in low bins have g=+1, high bins g=-1: the best split is at the
  // boundary.
  std::vector<BinIndex> bins;
  std::vector<GradientPair> grads;
  for (int i = 0; i < 100; ++i) {
    bins.push_back(i < 50 ? 1 : 4);
    grads.push_back({i < 50 ? 1.0f : -1.0f, 1.0f});
  }
  const auto data = dataset_from_bins(bins, 5);
  const auto hist = build_hist(data, grads);
  std::uint64_t scanned = 0;
  const auto split = SplitFinder().find_best(hist, data, &scanned);
  ASSERT_TRUE(split.has_value());
  EXPECT_EQ(split->field, 0u);
  EXPECT_EQ(split->kind, PredicateKind::kNumericLE);
  EXPECT_GT(split->gain, 0.0);
  EXPECT_DOUBLE_EQ(split->left.count, 50.0);
  EXPECT_DOUBLE_EQ(split->right.count, 50.0);
  EXPECT_GT(scanned, 0u);
}

TEST(SplitFinder, GainMatchesHandComputation) {
  // Two value bins, equal counts: GL=+8 (h=4), GR=-8 (h=4), lambda=1.
  std::vector<BinIndex> bins;
  std::vector<GradientPair> grads;
  for (int i = 0; i < 8; ++i) {
    bins.push_back(i < 4 ? 1 : 2);
    grads.push_back({i < 4 ? 2.0f : -2.0f, 1.0f});
  }
  const auto data = dataset_from_bins(bins, 3);
  const auto hist = build_hist(data, grads);
  SplitConfig cfg;
  cfg.lambda = 1.0;
  cfg.gamma = 0.0;
  const auto split = SplitFinder(cfg).find_best(hist, data);
  ASSERT_TRUE(split.has_value());
  // gain = 0.5 * (64/5 + 64/5 - 0/9) = 12.8
  EXPECT_NEAR(split->gain, 12.8, 1e-9);
}

TEST(SplitFinder, GammaSubtractsFromGain) {
  std::vector<BinIndex> bins;
  std::vector<GradientPair> grads;
  for (int i = 0; i < 8; ++i) {
    bins.push_back(i < 4 ? 1 : 2);
    grads.push_back({i < 4 ? 2.0f : -2.0f, 1.0f});
  }
  const auto data = dataset_from_bins(bins, 3);
  const auto hist = build_hist(data, grads);
  SplitConfig cfg;
  cfg.gamma = 1.0;
  const auto split = SplitFinder(cfg).find_best(hist, data);
  ASSERT_TRUE(split.has_value());
  EXPECT_NEAR(split->gain, 11.8, 1e-9);
}

TEST(SplitFinder, RejectsWhenGammaExceedsImprovement) {
  std::vector<BinIndex> bins;
  std::vector<GradientPair> grads;
  for (int i = 0; i < 8; ++i) {
    bins.push_back(i < 4 ? 1 : 2);
    grads.push_back({i < 4 ? 2.0f : -2.0f, 1.0f});
  }
  const auto data = dataset_from_bins(bins, 3);
  const auto hist = build_hist(data, grads);
  SplitConfig cfg;
  cfg.gamma = 100.0;  // larger than any achievable improvement
  EXPECT_FALSE(SplitFinder(cfg).find_best(hist, data).has_value());
}

TEST(SplitFinder, MinChildWeightBlocksTinyChildren) {
  // One record in bin 1, many in bin 2: a split isolating the single
  // record violates min_child_weight.
  std::vector<BinIndex> bins{1};
  std::vector<GradientPair> grads{{5.0f, 0.5f}};
  for (int i = 0; i < 50; ++i) {
    bins.push_back(2);
    grads.push_back({-0.1f, 1.0f});
  }
  const auto data = dataset_from_bins(bins, 3);
  const auto hist = build_hist(data, grads);
  SplitConfig cfg;
  cfg.min_child_weight = 2.0;  // the lone record has h=0.5 < 2.0
  EXPECT_FALSE(SplitFinder(cfg).find_best(hist, data).has_value());
}

TEST(SplitFinder, MissingValuesFollowBetterDirection) {
  // Missing records carry strong positive gradients; the positive side is
  // the low bins, so default_left should be true.
  std::vector<BinIndex> bins;
  std::vector<GradientPair> grads;
  for (int i = 0; i < 40; ++i) {
    bins.push_back(i < 20 ? 1 : 4);
    grads.push_back({i < 20 ? 1.0f : -1.0f, 1.0f});
  }
  for (int i = 0; i < 10; ++i) {
    bins.push_back(0);  // missing
    grads.push_back({1.0f, 1.0f});
  }
  const auto data = dataset_from_bins(bins, 5);
  const auto hist = build_hist(data, grads);
  const auto split = SplitFinder().find_best(hist, data);
  ASSERT_TRUE(split.has_value());
  EXPECT_TRUE(split->default_left);
  // And flipping the missing gradients should flip the default.
  std::vector<GradientPair> flipped = grads;
  for (std::size_t i = 40; i < flipped.size(); ++i) flipped[i].g = -1.0f;
  const auto hist2 = build_hist(data, flipped);
  const auto split2 = SplitFinder().find_best(hist2, data);
  ASSERT_TRUE(split2.has_value());
  EXPECT_FALSE(split2->default_left);
}

TEST(SplitFinder, CategoricalEqualitySplit) {
  // Category 3 (bin 4) carries all the positive gradient; best split must
  // be "category == 3".
  Dataset d;
  d.add_categorical_field("c", 5);
  d.resize(100);
  std::vector<GradientPair> grads(100);
  for (std::uint64_t r = 0; r < 100; ++r) {
    const bool special = r < 10;
    d.set_categorical(0, r, special ? 3 : static_cast<std::int32_t>(r % 3));
    grads[r] = {special ? 3.0f : -0.2f, 1.0f};
  }
  const auto data = Binner().bin(d);
  const auto hist = build_hist(data, grads);
  const auto split = SplitFinder().find_best(hist, data);
  ASSERT_TRUE(split.has_value());
  EXPECT_EQ(split->kind, PredicateKind::kCategoryEqual);
  EXPECT_EQ(split->threshold_bin, 4u);  // category 3 -> bin 4
  EXPECT_DOUBLE_EQ(split->left.count, 10.0);
}

TEST(SplitFinder, LeftPlusRightEqualsTotals) {
  std::vector<BinIndex> bins;
  std::vector<GradientPair> grads;
  for (int i = 0; i < 60; ++i) {
    bins.push_back(static_cast<BinIndex>(1 + (i % 4)));
    grads.push_back({static_cast<float>((i % 7) - 3), 1.0f});
  }
  const auto data = dataset_from_bins(bins, 5);
  const auto hist = build_hist(data, grads);
  const auto split = SplitFinder().find_best(hist, data);
  ASSERT_TRUE(split.has_value());
  const auto totals = hist.totals();
  EXPECT_DOUBLE_EQ(split->left.count + split->right.count, totals.count);
  EXPECT_NEAR(split->left.g + split->right.g, totals.g, 1e-9);
  EXPECT_NEAR(split->left.h + split->right.h, totals.h, 1e-9);
}

TEST(SplitFinder, BinsScannedCountsAllFields) {
  Dataset d;
  d.add_numeric_field("x");
  d.add_categorical_field("c", 7);
  d.resize(50);
  for (std::uint64_t r = 0; r < 50; ++r) {
    d.set_numeric(0, r, static_cast<float>(r % 10));
    d.set_categorical(1, r, static_cast<std::int32_t>(r % 7));
  }
  const auto data = Binner().bin(d);
  std::vector<GradientPair> grads(50, {1.0f, 1.0f});
  const auto hist = build_hist(data, grads);
  std::uint64_t scanned = 0;
  (void)SplitFinder().find_best(hist, data, &scanned);
  EXPECT_EQ(scanned, data.total_bins());
}

TEST(SplitFinder, UniformGradientsYieldNoSplit) {
  // All records identical gradients: no split improves the objective.
  std::vector<BinIndex> bins;
  std::vector<GradientPair> grads;
  for (int i = 0; i < 64; ++i) {
    bins.push_back(static_cast<BinIndex>(1 + (i % 4)));
    grads.push_back({1.0f, 1.0f});
  }
  const auto data = dataset_from_bins(bins, 5);
  const auto hist = build_hist(data, grads);
  EXPECT_FALSE(SplitFinder().find_best(hist, data).has_value());
}

// --- Threaded split scan: 1-thread-equivalence property. ---------------

TEST(SplitFinderThreaded, IdenticalToSerialAtAnyThreadCount) {
  // Property: the parallel field scan returns bit-identical results to the
  // serial scan at every thread count -- same split (field, kind,
  // threshold, default direction, exact gain and child stats) and the same
  // bins_scanned -- over mixed numeric/categorical workloads with random
  // gradients.
  for (const std::uint64_t seed : {1ULL, 7ULL, 42ULL}) {
    workloads::DatasetSpec spec;
    spec.name = "split-prop";
    spec.nominal_records = 4000;
    spec.numeric_fields = 6;
    spec.categorical_cardinalities = {40, 17, 5};
    spec.loss = "logistic";
    spec.label_structure = workloads::LabelStructure::kCategorical;
    const auto data = Binner().bin(workloads::synthesize(spec, 4000, seed));

    util::Rng rng(seed * 977);
    std::vector<GradientPair> grads(data.num_records());
    for (auto& g : grads) {
      g = {static_cast<float>(rng.uniform(-1.0, 1.0)),
           static_cast<float>(rng.uniform(0.1, 1.0))};
    }
    const auto hist = build_hist(data, grads);

    const SplitFinder finder;
    std::uint64_t serial_scanned = 0;
    const auto serial = finder.find_best(hist, data, &serial_scanned);
    ASSERT_TRUE(serial.has_value());

    for (const unsigned threads : {1u, 2u, 3u, 8u}) {
      util::ThreadPool pool(threads);
      std::uint64_t scanned = 0;
      const auto parallel = finder.find_best(hist, data, &pool, &scanned);
      ASSERT_TRUE(parallel.has_value()) << threads << " threads";
      EXPECT_EQ(parallel->field, serial->field) << threads << " threads";
      EXPECT_EQ(parallel->kind, serial->kind);
      EXPECT_EQ(parallel->threshold_bin, serial->threshold_bin);
      EXPECT_EQ(parallel->default_left, serial->default_left);
      EXPECT_DOUBLE_EQ(parallel->gain, serial->gain);
      EXPECT_DOUBLE_EQ(parallel->left.g, serial->left.g);
      EXPECT_DOUBLE_EQ(parallel->left.h, serial->left.h);
      EXPECT_DOUBLE_EQ(parallel->left.count, serial->left.count);
      EXPECT_DOUBLE_EQ(parallel->right.g, serial->right.g);
      EXPECT_EQ(scanned, serial_scanned) << threads << " threads";
    }
  }
}

TEST(SplitFinderThreaded, BinChunkedScanMatchesSerialOnDominantField) {
  // ROADMAP "chunk by bins": when one huge categorical field holds most of
  // the histogram's bins, field-granular chunks would serialize into that
  // field's chunk, so the scan switches to bin-granular chunks -- numeric
  // fields entered mid-chunk replay their left-prefix accumulation, and
  // the chunk-order first-max merge must still pin the serial scan's
  // result bit for bit at every thread count.
  for (const std::uint64_t seed : {3ULL, 19ULL}) {
    workloads::DatasetSpec spec;
    spec.name = "skewed";
    spec.nominal_records = 6000;
    spec.numeric_fields = 2;
    // One dominating categorical field (~1800 bins, far more than every
    // other field combined) plus a small one.
    spec.categorical_cardinalities = {1800, 6};
    spec.categorical_skew = 1.05;  // flat-ish: most categories populated
    spec.missing_rate = 0.05;
    spec.loss = "logistic";
    const auto data = Binner().bin(workloads::synthesize(spec, 6000, seed));

    // The dominant field must actually dominate the bin space, otherwise
    // this test exercises nothing.
    ASSERT_GT(data.max_bins_per_field() * 2, data.total_bins());

    util::Rng rng(seed * 131);
    std::vector<GradientPair> grads(data.num_records());
    for (auto& g : grads) {
      g = {static_cast<float>(rng.uniform(-1.0, 1.0)),
           static_cast<float>(rng.uniform(0.1, 1.0))};
    }
    const auto hist = build_hist(data, grads);

    const SplitFinder finder;
    std::uint64_t serial_scanned = 0;
    const auto serial = finder.find_best(hist, data, &serial_scanned);
    ASSERT_TRUE(serial.has_value());

    for (const unsigned threads : {1u, 2u, 3u, 8u}) {
      util::ThreadPool pool(threads);
      std::uint64_t scanned = 0;
      const auto parallel = finder.find_best(hist, data, &pool, &scanned);
      ASSERT_TRUE(parallel.has_value()) << threads << " threads";
      EXPECT_EQ(parallel->field, serial->field) << threads << " threads";
      EXPECT_EQ(parallel->kind, serial->kind) << threads << " threads";
      EXPECT_EQ(parallel->threshold_bin, serial->threshold_bin)
          << threads << " threads";
      EXPECT_EQ(parallel->default_left, serial->default_left)
          << threads << " threads";
      EXPECT_EQ(parallel->gain, serial->gain) << threads << " threads";
      EXPECT_EQ(parallel->left.g, serial->left.g) << threads << " threads";
      EXPECT_EQ(parallel->left.h, serial->left.h) << threads << " threads";
      EXPECT_EQ(parallel->left.count, serial->left.count)
          << threads << " threads";
      EXPECT_EQ(parallel->right.g, serial->right.g) << threads << " threads";
      EXPECT_EQ(scanned, serial_scanned) << threads << " threads";
    }
  }
}

TEST(SplitFinderThreaded, BinChunkedScanEngagesWithTooFewFieldsToChunk) {
  // Two fields, one of them huge: field-granular chunking cannot
  // parallelize at all (num_chunks(2, grain=2) == 1), so this histogram
  // reaches the bin-granular path directly -- and must still match the
  // serial scan exactly.
  workloads::DatasetSpec spec;
  spec.name = "two-field";
  spec.nominal_records = 5000;
  spec.numeric_fields = 1;
  spec.categorical_cardinalities = {2000};
  spec.categorical_skew = 1.05;
  spec.loss = "logistic";
  const auto data = Binner().bin(workloads::synthesize(spec, 5000, 77));
  ASSERT_EQ(data.num_fields(), 2u);
  ASSERT_GT(data.max_bins_per_field() * 2, data.total_bins());

  util::Rng rng(779);
  std::vector<GradientPair> grads(data.num_records());
  for (auto& g : grads) {
    g = {static_cast<float>(rng.uniform(-1.0, 1.0)),
         static_cast<float>(rng.uniform(0.1, 1.0))};
  }
  const auto hist = build_hist(data, grads);

  const SplitFinder finder;
  std::uint64_t serial_scanned = 0;
  const auto serial = finder.find_best(hist, data, &serial_scanned);
  ASSERT_TRUE(serial.has_value());

  for (const unsigned threads : {2u, 8u}) {
    util::ThreadPool pool(threads);
    std::uint64_t scanned = 0;
    const auto parallel = finder.find_best(hist, data, &pool, &scanned);
    ASSERT_TRUE(parallel.has_value()) << threads << " threads";
    EXPECT_EQ(parallel->field, serial->field) << threads << " threads";
    EXPECT_EQ(parallel->threshold_bin, serial->threshold_bin)
        << threads << " threads";
    EXPECT_EQ(parallel->gain, serial->gain) << threads << " threads";
    EXPECT_EQ(parallel->left.count, serial->left.count)
        << threads << " threads";
    EXPECT_EQ(scanned, serial_scanned) << threads << " threads";
  }
}

// --- SIMD prefix scan: dispatch-level bit-identity. ---------------------

TEST(SplitFinderSimd, FindBestIdenticalAcrossDispatchLevels) {
  // The numeric left-bucket accumulation runs through the simd prefix_sum4
  // kernel, which adds in bin order at every level, so the chosen split --
  // gain, child stats, tie-breaking, everything -- must be bit-identical
  // at every dispatch level this binary carries, on both the serial and
  // the threaded scan paths.
  namespace simd = booster::util::simd;
  for (const std::uint64_t seed : {5ULL, 23ULL}) {
    workloads::DatasetSpec spec;
    spec.name = "simd-split";
    spec.nominal_records = 4000;
    spec.numeric_fields = 7;
    spec.categorical_cardinalities = {30, 9};
    spec.missing_rate = 0.03;
    spec.loss = "logistic";
    const auto data = Binner().bin(workloads::synthesize(spec, 4000, seed));

    util::Rng rng(seed * 313);
    std::vector<GradientPair> grads(data.num_records());
    for (auto& g : grads) {
      g = {static_cast<float>(rng.uniform(-1.0, 1.0)),
           static_cast<float>(rng.uniform(0.1, 1.0))};
    }
    const auto hist = build_hist(data, grads);

    const SplitFinder finder;
    std::optional<SplitInfo> reference;
    std::uint64_t reference_scanned = 0;
    {
      simd::ScopedLevelForTesting scalar(simd::Level::kScalar);
      reference = finder.find_best(hist, data, &reference_scanned);
    }
    ASSERT_TRUE(reference.has_value());

    for (const simd::Level level :
         {simd::Level::kScalar, simd::Level::kAvx2, simd::Level::kAvx512}) {
      if (level > simd::detected()) continue;
      simd::ScopedLevelForTesting scoped(level);
      util::ThreadPool pool(3);
      for (util::ThreadPool* p : {static_cast<util::ThreadPool*>(nullptr),
                                  &pool}) {
        std::uint64_t scanned = 0;
        const auto split = finder.find_best(hist, data, p, &scanned);
        ASSERT_TRUE(split.has_value()) << simd::level_name(level);
        EXPECT_EQ(split->field, reference->field) << simd::level_name(level);
        EXPECT_EQ(split->kind, reference->kind) << simd::level_name(level);
        EXPECT_EQ(split->threshold_bin, reference->threshold_bin)
            << simd::level_name(level);
        EXPECT_EQ(split->default_left, reference->default_left)
            << simd::level_name(level);
        EXPECT_EQ(split->gain, reference->gain) << simd::level_name(level);
        EXPECT_EQ(split->left.count, reference->left.count)
            << simd::level_name(level);
        EXPECT_EQ(split->left.g, reference->left.g) << simd::level_name(level);
        EXPECT_EQ(split->left.h, reference->left.h) << simd::level_name(level);
        EXPECT_EQ(split->right.g, reference->right.g)
            << simd::level_name(level);
        EXPECT_EQ(split->right.h, reference->right.h)
            << simd::level_name(level);
        EXPECT_EQ(scanned, reference_scanned) << simd::level_name(level);
      }
    }
  }
}

TEST(SplitFinderThreaded, NoSplitAgreesAcrossThreadCounts) {
  std::vector<BinIndex> bins;
  std::vector<GradientPair> grads;
  for (int i = 0; i < 64; ++i) {
    bins.push_back(static_cast<BinIndex>(1 + (i % 4)));
    grads.push_back({1.0f, 1.0f});
  }
  const auto data = dataset_from_bins(bins, 5);
  const auto hist = build_hist(data, grads);
  for (const unsigned threads : {1u, 4u}) {
    util::ThreadPool pool(threads);
    EXPECT_FALSE(SplitFinder().find_best(hist, data, &pool).has_value());
  }
}

}  // namespace
}  // namespace booster::gbdt

#include "gbdt/histogram.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <numeric>
#include <span>
#include <vector>

#include "util/rng.h"
#include "workloads/synth.h"

namespace booster::gbdt {
namespace {

BinnedDataset small_binned(std::uint64_t n = 500, std::uint64_t seed = 1) {
  workloads::DatasetSpec spec;
  spec.name = "unit";
  spec.nominal_records = n;
  spec.numeric_fields = 4;
  spec.categorical_cardinalities = {5};
  spec.missing_rate = 0.1;
  spec.loss = "logistic";
  const auto raw = workloads::synthesize(spec, n, seed);
  return Binner().bin(raw);
}

std::vector<GradientPair> random_gradients(std::uint64_t n,
                                           std::uint64_t seed = 2) {
  util::Rng rng(seed);
  std::vector<GradientPair> g(n);
  for (auto& gp : g) {
    gp.g = static_cast<float>(rng.normal());
    gp.h = static_cast<float>(rng.uniform(0.1, 1.0));
  }
  return g;
}

std::vector<std::uint32_t> all_rows(std::uint64_t n) {
  std::vector<std::uint32_t> rows(n);
  std::iota(rows.begin(), rows.end(), 0);
  return rows;
}

TEST(Histogram, ShapeMatchesDataset) {
  const auto data = small_binned();
  Histogram hist(data);
  EXPECT_EQ(hist.num_fields(), data.num_fields());
  for (std::uint32_t f = 0; f < data.num_fields(); ++f) {
    EXPECT_EQ(hist.field(f).size(), data.field_bins(f).num_bins);
  }
}

TEST(Histogram, BuildCountsEveryRecordOncePerField) {
  const auto data = small_binned();
  const auto grads = random_gradients(data.num_records());
  Histogram hist(data);
  hist.build(data, all_rows(data.num_records()), grads);
  for (std::uint32_t f = 0; f < data.num_fields(); ++f) {
    double count = 0.0;
    for (const auto& b : hist.field(f)) count += b.count;
    EXPECT_DOUBLE_EQ(count, static_cast<double>(data.num_records()))
        << "field " << f << ": every record must hit exactly one bin";
  }
}

TEST(Histogram, TotalsInvariantAcrossFields) {
  // The paper's group-by-field mapping relies on: each field's bin sums
  // equal the node totals (one update per field per record).
  const auto data = small_binned();
  const auto grads = random_gradients(data.num_records());
  Histogram hist(data);
  hist.build(data, all_rows(data.num_records()), grads);
  const BinStats ref = hist.totals();
  for (std::uint32_t f = 0; f < data.num_fields(); ++f) {
    BinStats t;
    for (const auto& b : hist.field(f)) t += b;
    EXPECT_NEAR(t.g, ref.g, 1e-6);
    EXPECT_NEAR(t.h, ref.h, 1e-6);
    EXPECT_DOUBLE_EQ(t.count, ref.count);
  }
}

TEST(Histogram, GradientSumsMatchInput) {
  const auto data = small_binned();
  const auto grads = random_gradients(data.num_records());
  Histogram hist(data);
  hist.build(data, all_rows(data.num_records()), grads);
  double g_expected = 0.0;
  for (const auto& gp : grads) g_expected += gp.g;
  EXPECT_NEAR(hist.totals().g, g_expected, 1e-5);
}

TEST(Histogram, SubtractionRecoversSibling) {
  // Smaller-child trick (paper SS II-A): parent - left == right, bin-wise.
  const auto data = small_binned(600);
  const auto grads = random_gradients(data.num_records());
  const auto rows = all_rows(data.num_records());
  const std::vector<std::uint32_t> left(rows.begin(), rows.begin() + 200);
  const std::vector<std::uint32_t> right(rows.begin() + 200, rows.end());

  Histogram parent(data), left_h(data), right_direct(data);
  parent.build(data, rows, grads);
  left_h.build(data, left, grads);
  right_direct.build(data, right, grads);

  Histogram right_sub;
  right_sub.subtract_from(parent, left_h);
  for (std::uint32_t f = 0; f < data.num_fields(); ++f) {
    const auto a = right_sub.field(f);
    const auto b = right_direct.field(f);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_DOUBLE_EQ(a[i].count, b[i].count);
      EXPECT_NEAR(a[i].g, b[i].g, 1e-5);
      EXPECT_NEAR(a[i].h, b[i].h, 1e-5);
    }
  }
}

TEST(Histogram, BuildIsAdditiveOverRowPartitions) {
  const auto data = small_binned(400);
  const auto grads = random_gradients(data.num_records());
  const auto rows = all_rows(data.num_records());
  Histogram whole(data);
  whole.build(data, rows, grads);

  Histogram partial(data);
  const std::vector<std::uint32_t> first(rows.begin(), rows.begin() + 150);
  const std::vector<std::uint32_t> second(rows.begin() + 150, rows.end());
  partial.build(data, first, grads);
  partial.build(data, second, grads);  // build accumulates

  for (std::uint32_t f = 0; f < data.num_fields(); ++f) {
    const auto a = whole.field(f);
    const auto b = partial.field(f);
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_DOUBLE_EQ(a[i].count, b[i].count);
      EXPECT_NEAR(a[i].g, b[i].g, 1e-5);
    }
  }
}

TEST(Histogram, ClearZeroesEverything) {
  const auto data = small_binned(100);
  const auto grads = random_gradients(data.num_records());
  Histogram hist(data);
  hist.build(data, all_rows(data.num_records()), grads);
  hist.clear();
  EXPECT_DOUBLE_EQ(hist.totals().count, 0.0);
  EXPECT_DOUBLE_EQ(hist.totals().g, 0.0);
}

TEST(Histogram, EmptyRowsYieldZeroTotals) {
  const auto data = small_binned(100);
  const auto grads = random_gradients(data.num_records());
  Histogram hist(data);
  hist.build(data, {}, grads);
  EXPECT_DOUBLE_EQ(hist.totals().count, 0.0);
}

TEST(BinStats, ArithmeticOps) {
  BinStats a{2.0, 1.0, 3.0};
  BinStats b{1.0, 0.5, 1.0};
  a += b;
  EXPECT_DOUBLE_EQ(a.count, 3.0);
  EXPECT_DOUBLE_EQ(a.g, 1.5);
  a -= b;
  EXPECT_DOUBLE_EQ(a.count, 2.0);
  EXPECT_DOUBLE_EQ(a.h, 3.0);
}

TEST(BinStats, IsOneAligned32ByteLane) {
  // The build's one-vector-access bin update needs every bin to be one
  // aligned 32-byte lane {count, g, h, pad}.
  EXPECT_EQ(sizeof(BinStats), 32u);
  EXPECT_EQ(alignof(BinStats), 32u);
  EXPECT_EQ(offsetof(BinStats, count), 0u);
  EXPECT_EQ(offsetof(BinStats, g), 8u);
  EXPECT_EQ(offsetof(BinStats, h), 16u);
  EXPECT_EQ(offsetof(BinStats, pad), 24u);
}

void expect_pad_lanes_zero(const Histogram& hist) {
  for (std::uint32_t f = 0; f < hist.num_fields(); ++f) {
    for (const BinStats& b : hist.field(f)) {
      EXPECT_TRUE(b.pad == 0.0 && !std::signbit(b.pad)) << "field " << f;
    }
  }
}

TEST(HistogramPool, EveryHandedOutBufferKeepsPadLanesZero) {
  const auto data = small_binned();
  const auto grads = random_gradients(data.num_records());
  const auto rows = all_rows(data.num_records());
  HistogramPool pool(data);
  Histogram parent = pool.acquire();
  parent.build(data, rows, grads);
  Histogram child = pool.acquire();
  child.build(data, std::span(rows).subspan(0, 137), grads);
  parent.subtract(child);
  parent.add(child);
  Histogram diff = pool.take();
  diff.subtract_from(parent, child);
  expect_pad_lanes_zero(parent);
  expect_pad_lanes_zero(diff);
  pool.release(std::move(parent));
  pool.release(std::move(child));
  pool.release(std::move(diff));
  // take() hands a buffer back as its last user left it (no clear)...
  Histogram stale = pool.take();
  EXPECT_GT(stale.totals().count, 0.0);
  expect_pad_lanes_zero(stale);
  // ...acquire() clears it.
  Histogram cleared = pool.acquire();
  expect_pad_lanes_zero(cleared);
  EXPECT_EQ(cleared.totals().count, 0.0);
  Histogram cleared2 = pool.acquire();
  EXPECT_EQ(cleared2.totals().count, 0.0);
  EXPECT_EQ(pool.allocations(), 3u);
  EXPECT_EQ(pool.acquires(), 6u);
}

TEST(Histogram, TotalBinsMatchesDataset) {
  const auto data = small_binned(100);
  Histogram hist(data);
  EXPECT_EQ(hist.total_bins(), data.total_bins());
}

// --- Quantized-exact accumulation: the shard-merge contract. ------------

void expect_bins_bit_identical(const Histogram& a, const Histogram& b) {
  ASSERT_EQ(a.num_fields(), b.num_fields());
  for (std::uint32_t f = 0; f < a.num_fields(); ++f) {
    const auto x = a.field(f);
    const auto y = b.field(f);
    ASSERT_EQ(x.size(), y.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
      // EXPECT_EQ, not NEAR: quantized accumulation is exact, so any
      // grouping of the same records produces the same bits.
      EXPECT_EQ(x[i].count, y[i].count) << "field " << f << " bin " << i;
      EXPECT_EQ(x[i].g, y[i].g) << "field " << f << " bin " << i;
      EXPECT_EQ(x[i].h, y[i].h) << "field " << f << " bin " << i;
    }
  }
}

TEST(HistogramMerge, QuantizeStatIsIdempotentOnTheGrid) {
  for (const double x : {0.0, 1.0, -0.37, 123.456, -1e-9, 0.99999988079071}) {
    const double q = quantize_stat(x);
    EXPECT_EQ(quantize_stat(q), q) << x;
    // On-grid: an exact multiple of the quantum.
    EXPECT_EQ(q, std::nearbyint(q * kStatInvQuantum) * kStatQuantum);
    // Close to the input: within half a quantum.
    EXPECT_NEAR(q, x, kStatQuantum / 2) << x;
  }
}

TEST(HistogramMerge, ExactUnderAnyContiguousShardSplit) {
  // The shard-merge contract: per-shard histograms over contiguous row
  // ranges, merged with Histogram::add in shard order, are bit-identical
  // to one build over all rows -- for every shard count, including uneven
  // splits (n = 997 is prime).
  const std::uint64_t n = 997;
  const auto data = small_binned(n, 5);
  const auto grads = random_gradients(n, 6);
  const auto rows = all_rows(n);

  Histogram whole(data);
  whole.build(data, rows, grads);
  const std::uint64_t count = whole.totals().count_u64();
  EXPECT_EQ(count, n);  // count conservation, exactly

  for (const std::uint32_t shards : {2u, 3u, 5u, 8u, 16u}) {
    Histogram merged(data);
    std::uint64_t merged_rows = 0;
    for (std::uint32_t s = 0; s < shards; ++s) {
      const std::uint64_t begin = n * s / shards;
      const std::uint64_t end = n * (s + 1) / shards;
      Histogram part(data);
      part.build(data,
                 std::span<const std::uint32_t>(rows.data() + begin,
                                                end - begin),
                 grads);
      merged_rows += part.totals().count_u64();
      merged.add(part);
    }
    EXPECT_EQ(merged_rows, n) << shards << " shards";
    EXPECT_EQ(merged.totals().count_u64(), n) << shards << " shards";
    expect_bins_bit_identical(merged, whole);
  }
}

TEST(HistogramMerge, ExactUnderAnyMergeOrder) {
  // Order-insensitivity of the merge operator itself: forward, reverse,
  // and odd/even interleaved merge orders all produce the same bits.
  const std::uint64_t n = 1200;
  const auto data = small_binned(n, 7);
  const auto grads = random_gradients(n, 8);
  const auto rows = all_rows(n);
  const std::uint32_t shards = 7;

  std::vector<Histogram> parts;
  for (std::uint32_t s = 0; s < shards; ++s) {
    const std::uint64_t begin = n * s / shards;
    const std::uint64_t end = n * (s + 1) / shards;
    Histogram part(data);
    part.build(data,
               std::span<const std::uint32_t>(rows.data() + begin,
                                              end - begin),
               grads);
    parts.push_back(std::move(part));
  }

  std::vector<std::vector<std::uint32_t>> orders = {
      {0, 1, 2, 3, 4, 5, 6}, {6, 5, 4, 3, 2, 1, 0}, {1, 3, 5, 0, 2, 4, 6}};
  Histogram reference(data);
  for (std::size_t o = 0; o < orders.size(); ++o) {
    Histogram merged(data);
    for (const std::uint32_t s : orders[o]) merged.add(parts[s]);
    if (o == 0) {
      reference = merged;
    } else {
      expect_bins_bit_identical(merged, reference);
    }
  }
}

TEST(HistogramMerge, RowMajorReferenceAndChunkedBuildsAllBitIdentical) {
  // With exact accumulation the row-major kernel, the column-gather
  // reference, and an arbitrary two-piece split all agree bit for bit.
  const std::uint64_t n = 800;
  const auto data = small_binned(n, 9);
  const auto grads = random_gradients(n, 10);
  const auto rows = all_rows(n);

  Histogram row_major(data), reference(data), pieces(data);
  row_major.build(data, rows, grads);
  reference.build_reference(data, rows, grads);
  pieces.build(data, std::span<const std::uint32_t>(rows.data(), 311), grads);
  pieces.build(data,
               std::span<const std::uint32_t>(rows.data() + 311, n - 311),
               grads);
  expect_bins_bit_identical(reference, row_major);
  expect_bins_bit_identical(pieces, row_major);
}

TEST(HistogramMerge, SubtractionIsExactOnQuantizedSums) {
  // parent - smaller == larger, bit for bit (the sibling trick never
  // leaves FP residue on the quantum grid).
  const std::uint64_t n = 900;
  const auto data = small_binned(n, 11);
  const auto grads = random_gradients(n, 12);
  const auto rows = all_rows(n);

  Histogram parent(data), left(data), right_direct(data);
  parent.build(data, rows, grads);
  left.build(data, std::span<const std::uint32_t>(rows.data(), 350), grads);
  right_direct.build(
      data, std::span<const std::uint32_t>(rows.data() + 350, n - 350),
      grads);

  Histogram right_sub;
  right_sub.subtract_from(parent, left);
  expect_bins_bit_identical(right_sub, right_direct);
}

}  // namespace
}  // namespace booster::gbdt

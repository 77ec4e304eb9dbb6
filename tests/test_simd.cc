// The SIMD dispatch layer (util/simd.h): level naming/parsing, the
// BOOSTER_SIMD resolution rule, and -- the property everything else leans
// on -- bit-equality of every kernel against its scalar reference at every
// dispatch level this host can execute. Levels the host (or toolchain)
// lacks are skipped, never failed, so the suite is green on any machine.
// Also covers the FlatEnsemble bulk-prediction path: predict_many must
// match per-record Model::predict EXPECT_EQ-exactly, including uneven tile
// tails, categorical splits, missing values, and single-leaf trees; and
// the fixed-depth traversal kernel on hand-built trees (root leaf, an
// 18-deep unbalanced chain, every predicate edge) over guard-paged
// columns, at every tile length and at both ends of a column.
#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "gbdt/binning.h"
#include "gbdt/flat_ensemble.h"
#include "gbdt/histogram.h"
#include "gbdt/trainer.h"
#include "gbdt/tree.h"
#include "util/aligned.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/simd.h"
#include "workloads/spec.h"
#include "workloads/synth.h"

namespace booster::util::simd {
namespace {

/// True when this binary carries `level`'s kernel table *and* the host can
/// execute it (kernels(level) falls back to scalar otherwise).
bool level_available(Level level) { return kernels(level).level == level; }

const Level kWideLevels[] = {Level::kAvx2, Level::kAvx512};

TEST(SimdDispatch, LevelNamesRoundTrip) {
  for (const Level level :
       {Level::kScalar, Level::kAvx2, Level::kAvx512}) {
    Level parsed;
    ASSERT_TRUE(parse_level(level_name(level), &parsed));
    EXPECT_EQ(parsed, level);
  }
  Level parsed;
  EXPECT_FALSE(parse_level("sse9", &parsed));
  EXPECT_FALSE(parse_level("", &parsed));
  EXPECT_FALSE(parse_level("AVX2", &parsed));  // names are lowercase
}

TEST(SimdDispatch, ResolveClampsOverrideToDetected) {
  // An override can lower the level...
  EXPECT_EQ(resolve(Level::kAvx512, "scalar"), Level::kScalar);
  EXPECT_EQ(resolve(Level::kAvx512, "avx2"), Level::kAvx2);
  EXPECT_EQ(resolve(Level::kAvx2, "scalar"), Level::kScalar);
  // ...but never raise it above what the host supports.
  EXPECT_EQ(resolve(Level::kScalar, "avx512"), Level::kScalar);
  EXPECT_EQ(resolve(Level::kAvx2, "avx512"), Level::kAvx2);
  // No/garbage override: detected wins.
  EXPECT_EQ(resolve(Level::kAvx512, nullptr), Level::kAvx512);
  EXPECT_EQ(resolve(Level::kAvx2, "bogus"), Level::kAvx2);
  EXPECT_EQ(resolve(Level::kScalar, nullptr), Level::kScalar);
}

TEST(SimdDispatch, DetectedWithinCompiledAndActiveWithinDetected) {
  EXPECT_LE(static_cast<int>(detected()), static_cast<int>(compiled_max()));
  EXPECT_LE(static_cast<int>(active()), static_cast<int>(detected()));
  // Every level at or below detected() must actually hand out its table.
  for (const Level level : kWideLevels) {
    if (static_cast<int>(level) <= static_cast<int>(detected())) {
      EXPECT_TRUE(level_available(level)) << level_name(level);
    }
  }
  EXPECT_TRUE(level_available(Level::kScalar));
}

TEST(SimdDispatch, ScopedLevelRepointsActiveAndRestores) {
  const Level before = active();
  {
    const ScopedLevelForTesting scoped(Level::kScalar);
    EXPECT_EQ(active(), Level::kScalar);
    EXPECT_EQ(kernels().level, Level::kScalar);
  }
  EXPECT_EQ(active(), before);
}

TEST(SimdDispatch, UnsupportedLevelFallsBackToScalarTable) {
  // On hosts lacking a level, kernels(level) must degrade, not crash.
  for (const Level level : kWideLevels) {
    const Kernels& k = kernels(level);
    if (!level_available(level)) {
      EXPECT_EQ(k.level, Level::kScalar) << level_name(level);
    }
    ASSERT_NE(k.add, nullptr);
    ASSERT_NE(k.traverse_block, nullptr);
  }
}

// ------------------------------------------------------- kernel bit-equality

/// Array lengths exercising full vectors, masked/scalar tails, and the
/// empty case for every lane width in the table.
const std::size_t kLengths[] = {0, 1, 3, 4, 7, 8, 9, 15, 16, 17, 31, 100};

std::vector<double> random_doubles(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.normal() * 3.0;
  return v;
}

TEST(SimdKernels, ArrayOpsBitIdenticalToScalar) {
  const Kernels& scalar = kernels(Level::kScalar);
  for (const Level level : kWideLevels) {
    if (!level_available(level)) continue;  // skip, never fail
    const Kernels& wide = kernels(level);
    for (const std::size_t n : kLengths) {
      const auto a = random_doubles(n, 7 * n + 1);
      const auto b = random_doubles(n, 7 * n + 2);

      auto dst_s = a, dst_w = a;
      scalar.add(dst_s.data(), b.data(), n);
      wide.add(dst_w.data(), b.data(), n);
      EXPECT_EQ(dst_s, dst_w) << level_name(level) << " add n=" << n;

      dst_s = a, dst_w = a;
      scalar.sub(dst_s.data(), b.data(), n);
      wide.sub(dst_w.data(), b.data(), n);
      EXPECT_EQ(dst_s, dst_w) << level_name(level) << " sub n=" << n;

      std::vector<double> out_s(n, -1.0), out_w(n, -2.0);
      scalar.diff(out_s.data(), a.data(), b.data(), n);
      wide.diff(out_w.data(), a.data(), b.data(), n);
      EXPECT_EQ(out_s, out_w) << level_name(level) << " diff n=" << n;

      dst_w = a;
      wide.zero(dst_w.data(), n);
      EXPECT_EQ(dst_w, std::vector<double>(n, 0.0))
          << level_name(level) << " zero n=" << n;
    }
  }
}

TEST(SimdKernels, PrefixSum4BitIdenticalToScalar) {
  // prefix_sum4 adds in index order at every level, so even inexact
  // operands (unquantized gradients, a non-zero fourth lane) must give the
  // scalar bits.
  const Kernels& scalar = kernels(Level::kScalar);
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{3},
        std::size_t{7}, std::size_t{64}, std::size_t{255}}) {
    const std::vector<double> src = random_doubles(4 * n, 4242 + n);
    // Scalar kernel against a naive running sum.
    std::vector<double> expect(4 * n);
    double sum[4] = {0.0, 0.0, 0.0, 0.0};
    for (std::size_t i = 0; i < 4 * n; ++i) {
      sum[i % 4] += src[i];
      expect[i] = sum[i % 4];
    }
    std::vector<double> out_s(4 * n, -1.0);
    scalar.prefix_sum4(src.data(), n, out_s.data());
    EXPECT_EQ(out_s, expect) << "scalar n=" << n;

    for (const Level level : kWideLevels) {
      if (!level_available(level)) continue;  // skip, never fail
      std::vector<double> out_w(4 * n, -2.0);
      kernels(level).prefix_sum4(src.data(), n, out_w.data());
      EXPECT_EQ(out_w, out_s) << level_name(level) << " n=" << n;
    }
  }
}

TEST(SimdKernels, QuantizeGatherBitIdenticalToScalar) {
  const Kernels& scalar = kernels(Level::kScalar);
  // Random pairs plus adversarial rounding ties: (2k+1) * quantum/2 is
  // exactly representable and sits exactly between two grid points, where
  // round-to-nearest-even decides -- the vector round must agree with
  // std::nearbyint on every one.
  constexpr std::size_t kPairs = 300;
  std::vector<gbdt::GradientPair> pairs(kPairs);
  Rng rng(99);
  for (std::size_t i = 0; i < kPairs; ++i) {
    if (i % 3 == 0) {
      const float half = static_cast<float>(gbdt::kStatQuantum) * 0.5f;
      pairs[i].g = static_cast<float>(2 * i + 1) * half;
      pairs[i].h = -static_cast<float>(2 * i + 9) * half;
    } else {
      pairs[i].g = static_cast<float>(rng.normal());
      pairs[i].h = static_cast<float>(rng.uniform(0.0, 2.0));
    }
  }
  // Rows in scrambled order with repeats (as mid-tree nodes produce).
  std::vector<std::uint32_t> rows;
  for (std::uint32_t r = 0; r < kPairs; ++r) {
    rows.push_back((r * 7 + 3) % kPairs);
    if (r % 5 == 0) rows.push_back(r);
  }
  const float* flat = reinterpret_cast<const float*>(pairs.data());

  // The same rows seen from a holder whose pairs start at row kBase.
  constexpr std::uint32_t kBase = 1000;
  std::vector<std::uint32_t> based_rows = rows;
  for (std::uint32_t& r : based_rows) r += kBase;

  for (const Level level : kWideLevels) {
    if (!level_available(level)) continue;
    const Kernels& wide = kernels(level);
    for (const std::size_t n : kLengths) {
      ASSERT_LE(n, rows.size());
      std::vector<double> qg_s(n, -1), qh_s(n, -1), qg_w(n, -2), qh_w(n, -2);
      scalar.quantize_gather(flat, rows.data(), n, 0, gbdt::kStatInvQuantum,
                             gbdt::kStatQuantum, qg_s.data(), qh_s.data());
      wide.quantize_gather(flat, rows.data(), n, 0, gbdt::kStatInvQuantum,
                           gbdt::kStatQuantum, qg_w.data(), qh_w.data());
      EXPECT_EQ(qg_s, qg_w) << level_name(level) << " qg n=" << n;
      EXPECT_EQ(qh_s, qh_w) << level_name(level) << " qh n=" << n;
      for (const Kernels* k : {&scalar, &wide}) {
        std::vector<double> qg_b(n, -3), qh_b(n, -3);
        k->quantize_gather(flat, based_rows.data(), n, kBase,
                           gbdt::kStatInvQuantum, gbdt::kStatQuantum,
                           qg_b.data(), qh_b.data());
        EXPECT_EQ(qg_s, qg_b) << level_name(k->level) << " based n=" << n;
        EXPECT_EQ(qh_s, qh_b) << level_name(k->level) << " based n=" << n;
      }
    }
  }
}


// ------------------------------------------------ step-5 logistic refresh

/// One logistic_refresh call's outputs.
struct RefreshOut {
  std::vector<float> preds;
  std::vector<float> grads;
  double loss = 0.0;
};

RefreshOut run_refresh(const Kernels& k, std::vector<float> preds,
                       const std::vector<float>& deltas,
                       const std::vector<float>& labels, bool with_loss,
                       double inv_quantum = gbdt::kStatInvQuantum,
                       double quantum = gbdt::kStatQuantum) {
  RefreshOut out;
  // Two sentinel pairs past the end catch a store beyond row n.
  out.grads.assign(2 * preds.size() + 4, -7.0f);
  out.loss = k.logistic_refresh(
      preds.data(), deltas.empty() ? nullptr : deltas.data(), labels.data(),
      preds.size(), out.grads.data(), with_loss, inv_quantum, quantum);
  out.preds = std::move(preds);
  return out;
}

/// Byte equality of every output (NaNs included, bit for bit).
void expect_refresh_bits_equal(const RefreshOut& want, const RefreshOut& got,
                               const std::string& what) {
  ASSERT_EQ(want.preds.size(), got.preds.size()) << what;
  ASSERT_EQ(want.grads.size(), got.grads.size()) << what;
  for (std::size_t i = 0; i < want.preds.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(want.preds[i]),
              std::bit_cast<std::uint32_t>(got.preds[i]))
        << what << ": preds[" << i << "]";
  }
  for (std::size_t i = 0; i < want.grads.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(want.grads[i]),
              std::bit_cast<std::uint32_t>(got.grads[i]))
        << what << ": grads[" << i << "] " << want.grads[i] << " vs "
        << got.grads[i];
  }
  EXPECT_EQ(std::bit_cast<std::uint64_t>(want.loss),
            std::bit_cast<std::uint64_t>(got.loss))
      << what << ": loss " << want.loss << " vs " << got.loss;
}

/// Every level against the scalar level, with and without deltas and the
/// loss sum.
void expect_refresh_levels_agree(const std::vector<float>& preds,
                                 const std::vector<float>& deltas,
                                 const std::vector<float>& labels,
                                 const std::string& what) {
  const Kernels& scalar = kernels(Level::kScalar);
  for (const bool with_deltas : {false, true}) {
    const std::vector<float> none;
    const std::vector<float>& d = with_deltas ? deltas : none;
    for (const bool with_loss : {false, true}) {
      const RefreshOut want = run_refresh(scalar, preds, d, labels, with_loss);
      if (!with_loss) {
        EXPECT_EQ(want.loss, 0.0) << what;
      }
      for (std::size_t i = 2 * preds.size(); i < want.grads.size(); ++i) {
        ASSERT_EQ(want.grads[i], -7.0f) << what << ": store past row n";
      }
      for (const Level level : kWideLevels) {
        if (!level_available(level)) continue;  // skip, never fail
        expect_refresh_bits_equal(
            want, run_refresh(kernels(level), preds, d, labels, with_loss),
            what + " " + level_name(level) + (with_deltas ? " +deltas" : "") +
                (with_loss ? " +loss" : ""));
      }
    }
  }
}

/// `n` preds uniform in [lo, hi], labels drawn from {0, 1, 0.25}, deltas
/// ~ N(0, 0.5).
void refresh_inputs(std::size_t n, double lo, double hi, std::uint64_t seed,
                    std::vector<float>* preds, std::vector<float>* deltas,
                    std::vector<float>* labels) {
  Rng rng(seed);
  const float kLabels[] = {0.0f, 1.0f, 0.25f};
  preds->resize(n);
  deltas->resize(n);
  labels->resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    (*preds)[i] = static_cast<float>(rng.uniform(lo, hi));
    (*deltas)[i] = static_cast<float>(rng.normal() * 0.5);
    (*labels)[i] = kLabels[rng.next_below(3)];
  }
}

TEST(SimdKernels, LogisticRefreshSweepBitIdenticalToScalar) {
  // ~1M preds over [-60, 60]: both saturated tails, the loss clamp
  // (|pred| > 34.5) and the hessian floor (|pred| > 36.8).
  std::vector<float> preds, deltas, labels;
  refresh_inputs(1 << 20, -60.0, 60.0, 2024, &preds, &deltas, &labels);
  expect_refresh_levels_agree(preds, deltas, labels, "sweep");
}

TEST(SimdKernels, LogisticRefreshLowBitsIdenticalToScalar) {
  // The sweep's outputs -- float g/h and a 2^-24 loss grid -- hide a
  // last-bit difference in exp or log, such as a multiply-add one level's
  // build contracted into an FMA. Here labels sit at each row's own
  // probability, y = float(sigmoid(pred)), so g = float(p - y) keeps p's
  // low bits; and the loss goes on a 2^-45 grid in 256-row calls, which
  // keeps the log's low bits while every call's sum stays exact (each
  // term is below ln 2, so 256 of them stay below 2^53 quanta).
  constexpr std::size_t kChunk = 256;
  constexpr double kFineInv = 35184372088832.0;  // 2^45
  constexpr double kFine = 1.0 / kFineInv;
  Rng rng(4242);
  const Kernels& scalar = kernels(Level::kScalar);
  for (std::size_t chunk = 0; chunk < 1024; ++chunk) {
    std::vector<float> preds(kChunk), labels(kChunk);
    for (std::size_t i = 0; i < kChunk; ++i) {
      preds[i] = static_cast<float>(rng.uniform(-20.0, 20.0));
      labels[i] = static_cast<float>(
          1.0 / (1.0 + std::exp(-static_cast<double>(preds[i]))));
    }
    const RefreshOut want =
        run_refresh(scalar, preds, {}, labels, true, kFineInv, kFine);
    for (const Level level : kWideLevels) {
      if (!level_available(level)) continue;  // skip, never fail
      expect_refresh_bits_equal(
          want,
          run_refresh(kernels(level), preds, {}, labels, true, kFineInv,
                      kFine),
          "low bits chunk " + std::to_string(chunk) + " " +
              level_name(level));
    }
  }
}

TEST(SimdKernels, LogisticRefreshTailLengthsBitIdenticalToScalar) {
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 17; ++n) lengths.push_back(n);
  lengths.push_back(4097);
  for (const std::size_t n : lengths) {
    std::vector<float> preds, deltas, labels;
    refresh_inputs(n, -8.0, 8.0, 91 + n, &preds, &deltas, &labels);
    expect_refresh_levels_agree(preds, deltas, labels,
                                "n=" + std::to_string(n));
  }
}

TEST(SimdKernels, LogisticRefreshEdgesBitIdenticalToScalar) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  std::vector<float> edges = {0.0f,  -0.0f,  36.0f,  -36.0f, 40.0f,
                              -40.0f, 80.0f, -80.0f, 700.0f, -700.0f,
                              750.0f, -750.0f, inf,  -inf};
  // Every edge with every label, at every position of a vector.
  std::vector<float> preds, labels;
  for (const float y : {0.0f, 1.0f, 0.25f}) {
    for (const float e : edges) {
      preds.push_back(e);
      labels.push_back(y);
    }
  }
  const std::vector<float> zero_deltas(preds.size(), 0.0f);
  expect_refresh_levels_agree(preds, zero_deltas, labels, "edges");

  // The finite edges saturate the sigmoid as the C library's exp does.
  const RefreshOut edge_out =
      run_refresh(kernels(Level::kScalar), preds, {}, labels, true);
  for (std::size_t i = 0; i < preds.size(); ++i) {
    const double p = 1.0 / (1.0 + std::exp(-static_cast<double>(preds[i])));
    EXPECT_EQ(edge_out.grads[2 * i], static_cast<float>(p - labels[i]))
        << "pred=" << preds[i] << " y=" << labels[i];
  }

  // A NaN pred gives NaN g, h and loss, as the C library's exp/log do.
  std::vector<float> with_nan = preds;
  with_nan.push_back(nan);
  std::vector<float> nan_labels = labels;
  nan_labels.push_back(0.0f);
  const std::vector<float> nan_deltas(with_nan.size(), 0.0f);
  expect_refresh_levels_agree(with_nan, nan_deltas, nan_labels, "nan");
  for (const Level level : {Level::kScalar, Level::kAvx2, Level::kAvx512}) {
    if (!level_available(level)) continue;
    const RefreshOut out =
        run_refresh(kernels(level), {nan}, {}, {0.0f}, true);
    EXPECT_TRUE(std::isnan(out.grads[0])) << level_name(level);
    EXPECT_TRUE(std::isnan(out.grads[1])) << level_name(level);
    EXPECT_TRUE(std::isnan(out.loss)) << level_name(level);
  }
}
}  // namespace
}  // namespace booster::util::simd

namespace booster::gbdt {
namespace {

namespace simd = util::simd;

BinnedDataset synth_binned(std::uint64_t n, std::uint64_t seed) {
  workloads::DatasetSpec spec;
  spec.name = "simd";
  spec.nominal_records = n;
  spec.numeric_fields = 5;
  spec.categorical_cardinalities = {6, 3};  // categorical splits in play
  spec.missing_rate = 0.2;                  // bin-0 default routing in play
  spec.loss = "logistic";
  return Binner().bin(workloads::synthesize(spec, n, seed));
}

Model train_model(const BinnedDataset& data, std::uint32_t trees,
                  std::uint32_t max_depth) {
  TrainerConfig cfg;
  cfg.num_trees = trees;
  cfg.max_depth = max_depth;
  cfg.loss = "logistic";
  cfg.num_threads = 1;
  return Trainer(cfg).train(data).model;
}

// Histogram ops ride the dispatched kernels (histogram.cc): whole-object
// equality against a scalar-pinned run, at awkward shapes.
TEST(SimdKernels, HistogramOpsBitIdenticalAcrossLevels) {
  const auto data = synth_binned(1003, 5);
  std::vector<GradientPair> grads(data.num_records());
  util::Rng rng(17);
  for (auto& gp : grads) {
    gp.g = static_cast<float>(rng.normal());
    gp.h = static_cast<float>(rng.uniform(0.1, 1.0));
  }
  std::vector<std::uint32_t> all(data.num_records());
  for (std::uint32_t r = 0; r < all.size(); ++r) all[r] = r;
  const std::span<const std::uint32_t> subset =
      std::span<const std::uint32_t>(all).subspan(101, 517);

  const auto run = [&](simd::Level level) {
    const simd::ScopedLevelForTesting scoped(level);
    Histogram parent(data), sibling(data), diff(data);
    parent.build(data, all, grads);
    sibling.build(data, subset, grads);
    diff.subtract_from(parent, sibling);
    Histogram sum(data);
    sum.add(diff);
    sum.add(sibling);
    return std::tuple(std::move(parent), std::move(diff), std::move(sum));
  };

  const auto [parent_s, diff_s, sum_s] = run(simd::Level::kScalar);
  for (std::uint32_t f = 0; f < parent_s.num_fields(); ++f) {
    // add(diff) + add(sibling) reassembles the parent exactly: quantized
    // accumulation is order-insensitive.
    const auto p = parent_s.field(f);
    const auto s = sum_s.field(f);
    for (std::size_t i = 0; i < p.size(); ++i) {
      EXPECT_EQ(p[i].g, s[i].g);
      EXPECT_EQ(p[i].h, s[i].h);
      EXPECT_EQ(p[i].count, s[i].count);
    }
  }
  for (const simd::Level level : {simd::Level::kAvx2, simd::Level::kAvx512}) {
    if (simd::kernels(level).level != level) continue;  // skip, never fail
    const auto [parent_w, diff_w, sum_w] = run(level);
    for (std::uint32_t f = 0; f < parent_s.num_fields(); ++f) {
      const auto a = parent_s.field(f);
      const auto b = parent_w.field(f);
      const auto da = diff_s.field(f);
      const auto db = diff_w.field(f);
      ASSERT_EQ(a.size(), b.size());
      for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].g, b[i].g) << simd::level_name(level);
        EXPECT_EQ(a[i].h, b[i].h);
        EXPECT_EQ(a[i].count, b[i].count);
        EXPECT_EQ(da[i].g, db[i].g);
        EXPECT_EQ(da[i].h, db[i].h);
        EXPECT_EQ(da[i].count, db[i].count);
      }
    }
  }
}

// ------------------------------------------------------------ bin scatter

/// 4-double bin lanes {count, g, h, pad} on a 64-byte-aligned start, the
/// layout Histogram's buffer gives scatter_bins.
using LaneBuffer = std::vector<double, util::AlignedAllocator<double, 64>>;

/// One scatter_bins input: a dataset's bin shape and row-major matrix (or
/// a substitute matrix), the node's rows and their quantized {g, h}.
struct ScatterInput {
  std::vector<std::uint32_t> offsets;  // num_fields + 1 lane offsets
  const std::uint16_t* row_major = nullptr;
  std::size_t num_fields = 0;
  std::vector<std::uint32_t> rows;
  std::vector<double> qg, qh;
};

ScatterInput scatter_input(const BinnedDataset& data) {
  ScatterInput in;
  in.num_fields = data.num_fields();
  in.offsets.push_back(0);
  for (std::uint32_t f = 0; f < data.num_fields(); ++f) {
    in.offsets.push_back(in.offsets.back() + data.field_bins(f).num_bins);
  }
  data.ensure_row_major();
  in.row_major = data.row_major_bins();
  return in;
}

/// The per-update definition of Kernels::scatter_bins, written out.
LaneBuffer scatter_reference(const ScatterInput& in) {
  LaneBuffer ref(4 * static_cast<std::size_t>(in.offsets.back()), 0.0);
  for (std::size_t i = 0; i < in.rows.size(); ++i) {
    const std::uint16_t* rec =
        in.row_major + static_cast<std::size_t>(in.rows[i]) * in.num_fields;
    for (std::size_t f = 0; f < in.num_fields; ++f) {
      const std::size_t lane = in.offsets[f] + rec[f];
      ref[4 * lane] += 1.0;
      ref[4 * lane + 1] += in.qg[i];
      ref[4 * lane + 2] += in.qh[i];
    }
  }
  return ref;
}

/// Runs scatter_bins at every available level on a zeroed buffer and
/// requires the reference's bytes exactly, pad lanes +0.0 included.
void expect_scatter_matches_reference(const ScatterInput& in,
                                      const char* label) {
  const LaneBuffer ref = scatter_reference(in);
  for (const simd::Level level :
       {simd::Level::kScalar, simd::Level::kAvx2, simd::Level::kAvx512}) {
    if (simd::kernels(level).level != level) continue;  // skip, never fail
    LaneBuffer out(ref.size(), 0.0);
    simd::kernels(level).scatter_bins(out.data(), in.offsets.data(),
                                      in.row_major, in.num_fields,
                                      in.rows.data(), in.rows.size(),
                                      in.qg.data(), in.qh.data());
    EXPECT_EQ(std::memcmp(out.data(), ref.data(), ref.size() * sizeof(double)),
              0)
        << label << " " << simd::level_name(level) << " n=" << in.rows.size();
    for (std::size_t lane = 0; lane < out.size() / 4; ++lane) {
      EXPECT_TRUE(out[4 * lane + 3] == 0.0 && !std::signbit(out[4 * lane + 3]))
          << label << " " << simd::level_name(level) << " pad lane " << lane;
    }
  }
}

/// Quantized gradients for `n` records: mixed-sign g, non-negative h, and
/// some exact zeros, as a real node's gradient pairs produce.
void fill_quantized(std::size_t n, std::uint64_t seed, ScatterInput* in) {
  util::Rng rng(seed);
  in->qg.resize(n);
  in->qh.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    in->qg[i] = i % 17 == 0 ? 0.0 : quantize_stat(rng.normal());
    in->qh[i] = quantize_stat(rng.uniform(0.0, 1.0));
  }
}

TEST(SimdKernels, ScatterBinsBitIdenticalToReferenceAtEveryLevel) {
  constexpr std::uint64_t kRecords = 5003;
  const std::pair<const char*, workloads::DatasetSpec> shapes[] = {
      {"fraud", workloads::fraud_spec(kRecords)},
      {"Allstate", workloads::spec_by_name("Allstate")},
  };
  for (const auto& [label, spec] : shapes) {
    const BinnedDataset data =
        Binner().bin(workloads::synthesize(spec, kRecords, 23));
    for (const std::size_t n :
         {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{255},
          std::size_t{256}, std::size_t{257}, std::size_t{4097}}) {
      ScatterInput in = scatter_input(data);
      // Scrambled rows, as mid-tree nodes hand the kernel after partition.
      for (std::size_t i = 0; i < n; ++i) {
        in.rows.push_back(static_cast<std::uint32_t>((i * 7919 + 13) %
                                                     kRecords));
      }
      fill_quantized(n, 31 + n, &in);
      expect_scatter_matches_reference(in, label);
    }
  }
}

TEST(SimdKernels, ScatterBinsAllRowsInOneBin) {
  // Worst-case conflicts: every record's every field lands in the same
  // bin, so consecutive (and the two in-flight) updates all hit one lane.
  constexpr std::uint64_t kRecords = 4097;
  const BinnedDataset data = Binner().bin(
      workloads::synthesize(workloads::fraud_spec(kRecords), kRecords, 5));
  ScatterInput in = scatter_input(data);
  std::vector<std::uint16_t> same(kRecords * in.num_fields);
  for (std::size_t r = 0; r < kRecords; ++r) {
    for (std::size_t f = 0; f < in.num_fields; ++f) {
      same[r * in.num_fields + f] =
          static_cast<std::uint16_t>(data.field_bins(f).num_bins - 1);
    }
  }
  in.row_major = same.data();
  for (const std::size_t n : {std::size_t{1}, std::size_t{2},
                              std::size_t{257}, std::size_t{4097}}) {
    in.rows.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      in.rows[i] = static_cast<std::uint32_t>(i);
    }
    fill_quantized(n, 77 + n, &in);
    expect_scatter_matches_reference(in, "one-bin");
  }
}

TEST(SimdPredict, HistogramBuffersAre64ByteAligned) {
  const auto data = synth_binned(200, 3);
  const Histogram h(data);
  EXPECT_TRUE(h.aligned_to(64));
  HistogramPool pool(data);
  Histogram a = pool.acquire();
  EXPECT_TRUE(a.aligned_to(64));
  pool.release(std::move(a));
  Histogram b = pool.acquire();  // recycled buffer keeps its alignment
  EXPECT_TRUE(b.aligned_to(64));
}

/// predict_many vs per-record Model::predict, EXPECT_EQ, at every
/// available level; n = 1003 leaves an uneven tail at every tile width.
void expect_predict_many_matches(const Model& model,
                                 const BinnedDataset& data) {
  const FlatEnsemble flat(model);
  ASSERT_EQ(flat.num_trees(), model.num_trees());
  const std::uint64_t n = data.num_records();
  std::vector<double> raw(n), out(n);
  for (const simd::Level level :
       {simd::Level::kScalar, simd::Level::kAvx2, simd::Level::kAvx512}) {
    if (simd::kernels(level).level != level) continue;  // skip, never fail
    const simd::ScopedLevelForTesting scoped(level);
    flat.predict_raw_many(data, 0, n, raw);
    flat.predict_many(data, 0, n, out);
    for (std::uint64_t r = 0; r < n; ++r) {
      EXPECT_EQ(raw[r], model.predict_raw(data, r))
          << simd::level_name(level) << " record " << r;
      EXPECT_EQ(out[r], model.predict(data, r))
          << simd::level_name(level) << " record " << r;
    }
    // A misaligned sub-range: tiles start mid-dataset and end on a
    // fractional tile.
    const std::uint64_t begin = 13, end = n - 7;
    std::vector<double> sub(end - begin);
    flat.predict_raw_many(data, begin, end, sub);
    for (std::uint64_t r = begin; r < end; ++r) {
      EXPECT_EQ(sub[r - begin], model.predict_raw(data, r));
    }
  }
}

TEST(SimdPredict, PredictManyMatchesPerRecordExactly) {
  const auto data = synth_binned(1003, 11);
  expect_predict_many_matches(train_model(data, 7, 5), data);
}

TEST(SimdPredict, PredictManyHandlesSingleLeafTrees) {
  const auto data = synth_binned(523, 13);
  // max_depth = 0: every tree is a bare root leaf; traversal must write
  // the root weight without a single routing step.
  expect_predict_many_matches(train_model(data, 3, 0), data);
}

// ------------------------------------------------- fixed-depth traversal

/// Field columns that each fill whole pages and sit between PROT_NONE
/// guard pages: a traversal that reads a byte before a column's first
/// record or past its last one faults. AddressSanitizer does not see
/// intrinsic gathers, so this is the test of the kernels' over-read rule.
class GuardedColumns {
 public:
  /// `fields` columns of two pages each.
  explicit GuardedColumns(std::uint32_t fields)
      : page_(static_cast<std::size_t>(sysconf(_SC_PAGESIZE))),
        bytes_(2 * page_),
        records_(bytes_ / sizeof(BinIndex)) {
    for (std::uint32_t f = 0; f < fields; ++f) {
      void* base = mmap(nullptr, bytes_ + 2 * page_, PROT_READ | PROT_WRITE,
                        MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
      BOOSTER_CHECK(base != MAP_FAILED);
      auto* bytes = static_cast<std::uint8_t*>(base);
      BOOSTER_CHECK(mprotect(bytes, page_, PROT_NONE) == 0);
      BOOSTER_CHECK(mprotect(bytes + page_ + bytes_, page_, PROT_NONE) == 0);
      maps_.push_back(base);
      columns_.push_back(reinterpret_cast<BinIndex*>(bytes + page_));
    }
  }
  ~GuardedColumns() {
    for (void* base : maps_) munmap(base, bytes_ + 2 * page_);
  }
  GuardedColumns(const GuardedColumns&) = delete;
  GuardedColumns& operator=(const GuardedColumns&) = delete;

  std::size_t records() const { return records_; }
  BinIndex* column(std::uint32_t f) { return columns_[f]; }
  /// columns[f] + first for every field: the column-pointer form of a
  /// sub-range that starts at record `first`.
  std::vector<const BinIndex*> pointers(std::size_t first = 0) const {
    std::vector<const BinIndex*> out;
    for (BinIndex* c : columns_) out.push_back(c + first);
    return out;
  }

 private:
  std::size_t page_;
  std::size_t bytes_;
  std::size_t records_;
  std::vector<void*> maps_;
  std::vector<BinIndex*> columns_;
};

SplitInfo predicate(std::uint32_t field, PredicateKind kind,
                    std::uint16_t threshold, bool default_left) {
  SplitInfo s;
  s.field = field;
  s.kind = kind;
  s.threshold_bin = threshold;
  s.default_left = default_left;
  return s;
}

/// Gives every leaf of `tree` a distinct weight.
void weigh_leaves(Tree* tree, double scale) {
  for (std::uint32_t id = 0; id < tree->num_nodes(); ++id) {
    const auto node = static_cast<std::int32_t>(id);
    if (tree->node(node).is_leaf) {
      tree->set_leaf_weight(node, scale * (1.0 + id) / 3.0);
    }
  }
}

/// Hand-built trees over 3 fields: a root leaf; an unbalanced chain 18
/// levels deep with a leaf at every depth from 1, cycling numeric and
/// categorical predicates, both defaults and thresholds 0, 1, 3 and
/// 65535 (the largest bin); and a balanced depth-3 tree.
Model hand_built_model() {
  Model model(0.125, make_loss("logistic"));
  Tree root_leaf;
  root_leaf.set_leaf_weight(0, -0.75);
  model.add_tree(root_leaf);

  Tree chain;
  std::int32_t node = 0;
  const std::uint16_t thresholds[] = {0, 1, 3, 65535};
  for (std::uint32_t depth = 0; depth < 18; ++depth) {
    const auto kind = depth % 3 == 1 ? PredicateKind::kCategoryEqual
                                     : PredicateKind::kNumericLE;
    const auto [left, right] = chain.split_leaf(
        node, predicate(depth % 3, kind, thresholds[depth % 4],
                        depth % 2 == 0));
    // Alternate which side continues, so leaves sit on both sides.
    node = depth % 4 < 2 ? right : left;
  }
  weigh_leaves(&chain, 1.0);
  EXPECT_EQ(chain.max_depth(), 18u);
  model.add_tree(chain);

  Tree balanced;
  const auto [l, r] = balanced.split_leaf(
      0, predicate(0, PredicateKind::kNumericLE, 2, true));
  const auto [ll, lr] = balanced.split_leaf(
      l, predicate(1, PredicateKind::kCategoryEqual, 1, false));
  const auto [rl, rr] = balanced.split_leaf(
      r, predicate(2, PredicateKind::kCategoryEqual, 65535, true));
  balanced.split_leaf(ll,
                      predicate(2, PredicateKind::kNumericLE, 65535, false));
  balanced.split_leaf(lr, predicate(0, PredicateKind::kNumericLE, 0, true));
  balanced.split_leaf(rl, predicate(1, PredicateKind::kNumericLE, 1, false));
  balanced.split_leaf(rr,
                      predicate(0, PredicateKind::kCategoryEqual, 3, false));
  weigh_leaves(&balanced, -0.5);
  model.add_tree(balanced);
  return model;
}

/// Bins drawn to hit every predicate edge: missing (0), the thresholds
/// and their neighbours, and the largest bin.
void fill_edge_bins(GuardedColumns* cols, std::uint64_t seed) {
  const BinIndex values[] = {0, 0, 1, 2, 3, 4, 65534, 65535};
  util::Rng rng(seed);
  for (std::uint32_t f = 0; f < 3; ++f) {
    for (std::size_t r = 0; r < cols->records(); ++r) {
      cols->column(f)[r] = values[rng.next_below(8)];
    }
  }
}

/// Tree::predict's walk -- the routing Model::predict makes -- over raw
/// column pointers.
double tree_weight(const Tree& tree, const BinIndex* const* columns,
                   std::size_t record) {
  std::int32_t id = tree.root();
  while (!tree.node(id).is_leaf) {
    const TreeNode& n = tree.node(id);
    id = tree.goes_left(id, columns[n.field][record]) ? n.left : n.right;
  }
  return tree.node(id).weight;
}

const simd::Level kAllLevels[] = {simd::Level::kScalar, simd::Level::kAvx2,
                                  simd::Level::kAvx512};

TEST(SimdTraverse, EveryLevelMatchesScalarAndTreeWalk) {
  GuardedColumns cols(3);
  fill_edge_bins(&cols, 31);
  const Model model = hand_built_model();
  const auto ptrs = cols.pointers();
  const std::size_t n = cols.records();
  for (const Tree& tree : model.trees()) {
    const FlatTree flat(tree);
    EXPECT_EQ(flat.depth(), tree.max_depth());
    for (std::size_t count = 1; count <= simd::kMaxPredictTile; ++count) {
      // The column's first records, a start mid-column, and its last
      // records (the over-read guard).
      for (const std::size_t first : {std::size_t{0}, std::size_t{777},
                                       n - count}) {
        double ref[simd::kMaxPredictTile];
        simd::kernels(simd::Level::kScalar)
            .traverse_block(flat.view(), ptrs.data(), first, count, ref);
        for (std::size_t i = 0; i < count; ++i) {
          ASSERT_EQ(ref[i], tree_weight(tree, ptrs.data(), first + i))
              << "record " << first + i;
        }
        for (const simd::Level level : kAllLevels) {
          if (simd::kernels(level).level != level) continue;
          double got[simd::kMaxPredictTile];
          simd::kernels(level).traverse_block(flat.view(), ptrs.data(),
                                              first, count, got);
          for (std::size_t i = 0; i < count; ++i) {
            ASSERT_EQ(got[i], ref[i])
                << simd::level_name(level) << " depth " << flat.depth()
                << " count " << count << " first " << first << " lane " << i;
          }
        }
      }
    }
  }
}

TEST(SimdTraverse, PredictManyOnColumnPointersMatchesTreeWalk) {
  GuardedColumns cols(3);
  fill_edge_bins(&cols, 32);
  const Model model = hand_built_model();
  const FlatEnsemble flat(model);
  const std::size_t n = cols.records();
  std::vector<std::size_t> counts;
  for (std::size_t c = 1; c <= 17; ++c) counts.push_back(c);
  counts.push_back(33);
  for (const simd::Level level : kAllLevels) {
    if (simd::kernels(level).level != level) continue;
    const simd::ScopedLevelForTesting scoped(level);
    for (const std::size_t count : counts) {
      for (const std::size_t first : {std::size_t{0}, std::size_t{1001},
                                       n - count}) {
        const auto ptrs = cols.pointers(first);
        std::vector<double> raw(count);
        flat.predict_raw_many(ptrs.data(), count, raw);
        for (std::size_t i = 0; i < count; ++i) {
          double want = model.base_score();
          for (const Tree& tree : model.trees()) {
            want += tree_weight(tree, ptrs.data(), i);
          }
          ASSERT_EQ(raw[i], want) << simd::level_name(level) << " count "
                                  << count << " first " << first;
        }
      }
    }
  }
}

}  // namespace
}  // namespace booster::gbdt

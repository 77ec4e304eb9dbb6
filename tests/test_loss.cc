#include "gbdt/loss.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "gbdt/histogram.h"
#include "util/rng.h"
#include "util/simd.h"

namespace booster::gbdt {
namespace {

/// Central-difference check: g must match dl/dpred and h must match
/// d2l/dpred2 for every loss -- the property GB training relies on.
void check_gradients_numerically(const Loss& loss, float pred, float y) {
  // kEps must stay well above float's resolution at |pred| (the Loss
  // interface takes float predictions); 0.05 keeps the float rounding error
  // negligible while the O(eps^2) truncation stays within tolerance.
  constexpr float kEps = 0.05f;
  const auto gp = loss.gradients(pred, y);
  const double l_plus = loss.value(pred + kEps, y);
  const double l_minus = loss.value(pred - kEps, y);
  const double l_mid = loss.value(pred, y);
  const double g_num = (l_plus - l_minus) / (2.0 * kEps);
  const double h_num = (l_plus - 2 * l_mid + l_minus) / (double{kEps} * kEps);
  EXPECT_NEAR(gp.g, g_num, 5e-3) << "first-order gradient mismatch";
  EXPECT_NEAR(gp.h, std::max(h_num, 1e-16), 1e-2)
      << "second-order gradient mismatch";
}

class LossGradientSweep
    : public ::testing::TestWithParam<std::tuple<std::string, float, float>> {};

TEST_P(LossGradientSweep, MatchesNumericalDifferentiation) {
  const auto& [name, pred, y] = GetParam();
  const auto loss = make_loss(name);
  check_gradients_numerically(*loss, pred, y);
}

INSTANTIATE_TEST_SUITE_P(
    AllLosses, LossGradientSweep,
    ::testing::Combine(::testing::Values("squared", "logistic", "ranking"),
                       ::testing::Values(-2.0f, -0.5f, 0.0f, 0.7f, 3.0f),
                       ::testing::Values(0.0f, 1.0f, 2.0f)));

// LogisticLoss's per-row calls (the scalar lane of the step-5 kernel) take
// one log term for a hard label. They must equal the textbook formula on
// the same in-repo exp/log bit for bit -- signed zeros included -- for
// hard and soft labels, across the clamp (|sigmoid - {0, 1}| < 1e-15 near
// |pred| = 34.54) and hessian-floor (p (1 - p) < 1e-16 near |pred| =
// 36.84) edges: the dropped term would only add a signed zero.
TEST(LogisticLoss, MatchesTwoTermFormulaBitwise) {
  const float preds[] = {-40.0f,   -36.9f, -36.84f, -36.8f, -34.6f,
                         -34.54f,  -34.5f, -1.0f,   -1e-8f, -0.0f,
                         0.0f,     1e-8f,  1.0f,    34.5f,  34.54f,
                         34.6f,    36.8f,  36.84f,  36.9f,  40.0f};
  const LogisticLoss loss;
  for (const float y : {0.0f, 1.0f, 0.25f}) {
    for (const float pred : preds) {
      const double p =
          1.0 / (1.0 + util::simd::exp(-static_cast<double>(pred)));
      const double pc = std::clamp(p, 1e-15, 1.0 - 1e-15);
      const double value = -(y * util::simd::log(pc) +
                             (1.0 - y) * util::simd::log(1.0 - pc));
      const GradientPair gp = loss.gradients(pred, y);
      EXPECT_EQ(std::bit_cast<std::uint32_t>(gp.g),
                std::bit_cast<std::uint32_t>(static_cast<float>(p - y)))
          << "pred=" << pred << " y=" << y;
      EXPECT_EQ(std::bit_cast<std::uint32_t>(gp.h),
                std::bit_cast<std::uint32_t>(
                    static_cast<float>(std::max(p * (1.0 - p), 1e-16))))
          << "pred=" << pred << " y=" << y;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(loss.value(pred, y)),
                std::bit_cast<std::uint64_t>(value))
          << "pred=" << pred << " y=" << y;
    }
  }
}

/// Distance in representable doubles between two finite doubles of the
/// same sign (0 when equal).
std::uint64_t ulps_apart(double a, double b) {
  const auto ia = std::bit_cast<std::int64_t>(a);
  const auto ib = std::bit_cast<std::int64_t>(b);
  return ia > ib ? static_cast<std::uint64_t>(ia - ib)
                 : static_cast<std::uint64_t>(ib - ia);
}

// The in-repo exp/log of the step-5 kernel (util/simd.h) against the C
// library. Equality is not guaranteed by construction; this pins the
// measured agreement to within 1 ulp.
TEST(InRepoMath, ExpWithinOneUlpOfStdExp) {
  util::Rng rng(1234);
  std::vector<double> xs = {0.0,    -0.0,   1e-300, -1e-300, 0.5,
                            -0.5,   1.0,    -1.0,   36.0,    -36.0,
                            40.0,   -40.0,  80.0,   -80.0,   700.0,
                            -700.0, 709.78, -708.3, -744.0,  -745.1};
  for (int i = 0; i < 2'000'000; ++i) {
    // Mostly the sigmoid's working range, some of the whole finite range
    // (subnormal results included).
    xs.push_back(i % 8 == 0 ? rng.uniform(-745.0, 709.7)
                            : rng.uniform(-60.0, 60.0));
  }
  for (const double x : xs) {
    const double want = std::exp(x);
    const double got = util::simd::exp(x);
    ASSERT_LE(ulps_apart(got, want), 1u)
        << "x=" << x << " got " << got << " want " << want;
  }
  EXPECT_EQ(util::simd::exp(0.0), 1.0);
  EXPECT_EQ(util::simd::exp(-800.0), 0.0);
  EXPECT_EQ(util::simd::exp(800.0), std::numeric_limits<double>::infinity());
  EXPECT_EQ(util::simd::exp(-std::numeric_limits<double>::infinity()), 0.0);
  EXPECT_TRUE(std::isnan(
      util::simd::exp(std::numeric_limits<double>::quiet_NaN())));
}

TEST(InRepoMath, LogWithinOneUlpOfStdLog) {
  util::Rng rng(4321);
  // The logistic loss clamps p to [1e-15, 1 - 1e-15] and takes log(p) and
  // log(1 - p): both clamp edges, their complements, and sweeps below.
  std::vector<double> xs = {1e-15,        1.0 - 1e-15, 1.0 - (1.0 - 1e-15),
                            1.0 - 1e-15 * 1.5, 0.5,    1.0,
                            2.0,          1e-300,      4.9e-324,
                            2.2e-308,     1e300,       1.7e308};
  for (int i = 0; i < 2'000'000; ++i) {
    switch (i % 4) {
      case 0: xs.push_back(rng.uniform(1e-15, 1.0)); break;
      case 1: xs.push_back(1.0 - rng.uniform(0.0, 1e-3)); break;
      case 2: xs.push_back(std::exp(rng.uniform(-34.6, 0.0))); break;
      default: xs.push_back(std::exp(rng.uniform(-700.0, 700.0))); break;
    }
  }
  for (const double x : xs) {
    const double want = std::log(x);
    const double got = util::simd::log(x);
    ASSERT_LE(ulps_apart(got, want), 1u)
        << "x=" << x << " got " << got << " want " << want;
  }
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(util::simd::log(1.0), 0.0);
  EXPECT_EQ(util::simd::log(0.0), -inf);
  EXPECT_EQ(util::simd::log(-0.0), -inf);
  EXPECT_EQ(util::simd::log(inf), inf);
  EXPECT_TRUE(std::isnan(util::simd::log(-1.0)));
  EXPECT_TRUE(std::isnan(
      util::simd::log(std::numeric_limits<double>::quiet_NaN())));
}

/// The per-row evaluate() loop against Loss::refresh for every loss, at
/// the active SIMD level.
void expect_refresh_matches_evaluate() {
  util::Rng rng(77);
  const std::size_t n = 4099;  // uneven tail at every lane width
  std::vector<float> preds(n), deltas(n), labels(n);
  const float kLabels[] = {0.0f, 1.0f, 0.25f, 2.0f};
  for (std::size_t i = 0; i < n; ++i) {
    preds[i] = static_cast<float>(rng.uniform(-40.0, 40.0));
    deltas[i] = static_cast<float>(rng.normal() * 0.3);
    labels[i] = kLabels[rng.next_below(4)];
  }
  for (const char* name : {"squared", "logistic", "ranking"}) {
    const auto loss = make_loss(name);
    for (const bool with_deltas : {false, true}) {
      for (const bool with_loss : {false, true}) {
        std::vector<float> want_preds = preds;
        std::vector<GradientPair> want_grads(n);
        double want_loss = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
          if (with_deltas) want_preds[i] += deltas[i];
          const LossEval ev = loss->evaluate(want_preds[i], labels[i]);
          want_grads[i] = ev.grad;
          if (with_loss) want_loss += quantize_stat(ev.value);
        }
        std::vector<float> got_preds = preds;
        std::vector<GradientPair> got_grads(n);
        const double got_loss = loss->refresh(
            got_preds, with_deltas ? deltas : std::vector<float>{}, labels,
            got_grads, with_loss);
        const std::string what = std::string(name) +
                                 (with_deltas ? " +deltas" : "") +
                                 (with_loss ? " +loss" : "");
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(std::bit_cast<std::uint32_t>(got_preds[i]),
                    std::bit_cast<std::uint32_t>(want_preds[i]))
              << what << " row " << i;
          ASSERT_EQ(std::bit_cast<std::uint32_t>(got_grads[i].g),
                    std::bit_cast<std::uint32_t>(want_grads[i].g))
              << what << " row " << i;
          ASSERT_EQ(std::bit_cast<std::uint32_t>(got_grads[i].h),
                    std::bit_cast<std::uint32_t>(want_grads[i].h))
              << what << " row " << i;
        }
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got_loss),
                  std::bit_cast<std::uint64_t>(want_loss))
            << what;
      }
    }
  }
}

// Loss::refresh (a SIMD kernel for the logistic loss, the default loop for
// the others) must return exactly what the per-row evaluate() loop gives:
// predictions, gradient pairs and the quantized loss sum, at every SIMD
// level this host runs and with and without deltas.
TEST(Losses, RefreshMatchesPerRowEvaluateBitwise) {
  for (const auto level :
       {util::simd::Level::kScalar, util::simd::Level::kAvx2,
        util::simd::Level::kAvx512}) {
    if (util::simd::kernels(level).level != level) continue;  // skip
    const util::simd::ScopedLevelForTesting scoped(level);
    SCOPED_TRACE(util::simd::level_name(level));
    expect_refresh_matches_evaluate();
  }
}

TEST(SquaredLoss, GradientsAreResidualAndUnitHessian) {
  SquaredLoss loss;
  const auto gp = loss.gradients(3.0f, 1.0f);
  EXPECT_FLOAT_EQ(gp.g, 2.0f);
  EXPECT_FLOAT_EQ(gp.h, 1.0f);
}

TEST(SquaredLoss, ZeroAtPerfectPrediction) {
  SquaredLoss loss;
  EXPECT_DOUBLE_EQ(loss.value(1.5f, 1.5f), 0.0);
}

TEST(LogisticLoss, GradientIsProbabilityMinusLabel) {
  LogisticLoss loss;
  const auto gp = loss.gradients(0.0f, 1.0f);
  EXPECT_NEAR(gp.g, 0.5 - 1.0, 1e-6);
  EXPECT_NEAR(gp.h, 0.25, 1e-6);
}

TEST(LogisticLoss, TransformIsSigmoid) {
  LogisticLoss loss;
  EXPECT_NEAR(loss.transform(0.0), 0.5, 1e-12);
  EXPECT_GT(loss.transform(10.0), 0.999);
  EXPECT_LT(loss.transform(-10.0), 0.001);
}

TEST(LogisticLoss, BaseScoreIsLogitOfPositiveRate) {
  LogisticLoss loss;
  EXPECT_NEAR(loss.transform(loss.base_score(0.25)), 0.25, 1e-9);
  EXPECT_NEAR(loss.base_score(0.5), 0.0, 1e-9);
}

TEST(LogisticLoss, HessianNeverZero) {
  LogisticLoss loss;
  const auto gp = loss.gradients(100.0f, 1.0f);  // saturated sigmoid
  EXPECT_GT(gp.h, 0.0f);
}

TEST(RankingLoss, PointwiseOnGradedLabels) {
  RankingLoss loss;
  const auto gp = loss.gradients(1.0f, 2.0f);
  EXPECT_FLOAT_EQ(gp.g, -1.0f);
  EXPECT_FLOAT_EQ(gp.h, 1.0f);
}

TEST(MakeLoss, FactoryNames) {
  EXPECT_EQ(make_loss("squared")->name(), "squared");
  EXPECT_EQ(make_loss("logistic")->name(), "logistic");
  EXPECT_EQ(make_loss("ranking")->name(), "ranking-pointwise");
}

TEST(Losses, ConvexityAlongPrediction) {
  // value() must be convex in pred: midpoint below chord.
  for (const char* name : {"squared", "logistic", "ranking"}) {
    const auto loss = make_loss(name);
    for (const float y : {0.0f, 1.0f}) {
      const double a = loss->value(-1.0f, y);
      const double b = loss->value(3.0f, y);
      const double mid = loss->value(1.0f, y);
      EXPECT_LE(mid, 0.5 * (a + b) + 1e-9) << name;
    }
  }
}

}  // namespace
}  // namespace booster::gbdt

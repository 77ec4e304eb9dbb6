#include "gbdt/loss.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

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

// The fused evaluate() feeds the step-5 gradient refresh and the training
// loss, so it must reproduce gradients() and value() bit for bit -- signed
// zeros included -- for every loss, for hard and soft labels, across the
// logistic clamp (|sigmoid - {0, 1}| < 1e-15 near |pred| = 34.54) and
// hessian-floor (p (1 - p) < 1e-16 near |pred| = 36.84) edges.
TEST(Losses, EvaluateMatchesSeparateCallsBitwise) {
  const float preds[] = {-40.0f,   -36.9f, -36.84f, -36.8f, -34.6f,
                         -34.54f,  -34.5f, -1.0f,   -1e-8f, -0.0f,
                         0.0f,     1e-8f,  1.0f,    34.5f,  34.54f,
                         34.6f,    36.8f,  36.84f,  36.9f,  40.0f};
  for (const char* name : {"squared", "logistic", "ranking"}) {
    const auto loss = make_loss(name);
    for (const float y : {0.0f, 1.0f, 0.25f}) {
      for (const float pred : preds) {
        const LossEval ev = loss->evaluate(pred, y);
        const GradientPair gp = loss->gradients(pred, y);
        EXPECT_EQ(std::bit_cast<std::uint32_t>(ev.grad.g),
                  std::bit_cast<std::uint32_t>(gp.g))
            << name << " pred=" << pred << " y=" << y;
        EXPECT_EQ(std::bit_cast<std::uint32_t>(ev.grad.h),
                  std::bit_cast<std::uint32_t>(gp.h))
            << name << " pred=" << pred << " y=" << y;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(ev.value),
                  std::bit_cast<std::uint64_t>(loss->value(pred, y)))
            << name << " pred=" << pred << " y=" << y;
      }
    }
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

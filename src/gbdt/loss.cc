#include "gbdt/loss.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace booster::gbdt {

namespace {
double sigmoid(double x) { return 1.0 / (1.0 + std::exp(-x)); }
}  // namespace

GradientPair SquaredLoss::gradients(float pred, float y) const {
  return GradientPair{pred - y, 1.0f};
}

double SquaredLoss::value(float pred, float y) const {
  const double d = static_cast<double>(pred) - y;
  return 0.5 * d * d;
}

GradientPair LogisticLoss::gradients(float pred, float y) const {
  const double p = sigmoid(pred);
  return GradientPair{static_cast<float>(p - y),
                      static_cast<float>(std::max(p * (1.0 - p), 1e-16))};
}

double LogisticLoss::value(float pred, float y) const {
  const double p = std::clamp(sigmoid(pred), 1e-15, 1.0 - 1e-15);
  return -(y * std::log(p) + (1.0 - y) * std::log(1.0 - p));
}

LossEval LogisticLoss::evaluate(float pred, float y) const {
  const double p = sigmoid(pred);
  const double pc = std::clamp(p, 1e-15, 1.0 - 1e-15);
  // value()'s two log terms are finite and nonzero (pc is clamped inside
  // (0, 1)), so for a hard label the zero-weighted term only adds a signed
  // zero, which leaves every bit of the other term unchanged.
  double log_likelihood;
  if (y == 0.0f) {
    log_likelihood = std::log(1.0 - pc);
  } else if (y == 1.0f) {
    log_likelihood = std::log(pc);
  } else {
    log_likelihood = y * std::log(pc) + (1.0 - y) * std::log(1.0 - pc);
  }
  return LossEval{
      GradientPair{static_cast<float>(p - y),
                   static_cast<float>(std::max(p * (1.0 - p), 1e-16))},
      -log_likelihood};
}

double LogisticLoss::transform(double raw) const { return sigmoid(raw); }

double LogisticLoss::base_score(double label_mean) const {
  const double p = std::clamp(label_mean, 1e-6, 1.0 - 1e-6);
  return std::log(p / (1.0 - p));  // logit of the positive rate
}

GradientPair RankingLoss::gradients(float pred, float y) const {
  return GradientPair{pred - y, 1.0f};
}

double RankingLoss::value(float pred, float y) const {
  const double d = static_cast<double>(pred) - y;
  return 0.5 * d * d;
}

std::unique_ptr<Loss> make_loss(const std::string& name) {
  if (name == "squared") return std::make_unique<SquaredLoss>();
  if (name == "logistic") return std::make_unique<LogisticLoss>();
  if (name == "ranking") return std::make_unique<RankingLoss>();
  BOOSTER_CHECK_MSG(false, ("unknown loss: " + name).c_str());
  return nullptr;
}

}  // namespace booster::gbdt

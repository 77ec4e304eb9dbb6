#include "gbdt/loss.h"

#include <algorithm>
#include <cmath>

#include "gbdt/histogram.h"
#include "util/check.h"
#include "util/simd.h"

namespace booster::gbdt {

static_assert(sizeof(GradientPair) == 2 * sizeof(float),
              "logistic_refresh stores packed {g, h} float pairs");

namespace {
double sigmoid(double x) { return 1.0 / (1.0 + std::exp(-x)); }

void check_refresh_spans(std::span<float> preds, std::span<const float> deltas,
                         std::span<const float> labels,
                         std::span<GradientPair> grads) {
  BOOSTER_CHECK_MSG(labels.size() == preds.size() &&
                        grads.size() == preds.size() &&
                        (deltas.empty() || deltas.size() == preds.size()),
                    "Loss::refresh spans differ in size");
}
}  // namespace

double Loss::refresh(std::span<float> preds, std::span<const float> deltas,
                     std::span<const float> labels,
                     std::span<GradientPair> grads, bool with_loss) const {
  check_refresh_spans(preds, deltas, labels, grads);
  double total = 0.0;
  for (std::size_t i = 0; i < preds.size(); ++i) {
    if (!deltas.empty()) preds[i] += deltas[i];
    if (with_loss) {
      const LossEval ev = evaluate(preds[i], labels[i]);
      grads[i] = ev.grad;
      total += quantize_stat(ev.value);
    } else {
      grads[i] = gradients(preds[i], labels[i]);
    }
  }
  return total;
}

GradientPair SquaredLoss::gradients(float pred, float y) const {
  return GradientPair{pred - y, 1.0f};
}

double SquaredLoss::value(float pred, float y) const {
  const double d = static_cast<double>(pred) - y;
  return 0.5 * d * d;
}

GradientPair LogisticLoss::gradients(float pred, float y) const {
  const util::simd::LogisticTerms t =
      util::simd::logistic_terms(pred, y, /*with_loss=*/false);
  return GradientPair{t.g, t.h};
}

double LogisticLoss::value(float pred, float y) const {
  return util::simd::logistic_terms(pred, y, /*with_loss=*/true).loss;
}

double LogisticLoss::refresh(std::span<float> preds,
                             std::span<const float> deltas,
                             std::span<const float> labels,
                             std::span<GradientPair> grads,
                             bool with_loss) const {
  check_refresh_spans(preds, deltas, labels, grads);
  return util::simd::kernels().logistic_refresh(
      preds.data(), deltas.empty() ? nullptr : deltas.data(), labels.data(),
      preds.size(), reinterpret_cast<float*>(grads.data()), with_loss,
      kStatInvQuantum, kStatQuantum);
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

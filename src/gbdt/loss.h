// Differentiable convex losses and their first/second-order gradient
// statistics (g_i, h_i) -- the quantities the histogram bins accumulate.
// GB is agnostic to the loss as long as it is differentiable and convex
// (paper §II-A); we provide the two the evaluated workloads need plus a
// pairwise-ranking surrogate for the Mq2008-style workload.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>

namespace booster::gbdt {

/// First- and second-order gradient statistics of one record.
struct GradientPair {
  float g = 0.0f;
  float h = 0.0f;
};

/// Gradient statistics and loss value of one record, from one fused call.
struct LossEval {
  GradientPair grad;
  double value = 0.0;
};

class Loss {
 public:
  virtual ~Loss() = default;

  /// Gradient statistics of l(pred, y) with respect to the raw prediction.
  virtual GradientPair gradients(float pred, float y) const = 0;

  /// Loss value for reporting/early-stopping.
  virtual double value(float pred, float y) const = 0;

  /// gradients() and value() in one call: one row of refresh().
  LossEval evaluate(float pred, float y) const {
    return LossEval{gradients(pred, y), value(pred, y)};
  }

  /// Step 5 over a batch of rows -- the dense pass after each tree, and the
  /// refresh after a reset or a replayed tree. For every i:
  ///   preds[i] += deltas[i]      (skipped when `deltas` is empty)
  ///   grads[i] = gradients(preds[i], labels[i])
  /// and, when `with_loss`, returns the sum over i of
  /// quantize_stat(value(preds[i], labels[i])), else 0. The terms sit on
  /// the quantum grid, so the sum is exact in any order and any chunking
  /// (gbdt/histogram.h). All spans but an empty `deltas` have one size.
  /// The default is the per-row loop over evaluate() / gradients(); an
  /// override must return exactly the bits that loop gives.
  virtual double refresh(std::span<float> preds, std::span<const float> deltas,
                         std::span<const float> labels,
                         std::span<GradientPair> grads, bool with_loss) const;

  /// Transforms a raw model output into the task's response (identity for
  /// regression, sigmoid for binary classification).
  virtual double transform(double raw) const { return raw; }

  /// Base score: the constant raw prediction the ensemble starts from.
  virtual double base_score(double label_mean) const { return label_mean; }

  virtual std::string name() const = 0;
};

/// Squared error: l = 1/2 (pred - y)^2; g = pred - y, h = 1.
class SquaredLoss final : public Loss {
 public:
  GradientPair gradients(float pred, float y) const override;
  double value(float pred, float y) const override;
  std::string name() const override { return "squared"; }
};

/// Logistic loss for y in {0,1}: g = sigmoid(pred) - y,
/// h = sigmoid(pred) * (1 - sigmoid(pred)).
///
/// The training math -- gradients, value, evaluate and refresh -- is
/// util::simd's logistic refresh on the in-repo exp/log: refresh runs the
/// kernel at the active SIMD level, and the per-row calls run its scalar
/// lane (util::simd::logistic_terms), so every path, the seed-serial
/// reference included, computes the same bits. transform and base_score,
/// which serve predictions and seed the ensemble, keep std::exp/std::log.
class LogisticLoss final : public Loss {
 public:
  GradientPair gradients(float pred, float y) const override;
  double value(float pred, float y) const override;
  /// util::simd::Kernels::logistic_refresh at the active level.
  double refresh(std::span<float> preds, std::span<const float> deltas,
                 std::span<const float> labels, std::span<GradientPair> grads,
                 bool with_loss) const override;
  double transform(double raw) const override;
  double base_score(double label_mean) const override;
  std::string name() const override { return "logistic"; }
};

/// Pointwise surrogate for supervised ranking (Mq2008-style workloads):
/// squared error on graded relevance labels. Real LambdaMART gradients are
/// pairwise; the *computational* profile per record (one g/h pair feeding
/// the same binning/partition/traversal steps) is identical, which is what
/// the performance study needs (see DESIGN.md substitutions).
class RankingLoss final : public Loss {
 public:
  GradientPair gradients(float pred, float y) const override;
  double value(float pred, float y) const override;
  std::string name() const override { return "ranking-pointwise"; }
};

/// Factory by name ("squared", "logistic", "ranking").
std::unique_ptr<Loss> make_loss(const std::string& name);

}  // namespace booster::gbdt

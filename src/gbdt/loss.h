// Differentiable convex losses and their first/second-order gradient
// statistics (g_i, h_i) -- the quantities the histogram bins accumulate.
// GB is agnostic to the loss as long as it is differentiable and convex
// (paper §II-A); we provide the two the evaluated workloads need plus a
// pairwise-ranking surrogate for the Mq2008-style workload.
#pragma once

#include <cstdint>
#include <memory>
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

  /// gradients() and value() in one call -- the step-5 gradient refresh
  /// reports the training loss from the same pass. Overrides must return
  /// exactly the bits of the two separate calls.
  virtual LossEval evaluate(float pred, float y) const {
    return LossEval{gradients(pred, y), value(pred, y)};
  }

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
class LogisticLoss final : public Loss {
 public:
  GradientPair gradients(float pred, float y) const override;
  double value(float pred, float y) const override;
  /// One sigmoid per record, and for a hard label (y exactly 0 or 1) only
  /// the log term that is not multiplied by zero.
  LossEval evaluate(float pred, float y) const override;
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

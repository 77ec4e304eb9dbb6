// Common interface of all performance models (Booster, Ideal 32-core,
// Ideal GPU, Inter-Record, Real multicore/GPU). Every model consumes the
// same StepTrace + WorkloadInfo, so architecture comparisons differ only in
// cost rules, never in workload -- the simulation analogue of the paper
// giving all systems the same memory configuration.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>

#include "trace/step_trace.h"

namespace booster::perf {

/// Per-step execution time in seconds, indexed by trace::StepKind.
struct StepBreakdown {
  std::array<double, trace::kNumStepKinds> seconds{};

  double& operator[](trace::StepKind k) {
    return seconds[static_cast<std::size_t>(k)];
  }
  double operator[](trace::StepKind k) const {
    return seconds[static_cast<std::size_t>(k)];
  }
  double total() const {
    double t = 0.0;
    for (double s : seconds) t += s;
    return t;
  }
  double fraction(trace::StepKind k) const {
    const double t = total();
    return t == 0.0 ? 0.0 : (*this)[k] / t;
  }
};

/// Memory-system activity used by the energy model (Fig 10): on-chip SRAM
/// accesses (with the per-access energy normalization of the paper's
/// Table V) and off-chip DRAM bytes moved.
struct Activity {
  double sram_accesses = 0.0;
  double sram_energy_per_access_norm = 1.0;  // Table V "SRAM energy (norm.)"
  double dram_bytes = 0.0;
};

/// Batch-inference workload description (paper §V-H: every record traverses
/// all trees of the trained ensemble).
struct InferenceSpec {
  double records = 0.0;          // nominal batch size
  std::uint32_t trees = 500;
  std::uint32_t max_depth = 6;   // deepest tree in the ensemble
  double avg_path_length = 6.0;  // mean realized path per (record, tree)
  std::uint32_t record_bytes = 0;
  /// Booster chips the ensemble is distributed over (paper SS III-D: too
  /// many trees to fit on-chip are dealt round-robin to multiple chips;
  /// partial sums combine on the host). CPU/GPU models ignore this.
  std::uint32_t chips = 1;
};

/// Analytic serving throughput implied by a batch-inference cost: rows
/// predicted per second if the device ran back-to-back batches of
/// `records` rows, each costing `inference_seconds`. Zero on a degenerate
/// (non-positive) cost. The serving scenario prints it per replica count
/// as `analytic_qps`; bench_serve measures a real server's QPS.
inline double projected_qps(double records, double inference_seconds) {
  return inference_seconds > 0.0 ? records / inference_seconds : 0.0;
}

class PerfModel {
 public:
  virtual ~PerfModel() = default;

  virtual std::string name() const = 0;

  /// Training-time breakdown for a step trace (seconds per step).
  virtual StepBreakdown train_cost(const trace::StepTrace& trace,
                                   const trace::WorkloadInfo& info) const = 0;

  /// Batch-inference latency in seconds.
  virtual double inference_cost(const InferenceSpec& spec) const = 0;

  /// SRAM/DRAM activity of the training run (for the energy comparison).
  virtual Activity train_activity(const trace::StepTrace& trace,
                                  const trace::WorkloadInfo& info) const = 0;
};

}  // namespace booster::perf

// The workloads. Each one sets itself up kSetups times (setup_s is
// the median), gates its outputs, measures for opt.seconds and fills
// `out`; a traced run (opt.trace) measures an untraced half and a traced
// half of opt.seconds, reports both, and adds the per-layer metrics and
// unit-cost probes.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common.h"
#include "probes.h"
#include "trace/step_trace.h"

namespace booster::gbdt {
struct HotPathStats;
}

namespace perfbench {

inline constexpr int kSetups = 3;

void run_train_fraud(const RunOptions& opt, Provenance* prov, RunResult* out);
void run_stream_serve_fraud(const RunOptions& opt, Provenance* prov,
                            RunResult* out);

/// Wall times of one set-up and of the steps the per-layer metrics name.
struct SetupTimes {
  double synth_s = 0.0;      // workloads::synthesize
  double bin_s = 0.0;        // gbdt::Binner::bin
  double row_major_s = 0.0;  // BinnedDataset::ensure_row_major
  double total_s = 0.0;
};

/// Adds setup_s and the per-layer set-up metrics: medians over `setups`.
void report_setups(const std::vector<SetupTimes>& setups, RunResult* out);

/// End-to-end figures of one measured pass, printed side by side for the
/// untraced and traced passes of a traced run.
struct PassFigures {
  double rows_per_s = 0.0;
  double latency_p50_ms = 0.0;
  double latency_p90_ms = 0.0;
  double latency_p99_ms = 0.0;
  double staleness_p50_ms = 0.0;
  std::uint64_t samples = 0;  // timed jobs / requests behind the medians
};

/// Runs `measure(seconds, traced)` once untraced (or, in a traced run,
/// once untraced and once traced over half the time each), prints the
/// figures, adds the tracing-overhead ratios to `out`, and returns the
/// untraced pass.
PassFigures measure_passes(
    const RunOptions& opt, RunResult* out,
    const std::function<PassFigures(double seconds, bool traced)>& measure);

/// Adds the per-job StepTrace counts and the step-accounted share of the
/// median job wall.
void add_step_metrics(const booster::trace::StepTrace& trace,
                      const booster::gbdt::HotPathStats& hot,
                      std::uint64_t total_bins, std::uint32_t fields,
                      const UnitCosts& costs, double median_job_s,
                      RunResult* out);

}  // namespace perfbench

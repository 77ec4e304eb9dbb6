// ScenarioRunner: expands a declarative ScenarioSpec into a run matrix of
// (sweep point x workload x model) cells and executes them on a
// util::ThreadPool. Cells are independent (training runs happened up
// front; each cell is one PerfModel costing pass), every cell writes only
// its own preallocated slot, and all reductions happen serially afterwards,
// so a parallel run is bit-identical to a serial one -- the property the
// golden-equivalence test asserts.
//
// This is the single execution engine behind every bench_fig*/bench_table*
// driver and the booster_scenarios CLI: benches are now a builtin spec plus
// a formatting shim over ScenarioResult. Functional samples train in
// process with gbdt::Trainer; every cell is modelled, none measured
// (serving is measured by bench_serve).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "memsim/bandwidth_probe.h"
#include "perf/perf_model.h"
#include "sim/registry.h"
#include "sim/scenario.h"

namespace booster::sim {

struct RunOptions {
  bool quick = false;    // shrink the functional sample (apply_quick)
  bool json = false;     // benches: also print the canonical JSON block
  unsigned threads = 0;  // cell-level pool size; 0 = ThreadPool default
  /// Co-sim parallelism *inside* one booster-cycle cell. Leave at 1 when
  /// many cells run in parallel anyway; raise it for single-cell runs.
  unsigned replay_threads = 1;
  /// Calibrate the bandwidth profile from the scenario's DRAM config via
  /// memsim::BandwidthProbe (cached per config per process). Off uses the
  /// BoosterConfig defaults -- handy in unit tests.
  bool calibrate_bandwidth = true;
};

/// Shared CLI argument parsing for every bench driver: recognizes --quick,
/// --json, and --threads N; ignores everything else (callers with extra
/// flags parse those themselves).
RunOptions parse_run_options(int argc, char** argv);

/// The standard experiment provenance header every driver prints (title,
/// paper reference, and the resolved SIMD dispatch level).
void print_header(const std::string& title, const std::string& paper_ref);

/// Calibrated sustained-bandwidth profile (with measured stride anchors)
/// for a DRAM config, from the cycle-level model. Cached per config within
/// the process -- the probe is the expensive part of small runs.
const memsim::BandwidthProfile& calibrated_profile(
    const memsim::DramConfig& cfg);

/// Default Booster config with the calibrated profile of the default DRAM
/// config applied (what most standalone drivers want).
core::BoosterConfig calibrated_booster_config();

/// One evaluated (sweep point, workload, model) cell.
struct ScenarioCell {
  std::size_t sweep_index = 0;
  double sweep_value = 0.0;  // 0 when the scenario has no sweep axis
  std::size_t workload_index = 0;
  std::size_t model_index = 0;
  std::string model_name;  // PerfModel::name() of the instance
  perf::StepBreakdown breakdown;
  double total_seconds = 0.0;
  perf::Activity activity;
  double inference_seconds = 0.0;  // when spec.include_inference
  /// Serving replicas of this sweep point (InferenceSpec::chips); 1
  /// unless the scenario sweeps kReplicas.
  std::uint32_t replicas = 1;
  /// perf::projected_qps of this cell's batch-inference cost (rows/s the
  /// analytic model predicts); 0 unless spec.include_inference.
  double analytic_qps = 0.0;
  /// The resolved accelerator config of this cell's sweep point (drives
  /// the area/power and bin-mapping shims).
  core::BoosterConfig booster;
};

struct ScenarioResult {
  ScenarioSpec spec;
  bool quick = false;
  memsim::DramConfig dram;
  /// Index-aligned with spec.workloads.
  std::vector<workloads::WorkloadResult> workloads;
  /// Expanded sweep points ({0.0} when the axis is kNone).
  std::vector<double> sweep_values;
  /// Sweep-major, then workload, then model.
  std::vector<ScenarioCell> cells;

  const ScenarioCell& cell(std::size_t sweep, std::size_t workload,
                           std::size_t model) const;

  /// Canonical machine-readable form: spec identity + every cell's step
  /// breakdown, activity, and inference cost. The CLI and the ported
  /// benches print exactly this object, so their outputs are diffable.
  Json to_json() const;

  /// Generic per-cell table (the CLI's human-readable output; figure
  /// benches format their own paper-shaped tables instead).
  void print_table() const;
};

class ScenarioRunner {
 public:
  /// Builtin registries.
  ScenarioRunner();

  /// Custom registries (tests, embedders). `models` must outlive the
  /// runner; `workloads` is copied.
  ScenarioRunner(const ModelRegistry* models, WorkloadRegistry workloads);

  /// Expands and executes a scenario. Returns nullopt and sets *error on
  /// unknown workloads/models, bad config deltas, or invalid sweep values.
  std::optional<ScenarioResult> run(const ScenarioSpec& spec,
                                    const RunOptions& options,
                                    std::string* error) const;

 private:
  const ModelRegistry* models_;
  WorkloadRegistry workloads_;
};

}  // namespace booster::sim

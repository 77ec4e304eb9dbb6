// Declarative experiment descriptions: a ScenarioSpec names a workload set,
// accelerator/DRAM config deltas, a roster of performance models, and an
// optional sweep axis -- everything the paper's (workload x architecture x
// hardware config) evaluation grid varies -- as *data*. Scenarios live in
// checked-in bench/scenarios/*.json files, parse and serialize losslessly
// (parse -> serialize -> parse is a fixpoint), and run through
// sim::ScenarioRunner (sim/runner.h). Adding a dataset, model ablation, or
// DSE axis is a ~20-line JSON edit, not a new binary.
//
// A scenario trains its functional sample in process with gbdt::Trainer
// and costs the step trace with the perf models; it measures nothing.
// Serving is measured by bench_serve, streaming by bench_stream and
// distributed training by bench_distributed / multi_process.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/booster_config.h"
#include "memsim/dram_config.h"
#include "sim/json.h"
#include "workloads/runner.h"
#include "workloads/spec.h"

namespace booster::sim {

/// The one definition of --quick: a smaller functional sample for smoke
/// runs (CI executes every scenario under it). Shared by every bench
/// driver via apply_quick().
inline constexpr std::uint64_t kQuickSimRecords = 8000;
inline constexpr std::uint32_t kQuickSimTrees = 12;

/// Applies the quick knobs to a runner config (the single place --quick
/// semantics are defined).
void apply_quick(workloads::RunnerConfig* cfg);

/// The axes a scenario may sweep. Each sweep value expands into one slice
/// of the run matrix:
///   kClusters       -- BU count: BoosterConfig::clusters (BUs = clusters x
///                      bus_per_cluster)
///   kBandwidthScale -- all calibrated bandwidth rates multiplied together
///   kRecordScale    -- dataset size: the trace's record dimension scaled
///                      (the paper's Fig 12 replication; octave values
///                      1, 2, 4, ... give record-count octaves)
///   kShards         -- training shards: BoosterConfig::training_shards
///                      (scale-out projection: per-shard Booster nodes,
///                      histogram-merge traffic after every step-1 event)
///   kReplicas       -- serving replicas: perf::InferenceSpec::chips (the
///                      ensemble dealt round-robin over N chips, paper
///                      SS III-D); requires include_inference, since the
///                      axis only moves the analytic inference cost
enum class SweepAxis : std::uint8_t {
  kNone = 0,
  kClusters,
  kBandwidthScale,
  kRecordScale,
  kShards,
  kReplicas,
};

const char* sweep_axis_name(SweepAxis axis);
std::optional<SweepAxis> sweep_axis_from_name(std::string_view name);

/// One performance model of a scenario: a sim::ModelRegistry name, an
/// optional display label (BoosterModel name suffix / CPU-like display
/// name), and model-specific config overrides as a JSON object (validated
/// by the model's factory; unknown keys are errors).
struct ModelSpec {
  std::string model;
  std::string label;
  Json overrides;  // null when absent

  bool operator==(const ModelSpec& other) const {
    return model == other.model && label == other.label &&
           overrides == other.overrides;
  }
};

struct ScenarioSpec {
  std::string name;       // identifier; matches the .json file stem
  std::string title;      // printed experiment header
  std::string paper_ref;  // provenance ("Booster paper, Section V-A, ...")

  /// Workload names resolved against sim::WorkloadRegistry (the Table III
  /// five plus "fraud" are built in; `datasets` adds user-defined specs).
  std::vector<std::string> workloads;
  /// User-defined dataset specs registered before resolution, so a scenario
  /// file can carry its own workload without recompiling anything.
  std::vector<workloads::DatasetSpec> datasets;

  std::vector<ModelSpec> models;

  /// BoosterConfig / DramConfig deltas relative to the defaults (JSON
  /// objects; unknown keys are errors). Null = defaults.
  Json booster;
  Json dram;

  SweepAxis sweep_axis = SweepAxis::kNone;
  std::vector<double> sweep_values;

  // Functional-sample knobs (defaults mirror workloads::RunnerConfig).
  std::uint64_t sim_records = 24000;
  std::uint32_t sim_trees = 48;
  std::uint32_t nominal_trees = 500;
  std::uint32_t max_depth = 6;
  std::uint64_t seed = 42;
  /// Row shards for the *functional* training runs (TrainerConfig
  /// num_shards). Output is bit-identical at every shard count, so this
  /// exercises the shard merge in the pipeline without perturbing any
  /// downstream number. Distinct from the "shards"
  /// sweep axis, which varies the perf model's scale-out projection.
  std::uint32_t shards = 1;

  /// Also compute each model's batch-inference cost per cell (Fig 13).
  bool include_inference = false;

  /// The workload runner config this scenario trains with.
  workloads::RunnerConfig runner_config(bool quick) const;

  /// Builds the spec's DRAM config (defaults + `dram` delta).
  std::optional<memsim::DramConfig> dram_config(std::string* error) const;

  /// Builds the spec's base Booster config (defaults + `booster` delta).
  /// The runner substitutes the calibrated bandwidth profile before
  /// applying the delta, so an explicit "bandwidth" block wins.
  std::optional<core::BoosterConfig> booster_config(
      const core::BoosterConfig& base, std::string* error) const;

  Json to_json() const;
  static std::optional<ScenarioSpec> from_json(const Json& json,
                                               std::string* error);
  /// Convenience: Json::parse_file + from_json.
  static std::optional<ScenarioSpec> from_file(const std::string& path,
                                               std::string* error);

  bool operator==(const ScenarioSpec& other) const;
};

/// Applies a JSON config delta onto a BoosterConfig. Recognized keys match
/// the struct fields (plus a nested "bandwidth" profile block); unknown
/// keys or mistyped values set *error and return false.
bool apply_booster_delta(const Json& delta, core::BoosterConfig* cfg,
                         std::string* error);

/// Same for DramConfig.
bool apply_dram_delta(const Json& delta, memsim::DramConfig* cfg,
                      std::string* error);

/// Same for a BandwidthProfile (rates in bytes/s in the JSON -- no unit
/// conversion, so round-trips are exact; anchors in strides).
bool apply_bandwidth_delta(const Json& delta, memsim::BandwidthProfile* bw,
                           std::string* error);

/// DatasetSpec <-> JSON (used by ScenarioSpec::datasets and the workload
/// registry's user-defined entries).
Json dataset_to_json(const workloads::DatasetSpec& spec);
std::optional<workloads::DatasetSpec> dataset_from_json(const Json& json,
                                                        std::string* error);

}  // namespace booster::sim

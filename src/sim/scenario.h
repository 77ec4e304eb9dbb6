// Declarative experiment descriptions: a ScenarioSpec names a workload set,
// accelerator/DRAM config deltas, a roster of performance models, and an
// optional sweep axis -- everything the paper's (workload x architecture x
// hardware config) evaluation grid varies -- as *data*. Scenarios live in
// checked-in bench/scenarios/*.json files, parse and serialize losslessly
// (parse -> serialize -> parse is a fixpoint), and run through
// sim::ScenarioRunner (sim/runner.h). Adding a dataset, model ablation, or
// DSE axis is a ~20-line JSON edit, not a new binary.
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
///   kArrivalRate    -- streaming arrival rate in rows/s fed to the
///                      measured streaming leg (StreamingSpec
///                      arrival_rows_per_sec); requires the streaming
///                      block
///   kRefreshCadence -- streaming refresh cadence in chunks
///                      (StreamingSpec refresh_every_chunks); requires
///                      the streaming block
enum class SweepAxis : std::uint8_t {
  kNone = 0,
  kClusters,
  kBandwidthScale,
  kRecordScale,
  kShards,
  kReplicas,
  kArrivalRate,
  kRefreshCadence,
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

/// Knobs for the measured serving leg of a scenario: the runner stands up
/// a real serve::Server (epoll loop, localhost TCP) per workload on the
/// functionally-trained model and drives it with the closed-loop harness
/// (serve::run_closed_loop). Every served prediction is gated bit-exact
/// against local Model::predict -- a mismatch fails the whole scenario --
/// so the measured QPS lands in the same table as the analytic
/// inference_cost with its correctness already proven.
struct ServingSpec {
  std::uint32_t connections = 4;
  std::uint32_t requests_per_connection = 200;
  std::uint32_t rows_per_request = 8;
  /// Server-side batching window in microseconds (0 = flush every poll
  /// round).
  std::uint64_t batch_window_us = 200;
  std::uint32_t max_batch_rows = 1024;
  /// Send JSON request bodies instead of CSV.
  bool json_body = false;

  bool operator==(const ServingSpec& other) const = default;
};

/// Knobs for the measured streaming leg: the runner freezes a bin map from
/// a bootstrap chunk of the workload, streams the remaining records in
/// chunks through a stream::Retrainer (bounded window, warm-start refresh
/// on a cadence), and verifies each refreshed generation is bit-identical
/// across a threads x shards grid before reporting staleness/throughput.
/// A divergence or failed refresh fails the whole scenario.
struct StreamingSpec {
  /// Records binned up front to freeze the bin map (also the first window
  /// chunk's size).
  std::uint64_t bootstrap_rows = 4000;
  /// Rows per streamed chunk.
  std::uint64_t chunk_rows = 1000;
  /// Streamed chunks after the bootstrap.
  std::uint32_t chunks = 8;
  /// Sliding-window capacity in chunks.
  std::uint32_t window_chunks = 4;
  /// Retrain + hand off after every this-many chunks.
  std::uint32_t refresh_every_chunks = 2;
  /// Trees added per refresh (warm start) or per generation (cold).
  std::uint32_t refresh_trees = 8;
  /// Continue boosting from the previous generation.
  bool warm_start = true;
  /// Pace ingestion to this many rows/s (0 = as fast as possible); the
  /// kArrivalRate sweep axis overrides it per sweep point.
  double arrival_rows_per_sec = 0.0;
  /// Drift schedule for the synthesized stream: "none" (stationary --
  /// chunks are fresh draws from the workload's distribution) or
  /// "noise-ramp" (label noise ramps up to 2x over the stream, degrading
  /// the label relation the bootstrap model learned -- the drift a refresh
  /// counters).
  std::string drift = "none";

  bool operator==(const StreamingSpec& other) const = default;
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
  /// Ranks for the functional training runs: > 1 trains through
  /// gbdt::DistributedTrainer over `transport` (an in-process world of
  /// `procs` rank threads). Also bit-identical, by the same contract.
  std::uint32_t procs = 1;
  /// Histogram transport for procs > 1: "loopback" or "tcp".
  std::string transport = "loopback";
  /// tcp-only: a kill/hang/join churn schedule (ipc::ChurnSchedule
  /// grammar, e.g. "kill:1@2,join:3@4"). Non-empty runs the functional
  /// training through the elastic localhost-TCP world -- still
  /// bit-identical, by the elastic membership contract.
  std::string churn;

  /// Also compute each model's batch-inference cost per cell (Fig 13).
  bool include_inference = false;

  /// Present = also run the measured serving leg (see ServingSpec).
  std::optional<ServingSpec> serving;

  /// Present = also run the measured streaming leg (see StreamingSpec).
  std::optional<StreamingSpec> streaming;

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

// The step trace is the contract between the functional GBDT trainer and all
// performance models (Booster, Ideal 32-core, Ideal GPU, Inter-Record, Real).
//
// Training decomposes into the six steps of the paper's Table I. The trainer
// emits one StepEvent per (step, tree-node) unit of work, recording the
// *logical* quantities of that work — how many records were touched, how many
// fields per record, how many histogram bins were scanned. Each performance
// model turns those quantities into time/energy using its own cost rules.
// Because every model consumes the same trace, comparisons are
// apples-to-apples by construction, mirroring the paper's methodology of
// giving all simulated systems the same memory configuration and workload.
//
// Sampled simulation: training a 10M-record dataset functionally is
// unnecessary for performance modeling — tree shapes and per-node record
// *fractions* converge with tens of thousands of records. The trainer runs
// on a sample of `sim_records` and the trace carries
// `scale = nominal_records / sim_records`; models multiply record counts by
// `scale`. Per-bin quantities (step 2) are not scaled: histogram sizes do
// not depend on the number of records.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace booster::trace {

/// The accelerated/offloaded steps of GB training (paper Table I).
/// Steps 4 and 6 are loops, not work, so they never appear in a trace.
enum class StepKind : std::uint8_t {
  kHistogram = 0,   // step 1: histogram-binning of gradient statistics
  kSplitSelect = 1, // step 2: scanning bins to choose the split (host)
  kPartition = 2,   // step 3: single-predicate evaluation / partitioning
  // Step 5: one-tree traversal + gradient update. The event reports the
  // modeled traversal -- every record routed through the tree, reading the
  // tree's fields, with the realized mean path length -- even though the
  // host trainer resolves each record's leaf from the partition's leaf
  // spans instead of walking the tree (gbdt/hotpath.h LeafSpan). The
  // counts are the same either way.
  kTraversal = 3,
};

inline constexpr int kNumStepKinds = 4;

/// Short printable name, e.g. "step1-hist".
const char* step_name(StepKind kind);

/// One unit of work emitted by the trainer.
struct StepEvent {
  StepKind kind = StepKind::kHistogram;
  std::int32_t tree = 0;   // which tree of the ensemble
  std::int32_t depth = 0;  // node depth for steps 1-3; max tree depth for step 5

  /// Records touched by this event, in *simulated* (unscaled) units.
  std::uint64_t records = 0;

  /// Fields of each record the step reads. Step 1 reads all fields; step 3
  /// reads exactly one; step 5 reads the fields referenced by the tree.
  std::uint32_t fields_touched = 0;

  /// Total fields per record in the binned representation (record footprint
  /// in bytes is one byte per field; see gbdt/layout.h).
  std::uint32_t record_fields = 0;

  /// Histogram bins scanned (step 2 only).
  std::uint64_t bins_scanned = 0;

  /// Node histograms this event covers (step 1 only). Vertex-by-vertex
  /// growth emits one event per node (1); level-by-level growth aggregates
  /// a level's smaller-child builds into one event, so per-histogram costs
  /// (e.g. the sharded-training merge pass) must scale by this count.
  std::uint32_t histograms = 1;

  /// Average path length for traversal events (may be fractional after
  /// averaging over records); equals `depth` bound for full trees.
  double avg_path_length = 0.0;

  /// True when step 1 used the smaller-child histogram-subtraction trick
  /// for the sibling (the event then covers only the smaller child).
  bool used_sibling_subtraction = false;
};

/// Aggregate per-step totals of a trace, in scaled (nominal) units.
struct StepTotals {
  double record_field_updates = 0;  // step 1: sum records * record_fields
  double hist_records = 0;          // step 1: sum records
  double partition_records = 0;     // step 3: sum records
  double traversal_records = 0;     // step 5: sum records
  double traversal_record_hops = 0; // step 5: sum records * avg_path_length
  double bins_scanned = 0;          // step 2: sum bins
  std::uint64_t split_events = 0;   // step 2: number of nodes evaluated
  std::uint64_t trees = 0;
};

/// Aggregated replay class for cycle co-simulation (perf/cycle_calibrated.h):
/// events of one step kind at one depth and one per-event-size octave are
/// statistically similar enough to replay through a single representative
/// co-sim run and scale. The octave split matters on lopsided categorical
/// trees, where one depth holds both a ~99%-density heavy chain node and
/// many tiny siblings whose sparse gathers cost very differently.
struct ReplayClass {
  StepKind kind = StepKind::kHistogram;
  std::int32_t depth = 0;
  /// floor(log2(scaled per-event records)): events within one octave differ
  /// by at most 2x in record count (and therefore node density).
  std::int32_t records_octave = 0;
  std::uint64_t events = 0;
  double records = 0.0;             // scaled records, summed over events
  double avg_records = 0.0;         // records / events
  double avg_fields_touched = 0.0;  // record-weighted mean
  double avg_path_length = 0.0;     // record-weighted mean (step 5)
};

/// The full trace of one training (or batch-inference) run.
class StepTrace {
 public:
  StepTrace() = default;

  /// `scale` converts simulated record counts to nominal record counts.
  explicit StepTrace(double scale) : scale_(scale) {}

  void add(const StepEvent& e) { events_.push_back(e); }
  const std::vector<StepEvent>& events() const { return events_; }
  bool empty() const { return events_.empty(); }
  std::size_t size() const { return events_.size(); }

  double scale() const { return scale_; }
  void set_scale(double s) { scale_ = s; }

  /// Tree-count scaling: the event stream covers 1/repeat of the nominal
  /// ensemble (the trainer runs a prefix of the trees; boosting work per
  /// tree is near-stationary, so later trees cost like earlier ones).
  /// Models multiply their final per-step times by `repeat`; totals()
  /// folds it into every aggregate.
  double repeat() const { return repeat_; }
  void set_repeat(double r) { repeat_ = r; }

  /// Scaled record count of an event (nominal units).
  double scaled_records(const StepEvent& e) const {
    return static_cast<double>(e.records) * scale_;
  }

  /// Computes aggregate totals (scaled).
  StepTotals totals() const;

  /// Groups the accelerated (non-host) events into replay classes, sorted
  /// by (kind, depth, octave). Record counts are scaled; repeat() is NOT
  /// folded in -- models multiply their final per-step times by repeat(),
  /// exactly as with per-event costing.
  std::vector<ReplayClass> replay_classes() const;

  /// Returns a new trace whose scale is multiplied by `factor`; used for the
  /// paper's Fig 12 dataset-size scaling study (10x replication).
  StepTrace scaled_by(double factor) const;

 private:
  std::vector<StepEvent> events_;
  double scale_ = 1.0;
  double repeat_ = 1.0;
};

/// Workload-level metadata the performance models need alongside the trace.
struct WorkloadInfo {
  std::string name;
  std::uint64_t nominal_records = 0;  // records in the full dataset
  std::uint32_t fields = 0;           // fields per record (pre one-hot)
  std::uint32_t categorical_fields = 0;
  std::uint32_t features_onehot = 0;  // features after one-hot expansion
  std::uint64_t total_bins = 0;       // total histogram bins over all fields
  std::uint32_t max_bins_per_field = 0;
  /// Histogram bins per field (missing bin included) -- drives the
  /// bin-to-SRAM mapping study (paper SS III-A).
  std::vector<std::uint32_t> bins_per_field;
  std::uint32_t trees = 0;
  std::uint32_t max_depth = 0;
  double avg_leaf_depth = 0.0;        // realized average leaf depth
  /// Size in bytes of one binned record (one byte per field plus the
  /// layout's padding rules; see gbdt/layout.h).
  std::uint32_t record_bytes = 0;
};

}  // namespace booster::trace

// Sampled-simulation workload runner: synthesizes a dataset sample, trains
// a prefix of the ensemble functionally, and returns the step trace scaled
// to the nominal dataset (records) and ensemble (trees). Every bench binary
// goes through this, so all experiments see identical workloads. Training
// is always gbdt::Trainer in process: the trace the perf models cost is the
// same at every shard, thread, rank and transport count, so distributed
// training is exercised by its own tests and benches, not here.
#pragma once

#include <cstdint>
#include <vector>

#include "gbdt/binning.h"
#include "gbdt/trainer.h"
#include "trace/step_trace.h"
#include "workloads/spec.h"

namespace booster::workloads {

struct RunnerConfig {
  /// Records synthesized for functional training (tree shapes and per-node
  /// record fractions converge well below this).
  std::uint64_t sim_records = 24000;
  /// Trees trained functionally; the trace's repeat factor scales to
  /// nominal_trees.
  std::uint32_t sim_trees = 48;
  /// Nominal ensemble the paper trains (500 trees, depth 6).
  std::uint32_t nominal_trees = 500;
  std::uint32_t max_depth = 6;
  std::uint64_t seed = 42;
  /// Row shards for functional training (TrainerConfig::num_shards).
  /// Output is bit-identical at every shard count, so raising this never
  /// changes results.
  std::uint32_t num_shards = 1;
};

struct WorkloadResult {
  DatasetSpec spec;
  gbdt::BinnedDataset binned;       // the simulated sample, binned
  gbdt::TrainResult train;          // trained model + per-tree stats
  trace::StepTrace trace;           // scaled to nominal records and trees
  trace::WorkloadInfo info;         // nominal workload metadata
};

/// Runs the full pipeline for one dataset spec.
WorkloadResult run_workload(const DatasetSpec& spec, RunnerConfig cfg = {});

/// Runs all five paper datasets.
std::vector<WorkloadResult> run_paper_workloads(RunnerConfig cfg = {});

}  // namespace booster::workloads

// Unit-cost probes of the traced run: each times one public function of a
// layer on the workload's own data and reports its cost per unit of work
// (per bin update, per bin scanned, per record, per byte, ...). Multiplied
// by the step counts a training job's StepTrace reports, they give the
// share of job wall the paper's steps account for.
#pragma once

#include <cstdint>

#include "common.h"
#include "gbdt/binning.h"
#include "gbdt/dataset.h"
#include "gbdt/tree.h"

namespace perfbench {

struct ProbeInputs {
  /// Binned training table (row-major view built) and the raw rows it
  /// was binned from.
  const booster::gbdt::BinnedDataset* train = nullptr;
  const booster::gbdt::Dataset* train_raw = nullptr;
  /// Binned holdout rows and the workload's model (traversal / predict).
  const booster::gbdt::BinnedDataset* holdout = nullptr;
  const booster::gbdt::Model* model = nullptr;
  unsigned threads = 4;
  /// Rows per streamed chunk and chunks per window for the stream probes.
  std::uint64_t chunk_rows = 20000;
  std::uint32_t window_chunks = 8;
};

/// Per-unit costs the step accounting needs (nanoseconds).
struct UnitCosts {
  double hist_root_ns_per_update = 0.0;
  double hist_small_ns_per_update = 0.0;
  double split_ns_per_bin = 0.0;
  double partition_ns_per_record = 0.0;
  double hist_add_ns_per_bin = 0.0;
  double traverse_ns_per_row_tree = 0.0;
};

/// Runs every probe, adds the per-layer metrics to `out`, and returns the
/// unit costs.
UnitCosts run_probes(const ProbeInputs& in, std::uint32_t parent_span,
                     RunResult* out);

}  // namespace perfbench

// The GB training loop (paper Table I, steps 1-6), instrumented to emit a
// StepTrace. Trainer is the single-rank world of the shard engine
// (gbdt::DistributedTrainer driving one gbdt::ShardGroup, distributed.h and
// shard_ops.h): the same loop rank 0 runs in a multi-process world, with
// no transport. The trainer is purely functional -- performance models
// never change its numerics -- and implements the optimizations the paper
// bakes into its software baseline:
//   * vertex-by-vertex growth to a maximum depth,
//   * smaller-child histogram construction with sibling subtraction,
//   * one-hot categorical handling via per-category bins,
//   * learned default directions for missing values.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "gbdt/binning.h"
#include "gbdt/loss.h"
#include "gbdt/split.h"
#include "gbdt/tree.h"
#include "trace/step_trace.h"

namespace booster::gbdt {

/// Tree-growth scheduling (paper SS II-A): vertex-by-vertex explores one
/// leaf at a time; level-by-level streams the input once per level and
/// histogram-bins the relevant records of every frontier vertex together
/// (one histogram per vertex). The resulting trees are identical; the
/// step-trace granularity differs, which matters for accelerator costing.
enum class GrowthOrder : std::uint8_t { kVertexByVertex, kLevelByLevel };

struct TrainerConfig {
  std::uint32_t num_trees = 500;
  std::uint32_t max_depth = 6;
  double learning_rate = 0.1;
  std::string loss = "squared";
  SplitConfig split;
  /// Nodes with fewer records than this become leaves.
  std::uint64_t min_node_records = 2;
  GrowthOrder growth = GrowthOrder::kVertexByVertex;
  /// Step 6 early stopping: stop adding trees once the relative per-tree
  /// loss improvement stays below this threshold for `early_stop_patience`
  /// consecutive trees. 0 disables (train exactly num_trees).
  double early_stop_rel_improvement = 0.0;
  std::uint32_t early_stop_patience = 3;
  /// Worker threads for the hot path (histogram build, partition, step-5
  /// update). 0 = auto: the BOOSTER_THREADS environment variable when
  /// set, otherwise the hardware concurrency. 1 forces the serial path.
  /// The partition is stable, counts are exact, and histogram accumulation
  /// is quantized-exact (gbdt::quantize_stat), so trained models --
  /// structure, weights, gains, and predictions -- are bit-identical
  /// across thread counts.
  std::uint32_t num_threads = 0;
  /// Contiguous row shards (0 counts as 1; clamped to the record count).
  /// The engine partitions records into num_shards contiguous ranges,
  /// builds per-shard histograms, and merges them with Histogram::add in
  /// fixed shard order. Output is bit-identical at every shard count.
  std::uint32_t num_shards = 1;
  /// Warm start: continue boosting from this ensemble instead of from
  /// scratch. The base score and loss come from the init model (the
  /// config's `loss` must name the same loss) and its trees are copied into
  /// the result. Rows without an init_predictions value get their
  /// predictions by replaying the trees through the fixed-depth traversal
  /// kernel with the per-record arithmetic of step 5 (ShardGroup::reset),
  /// so a warm-started run is bit-identical across threads, shards, and
  /// SIMD levels exactly like a cold one. `num_trees` counts *additional*
  /// trees on top of the init model. Non-owning: the caller keeps the
  /// model alive through train().
  const Model* init_model = nullptr;
  /// Carried step-5 state of a warm start: the float predictions of
  /// `init_model` for rows [0, m), indexed by row, m <= the record count
  /// -- typically the suffix of an earlier run's TrainResult::predictions
  /// whose rows begin this dataset. Only with init_model. Those rows start
  /// from these values; only rows [m, n) are replayed. The values equal
  /// the replayed ones bit for bit when they come from training on the
  /// same rows (both add (float)w per tree in tree order from
  /// (float)base_score), so the result does not depend on m. Rank 0 reads
  /// it; worker ranks replay their rows. Non-owning, like init_model.
  std::span<const float> init_predictions{};
};

/// Per-tree training diagnostics.
struct TreeStats {
  std::uint32_t leaves = 0;
  std::uint32_t depth = 0;
  double train_loss = 0.0;  // mean loss after adding this tree
};

/// Per-shard slice of the hot-path diagnostics. Each shard owns its row
/// range, histogram pool, row arena and partition scratch, so the
/// steady-state allocation-free property holds *per shard*: every shard's
/// histogram_allocations goes flat once its pool is warm.
struct ShardHotPathStats {
  std::uint64_t rows = 0;  // records owned by this shard
  std::uint64_t histogram_allocations = 0;
  std::uint64_t histogram_acquires = 0;
  std::uint64_t arena_bytes = 0;
  /// Most sub-chunks each of this shard's tasks (build, partition, step 5)
  /// was split into: ceil(threads / shards), so threads > shards no longer
  /// idles the surplus (1 = whole-shard tasks). A node's build and
  /// partition use fewer when its span is small (ShardGroup). Any chunking
  /// merges to the same bits -- see gbdt::quantize_stat.
  std::uint32_t sub_chunks = 1;
};

/// Allocation / threading diagnostics of one training run. The hot path is
/// allocation-free in steady state: node histograms come from a pool
/// (allocations counts the pool misses, which stop growing once the
/// deepest frontier has been seen) and record partitioning reorders one
/// persistent row-index arena in place instead of building per-node row
/// vectors.
struct HotPathStats {
  std::uint32_t threads = 1;
  /// Resolved SIMD dispatch level the run executed with ("scalar" / "avx2"
  /// / "avx512" -- util::simd::level_name of the active level). Provenance
  /// only: outputs are bit-identical across levels.
  const char* simd = "scalar";
  /// Row shards the run was partitioned into.
  std::uint32_t shards = 1;
  /// Fresh histogram buffer constructions (pool misses) over the whole run,
  /// summed over every pool (merged-histogram pools + per-shard pools).
  std::uint64_t histogram_allocations = 0;
  /// Node histograms requested (root + one per smaller child + parallel
  /// partials). Grows with trees while histogram_allocations stays flat.
  std::uint64_t histogram_acquires = 0;
  /// Per-shard merges into node histograms (a buffer swap for shard 0,
  /// Histogram::add for every other shard): one per shard per built node,
  /// so a default one-shard run counts one per built node. This is
  /// the operation whose operand crosses the transport in distributed
  /// training, so merges x encoded-histogram-bytes is the wire traffic of
  /// a run.
  std::uint64_t histogram_merges = 0;
  /// Intra-shard chunk-partial merges of the parallel histogram build (a
  /// node's span in a shard split into several chunks); local reductions
  /// that never cross a transport. 0 when sub_chunks is 1 or no node has
  /// 2 x kHistogramGrain rows in any shard.
  std::uint64_t chunk_merges = 0;
  /// Bytes of the persistent row-index arena and partition scratch plus
  /// the step-5 per-record leaf-delta scratch (all shards).
  std::uint64_t arena_bytes = 0;
  /// Bytes of the dataset's redundant row-major bin matrix -- the memory
  /// the layout change trades for the single-pass histogram kernel.
  std::uint64_t row_major_matrix_bytes = 0;
  /// One entry per shard this rank executed (one for a default run).
  std::vector<ShardHotPathStats> per_shard{};
};

struct TrainResult {
  Model model;
  std::vector<TreeStats> tree_stats{};
  double avg_leaf_depth = 0.0;  // mean realized leaf depth over all trees
  /// True when step-6 early stopping terminated the ensemble before
  /// num_trees (the model then holds fewer trees).
  bool early_stopped = false;
  HotPathStats hot_path{};
  /// Final float step-5 predictions of every row (base score plus every
  /// tree's float weight, the values the last tree's gradients came
  /// from), indexed by row: what a later warm start on overlapping rows
  /// passes back as TrainerConfig::init_predictions. Filled in the
  /// single-rank world (gbdt::Trainer); empty on every rank of a
  /// multi-rank world, whose rows are spread over processes.
  std::vector<float> predictions{};
};

class Trainer {
 public:
  explicit Trainer(TrainerConfig cfg = {}) : cfg_(cfg) {}

  const TrainerConfig& config() const { return cfg_; }

  /// Trains an ensemble. If `trace` is non-null, step events are appended
  /// (the caller sets the trace's scale for sampled simulation). If `info`
  /// is non-null, workload metadata is filled in (nominal_records defaults
  /// to the binned dataset's record count; callers doing sampled simulation
  /// override it).
  TrainResult train(const BinnedDataset& data,
                    trace::StepTrace* trace = nullptr,
                    trace::WorkloadInfo* info = nullptr) const;

 private:
  TrainerConfig cfg_;
};

namespace detail {
/// Fills the workload metadata block every rank of the engine reports
/// (field/bin shape, ensemble shape, realized leaf depth).
void fill_workload_info(const BinnedDataset& data, const TrainerConfig& cfg,
                        const TrainResult& result, trace::WorkloadInfo* info);
}  // namespace detail

}  // namespace booster::gbdt

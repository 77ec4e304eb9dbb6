// The per-shard half of sharded and distributed GBDT training: a
// ShardGroup owns a contiguous range of the global shard partition (its
// rows, gradient state, per-shard histogram pools, row arenas and
// partition scratch) and replays the tree-growth decision stream against
// it -- per-shard histogram build, stable in-place partition (the step-3
// kernel of hotpath.h), and step 5 from the leaf spans the partitions
// leave in the arenas. Both engines drive the same class:
//   * gbdt::ShardedTrainer / single-rank gbdt::DistributedTrainer: one
//     group covering every shard, driven inline;
//   * multi-rank gbdt::DistributedTrainer: one group per rank, remote
//     groups driven by the broadcast split decisions, their histograms
//     merged on rank 0 (plus freshly constructed groups when rank 0
//     adopts a dead worker's shards and replays the decision log).
//
// Every group-side operation is sub-chunked over the shared thread pool:
// each shard's rows are processed in up to ceil(threads / local_shards)
// contiguous chunks, so surplus threads stop idling when threads > shards
// (the ROADMAP scheduling follow-on). Chunk partials merge in chunk order;
// quantized-exact accumulation (gbdt::quantize_stat) makes every regrouping
// bit-identical, which is why sub-chunking -- and the cross-process
// distribution built on the same property -- never changes a trained bit.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "gbdt/binning.h"
#include "gbdt/flat_ensemble.h"
#include "gbdt/histogram.h"
#include "gbdt/hotpath.h"
#include "gbdt/loss.h"
#include "gbdt/split.h"
#include "gbdt/trainer.h"
#include "gbdt/tree.h"

namespace booster::util {
class ThreadPool;
}

namespace booster::gbdt {

/// Row range [begin, end) of shard `s` out of `shards` over `n` records:
/// contiguous, near-equal, boundaries a pure function of (n, shards) --
/// the same fixed-share rule util::ThreadPool::parallel_for uses for
/// chunks. Requires n * shards < 2^64 (always true for row counts).
inline std::pair<std::uint64_t, std::uint64_t> shard_row_range(
    std::uint64_t n, std::uint32_t shards, std::uint32_t s) {
  return {n * s / shards, n * (s + 1) / shards};
}

class ShardGroup {
 public:
  /// A group owning global shards [shard_begin, shard_end) of a
  /// `num_shards`-way partition of `data` (an empty range is a valid,
  /// inert group -- a rank with more peers than shards). `pool` is
  /// borrowed and shared with the driver's split scans.
  ShardGroup(const BinnedDataset& data, const TrainerConfig& cfg,
             std::uint32_t num_shards, std::uint32_t shard_begin,
             std::uint32_t shard_end, util::ThreadPool* pool);

  std::uint32_t shard_begin() const { return shard_begin_; }
  std::uint32_t shard_end() const { return shard_end_; }
  std::uint32_t num_local() const { return shard_end_ - shard_begin_; }
  /// Sub-chunks per shard task: ceil(threads / local shards), >= 1.
  std::uint32_t sub_chunks() const { return sub_; }

  /// Resets prediction/gradient state for the owned rows to the ensemble
  /// base score. Call once before the first tree (and when an adopted
  /// group starts catching up).
  void reset(const Loss& loss, double base_score);

  // --- tree growth (all groups must see the same call sequence) ---

  /// Resets the arenas to ascending row order and seeds the frontier with
  /// the root (whole-shard spans, pending build).
  void begin_tree(std::uint64_t root_rows);

  bool frontier_empty() const { return frontier_.empty(); }
  /// True when the head must become a leaf without consulting the split
  /// finder -- the depth/min-records rule every rank evaluates locally
  /// (same inputs, no communication).
  bool head_is_bounds_leaf() const;

  /// Pops the head as a leaf, keeping its spans for finish_tree.
  void apply_leaf();

  /// Pops the head, partitions every owned shard's span in place by
  /// `split` (stable, sub-chunked), and -- when the children may split further --
  /// pushes the smaller then the larger child and marks the smaller as
  /// the pending build. Returns true when children were pushed; otherwise
  /// both children are leaves and their spans are kept for finish_tree.
  bool apply_split(const SplitInfo& split);

  /// Builds the pending node's per-shard histograms (sub-chunked; chunk
  /// partials merged in chunk order). Histograms stay valid until
  /// release_built().
  void build_pending();
  bool has_pending_build() const { return pending_valid_; }
  const Histogram& built_histogram(std::uint32_t local_shard) const;
  void release_built();

  /// Step 5 for the owned rows of the tree this group just grew (the
  /// frontier must be drained; `tree` is the training loop's copy, whose
  /// node ids the group mirrors): scatter each leaf's delta to the rows of
  /// its arena spans, then update predictions, refresh gradients and sum
  /// the quantized per-record loss terms in one dense pass (chunk partials
  /// reduced in chunk order -- exact, see histogram.h). `hops` receives
  /// sum(leaf depth x span rows), the integer a traversal would count.
  void finish_tree(const Tree& tree, const Loss& loss, double* hops,
                   double* quantized_loss);

  /// Step 5 for a tree that was not grown on these rows (warm-start init
  /// trees, catch-up and adoption replay): the blocked SIMD traversal
  /// finds each row's leaf, with the same per-record update arithmetic as
  /// finish_tree.
  void replay_tree(const Tree& tree, const Loss& loss);

  /// Per-shard diagnostics (rows, pool counters, arena bytes, sub-chunk
  /// count), in local shard order.
  std::vector<ShardHotPathStats> shard_stats() const;
  /// Histogram::add merges performed inside the group (chunk-partial
  /// reductions); the driver adds its own per-shard merges on top.
  std::uint64_t internal_merges() const { return internal_merges_; }

 private:
  struct Shard {
    std::uint64_t row_begin = 0;
    std::uint64_t row_end = 0;
    HistogramPool pool;
    /// Row ids of the shard: every node's records are a span of `arena`,
    /// partitioned in place; `scratch` is the kernel's pass-1 scratch.
    std::vector<std::uint32_t> arena;
    std::vector<std::uint32_t> scratch;
    Histogram built;                  // per-shard result of build_pending
    std::vector<Histogram> partials;  // sub-chunk scratch (from `pool`)
    std::vector<LeafSpan> leaves;     // current tree's leaves, local spans

    std::uint64_t num_rows() const { return row_end - row_begin; }
  };

  /// Frontier node: K local arena spans in one SpanPool-like slot.
  struct Node {
    std::uint32_t slot = 0;
    std::int32_t depth = 0;
    std::uint64_t rows = 0;  // *global* rows (drives the bounds-leaf rule)
    /// Id of the node in the training loop's Tree: Tree::split_leaf adds
    /// the left then the right child, and every group sees the same splits
    /// in the same order, so the group mirrors the ids with a counter.
    std::int32_t tree_node = 0;
  };

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);
  /// Records one leaf: its span in every owned shard.
  void add_leaf(std::int32_t tree_node, std::int32_t depth,
                std::uint32_t slot);
  std::uint64_t& span_begin(std::uint32_t slot, std::uint32_t ls) {
    return span_bounds_[static_cast<std::size_t>(slot) * 2 * num_local() +
                        2 * ls];
  }
  std::uint64_t& span_end(std::uint32_t slot, std::uint32_t ls) {
    return span_bounds_[static_cast<std::size_t>(slot) * 2 * num_local() +
                        2 * ls + 1];
  }
  /// Sub-chunk [c_begin, c_end) of range [begin, end).
  static std::pair<std::uint64_t, std::uint64_t> chunk_range(
      std::uint64_t begin, std::uint64_t end, std::uint32_t c,
      std::uint32_t chunks) {
    const std::uint64_t count = end - begin;
    return {begin + count * c / chunks, begin + count * (c + 1) / chunks};
  }

  const BinnedDataset& data_;
  TrainerConfig cfg_;
  util::ThreadPool* pool_;
  std::uint32_t num_shards_;
  std::uint32_t shard_begin_;
  std::uint32_t shard_end_;
  std::uint32_t sub_ = 1;

  std::vector<Shard> shards_;
  std::vector<float> preds_;
  std::vector<GradientPair> gradients_;
  /// Step-5 scratch: each owned row's scattered leaf delta, indexed from
  /// the group's first row (the owned shards are contiguous).
  std::vector<float> deltas_;

  /// Per-field column base pointers for the blocked traversal kernel
  /// (fixed for the dataset's lifetime) and the FlatTree scratch it
  /// consumes, re-encoded once per replayed tree (allocation-free warm).
  std::vector<const BinIndex*> col_ptrs_;
  FlatTree flat_;

  std::deque<Node> frontier_;
  /// Id the next Tree::split_leaf left child gets (see Node::tree_node).
  std::int32_t next_tree_node_ = 1;
  /// Recycled per-(node, local shard) span bounds: slot i holds
  /// num_local() (begin, end) pairs. Same allocation-free discipline as
  /// the histogram pools.
  std::vector<std::uint64_t> span_bounds_;
  std::vector<std::uint32_t> free_slots_;
  std::uint32_t next_slot_ = 0;

  /// Pending build target (the root just seeded or the smaller child just
  /// pushed); consumed by build_pending.
  Node pending_{};
  bool pending_valid_ = false;
  bool built_valid_ = false;

  /// Scratch for the two-pass sub-chunked partition: the split's side
  /// table, per (shard, chunk) left counts (turned into per-shard
  /// exclusive prefixes between the passes) with per-shard totals, and per
  /// (shard, chunk) loss reduction slots for step 5.
  std::vector<std::uint8_t> sides_;
  std::vector<std::uint64_t> chunk_lefts_;
  std::vector<std::uint64_t> shard_lefts_;
  std::vector<double> chunk_losses_;

  std::uint64_t internal_merges_ = 0;
};

}  // namespace booster::gbdt

// Flattened node-array ensemble layout for bulk prediction -- the serving
// mirror of the row-major training kernel, and the warm-start replay's.
// FlatTree re-encodes one Tree's node table in fixed-depth form
// (util::simd::FlatTreeView): one 64-bit word per node holding the field,
// the threshold bin and the predicate flags; a child pair per node at
// 2 * node + goes_left (right, then left), with each leaf's pair pointing
// at the leaf itself; the leaf weights; and the tree's depth, its deepest
// leaf's. Every record then reaches its leaf in exactly `depth` steps,
// which is what lets the traversal kernel (util::simd::Kernels::
// traverse_block) step a whole tile of records at once with gathers.
//
// The tile loop (FlatEnsemble::accumulate) is tile-major: every tree runs
// on one tile of records before the next tile starts, so the tile's bins
// stay in cache while the ensemble's node tables stream past, and each
// record still adds w0, w1, ... in ensemble order. Serving accumulates in
// double from the base score -- the additions Model::predict_raw makes,
// so predict_many is bit-identical to per-record Model::predict at every
// SIMD dispatch level and tile width. The warm-start replay
// (ShardGroup::reset) accumulates in float, (float)w per tree, the adds
// its per-tree refresh made.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "gbdt/binning.h"
#include "gbdt/tree.h"
#include "util/simd.h"

namespace booster::gbdt {

/// Fixed-depth node table of one tree (see the header comment).
class FlatTree {
 public:
  explicit FlatTree(const Tree& tree);

  std::uint32_t depth() const { return depth_; }

  util::simd::FlatTreeView view() const {
    return {node_.data(), child_.data(), weight_.data(), depth_};
  }

 private:
  std::vector<std::uint64_t> node_;  // util::simd::pack_node words
  std::vector<std::int32_t> child_;  // 2 per node: right, left
  std::vector<double> weight_;
  std::uint32_t depth_ = 0;
};

/// A whole trained ensemble in flat SoA form, plus the blocked bulk
/// prediction entry point. Borrows the Model's loss for the task-space
/// transform: the Model must outlive the FlatEnsemble.
class FlatEnsemble {
 public:
  explicit FlatEnsemble(const Model& model);

  std::uint32_t num_trees() const {
    return static_cast<std::uint32_t>(trees_.size());
  }
  double base_score() const { return base_score_; }

  /// Raw (untransformed) scores for records [begin, end); out receives
  /// end - begin values. Bit-identical to Model::predict_raw per record.
  void predict_raw_many(const BinnedDataset& data, std::uint64_t begin,
                        std::uint64_t end, std::span<double> out) const;

  /// Task-space predictions (loss transform applied), same contract.
  /// Bit-identical to Model::predict per record.
  void predict_many(const BinnedDataset& data, std::uint64_t begin,
                    std::uint64_t end, std::span<double> out) const;

  /// Column-pointer entry: raw scores for records [0, count) addressed
  /// through caller-supplied per-field column base pointers
  /// (columns[f][r], one pointer per model field). This is the serving
  /// batch path -- the server stages rows from many connections into
  /// reusable column buffers and runs one blocked pass over them without
  /// materializing a BinnedDataset. Bit-identical to the dataset overload
  /// (which forwards here).
  void predict_raw_many(const BinIndex* const* columns, std::uint64_t count,
                        std::span<double> out) const;

  /// Task-space form of the column-pointer entry.
  void predict_many(const BinIndex* const* columns, std::uint64_t count,
                    std::span<double> out) const;

  /// The tile loop: for records [first, first + count) of the columns,
  /// acc[i] += w_t(first + i) for every tree t in ensemble order (no base
  /// score). The double form adds the weights as they are; the float form
  /// adds static_cast<float>(w_t) -- the warm-start replay's predictions
  /// -- for trees t >= first_tree only (rows whose carried predictions
  /// already hold the earlier trees).
  void accumulate(const BinIndex* const* columns, std::uint64_t first,
                  std::uint64_t count, double* acc) const;
  void accumulate(const BinIndex* const* columns, std::uint64_t first,
                  std::uint64_t count, float* acc,
                  std::uint32_t first_tree = 0) const;

 private:
  std::vector<FlatTree> trees_;
  double base_score_ = 0.0;
  const Loss* loss_ = nullptr;  // borrowed from the source Model
};

/// Per-field column base pointers of `data` -- the bin-lookup table the
/// traversal kernel consumes. Rebuild after the dataset moves.
std::vector<const BinIndex*> column_pointers(const BinnedDataset& data);

}  // namespace booster::gbdt

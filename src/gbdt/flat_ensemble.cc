#include "gbdt/flat_ensemble.h"

#include <algorithm>
#include <type_traits>

#include "gbdt/loss.h"
#include "gbdt/split.h"
#include "util/check.h"

namespace booster::gbdt {

// The traversal kernel reads bins as raw uint16 columns.
static_assert(std::is_same_v<BinIndex, std::uint16_t>,
              "traverse_block assumes 16-bit bin indices");

FlatTree::FlatTree(const Tree& tree)
    : node_(tree.num_nodes()),
      child_(2 * static_cast<std::size_t>(tree.num_nodes())),
      weight_(tree.num_nodes()),
      depth_(tree.max_depth()) {
  const std::uint32_t n = tree.num_nodes();
  // Children come after their parent (Tree::split_leaf appends them), so
  // a leaf's word is written after its parent's field is known; a root
  // leaf keeps field 0 and takes no step.
  for (std::uint32_t id = 0; id < n; ++id) {
    const TreeNode& nd = tree.node(static_cast<std::int32_t>(id));
    weight_[id] = nd.weight;
    if (nd.is_leaf) {
      // Self-loop; the word keeps the parent's field (set below), so the
      // leaf's idle steps reload a bin its parent's step just read.
      child_[2 * id] = child_[2 * id + 1] = static_cast<std::int32_t>(id);
      continue;
    }
    BOOSTER_DCHECK(nd.left > static_cast<std::int32_t>(id) &&
                   nd.right > static_cast<std::int32_t>(id));
    node_[id] = util::simd::pack_node(
        nd.field, nd.threshold_bin,
        (nd.kind == PredicateKind::kCategoryEqual ? util::simd::kNodeCategorical
                                                  : 0) |
            (nd.default_left ? util::simd::kNodeDefaultLeft : 0));
    child_[2 * id] = nd.right;
    child_[2 * id + 1] = nd.left;
    node_[nd.left] = node_[nd.right] = nd.field;
  }
}

FlatEnsemble::FlatEnsemble(const Model& model)
    : base_score_(model.base_score()), loss_(&model.loss()) {
  trees_.reserve(model.num_trees());
  for (const Tree& t : model.trees()) trees_.emplace_back(t);
}

std::vector<const BinIndex*> column_pointers(const BinnedDataset& data) {
  std::vector<const BinIndex*> cols(data.num_fields());
  for (std::uint32_t f = 0; f < data.num_fields(); ++f) {
    cols[f] = data.column(f).data();
  }
  return cols;
}

namespace {

/// The tile loop of FlatEnsemble::accumulate, for either accumulator.
template <class Acc>
void accumulate_tiles(std::span<const FlatTree> trees,
                      const BinIndex* const* columns, std::uint64_t first,
                      std::uint64_t count, Acc* acc) {
  if (trees.empty()) return;
  const auto& ker = util::simd::kernels();
  const std::uint64_t tile = ker.predict_tile;
  double wts[util::simd::kMaxPredictTile];
  for (std::uint64_t r0 = 0; r0 < count; r0 += tile) {
    const std::size_t m = static_cast<std::size_t>(std::min(tile, count - r0));
    Acc* a = acc + r0;
    for (const FlatTree& t : trees) {
      ker.traverse_block(t.view(), columns, first + r0, m, wts);
      for (std::size_t i = 0; i < m; ++i) a[i] += static_cast<Acc>(wts[i]);
    }
  }
}

}  // namespace

void FlatEnsemble::accumulate(const BinIndex* const* columns,
                              std::uint64_t first, std::uint64_t count,
                              double* acc) const {
  accumulate_tiles(trees_, columns, first, count, acc);
}

void FlatEnsemble::accumulate(const BinIndex* const* columns,
                              std::uint64_t first, std::uint64_t count,
                              float* acc, std::uint32_t first_tree) const {
  BOOSTER_CHECK(first_tree <= trees_.size());
  accumulate_tiles(std::span<const FlatTree>(trees_).subspan(first_tree),
                   columns, first, count, acc);
}

void FlatEnsemble::predict_raw_many(const BinIndex* const* columns,
                                    std::uint64_t count,
                                    std::span<double> out) const {
  BOOSTER_CHECK(out.size() >= count);
  std::fill(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(count),
            base_score_);
  accumulate(columns, 0, count, out.data());
}

void FlatEnsemble::predict_many(const BinIndex* const* columns,
                                std::uint64_t count,
                                std::span<double> out) const {
  predict_raw_many(columns, count, out);
  for (std::uint64_t i = 0; i < count; ++i) {
    out[i] = loss_->transform(out[i]);
  }
}

void FlatEnsemble::predict_raw_many(const BinnedDataset& data,
                                    std::uint64_t begin, std::uint64_t end,
                                    std::span<double> out) const {
  BOOSTER_CHECK(begin <= end && end <= data.num_records());
  // Offset the column bases so the pointer entry's record 0 is `begin`:
  // the kernel then performs the same loads as before, bit for bit.
  auto cols = column_pointers(data);
  for (auto& c : cols) c += begin;
  predict_raw_many(cols.data(), end - begin, out);
}

void FlatEnsemble::predict_many(const BinnedDataset& data, std::uint64_t begin,
                                std::uint64_t end,
                                std::span<double> out) const {
  predict_raw_many(data, begin, end, out);
  for (std::uint64_t i = 0; i < end - begin; ++i) {
    out[i] = loss_->transform(out[i]);
  }
}

}  // namespace booster::gbdt

#include "gbdt/shard_ops.h"

#include <algorithm>
#include <utility>

#include "util/check.h"
#include "util/simd.h"
#include "util/thread_pool.h"

namespace booster::gbdt {

ShardGroup::ShardGroup(const BinnedDataset& data, const TrainerConfig& cfg,
                       std::uint32_t num_shards, std::uint32_t shard_begin,
                       std::uint32_t shard_end, util::ThreadPool* pool)
    : data_(data),
      cfg_(cfg),
      pool_(pool),
      num_shards_(num_shards),
      shard_begin_(shard_begin),
      shard_end_(shard_end) {
  BOOSTER_CHECK(shard_begin <= shard_end && shard_end <= num_shards);
  const std::uint32_t local = num_local();
  if (local == 0) return;
  // Surplus threads sub-chunk every per-shard task: ceil(T / L) chunks per
  // shard keeps all T threads fed even when L < T. Chunk regrouping never
  // changes a bit (quantized-exact accumulation, stable partition).
  sub_ = (pool_->num_threads() + local - 1) / local;
  data_.ensure_row_major();
  const std::uint64_t n = data_.num_records();
  shards_.resize(local);
  for (std::uint32_t ls = 0; ls < local; ++ls) {
    const auto [begin, end] = shard_row_range(n, num_shards_, shard_begin_ + ls);
    Shard& sh = shards_[ls];
    sh.row_begin = begin;
    sh.row_end = end;
    sh.pool.configure(data_);
    sh.arena.resize(end - begin);
    sh.scratch.resize(end - begin);
  }
  preds_.resize(n);
  gradients_.resize(n);
  deltas_.resize(shards_.back().row_end - shards_.front().row_begin);
  col_ptrs_ = column_pointers(data_);
  chunk_lefts_.resize(static_cast<std::size_t>(local) * sub_);
  shard_lefts_.resize(local);
  chunk_losses_.resize(static_cast<std::size_t>(local) * sub_);
}

std::uint32_t ShardGroup::acquire_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  const std::uint32_t slot = next_slot_++;
  span_bounds_.resize(static_cast<std::size_t>(next_slot_) * 2 * num_local());
  return slot;
}

void ShardGroup::release_slot(std::uint32_t slot) {
  free_slots_.push_back(slot);
}

void ShardGroup::add_leaf(std::int32_t tree_node, std::int32_t depth,
                          std::uint32_t slot) {
  for (std::uint32_t ls = 0; ls < num_local(); ++ls) {
    shards_[ls].leaves.push_back(LeafSpan{.begin = span_begin(slot, ls),
                                          .end = span_end(slot, ls),
                                          .tree_node = tree_node,
                                          .depth = depth});
  }
}

void ShardGroup::reset(const Loss& loss, double base_score) {
  if (num_local() == 0) return;
  std::fill(preds_.begin(), preds_.end(), static_cast<float>(base_score));
  pool_->run_tasks(num_local() * sub_, [&](unsigned task) {
    const Shard& sh = shards_[task / sub_];
    const auto [b, e] =
        chunk_range(sh.row_begin, sh.row_end, task % sub_, sub_);
    for (std::uint64_t r = b; r < e; ++r) {
      gradients_[r] = loss.gradients(preds_[r], data_.labels()[r]);
    }
  });
}

void ShardGroup::begin_tree(std::uint64_t root_rows) {
  frontier_.clear();
  pending_valid_ = false;
  built_valid_ = false;
  next_tree_node_ = 1;
  for (Shard& sh : shards_) sh.leaves.clear();
  if (num_local() == 0) return;
  pool_->run_tasks(num_local() * sub_, [&](unsigned task) {
    Shard& sh = shards_[task / sub_];
    const auto [b, e] = chunk_range(0, sh.num_rows(), task % sub_, sub_);
    for (std::uint64_t i = b; i < e; ++i) {
      sh.arena[i] = static_cast<std::uint32_t>(sh.row_begin + i);
    }
  });
  Node root;
  root.slot = acquire_slot();
  root.depth = 0;
  root.rows = root_rows;
  root.tree_node = 0;
  for (std::uint32_t ls = 0; ls < num_local(); ++ls) {
    span_begin(root.slot, ls) = 0;
    span_end(root.slot, ls) = shards_[ls].num_rows();
  }
  frontier_.push_back(root);
  pending_ = root;
  pending_valid_ = true;
}

bool ShardGroup::head_is_bounds_leaf() const {
  const Node& head = frontier_.front();
  return head.depth >= static_cast<std::int32_t>(cfg_.max_depth) ||
         head.rows < cfg_.min_node_records;
}

void ShardGroup::apply_leaf() {
  BOOSTER_CHECK(!frontier_.empty());
  const Node& head = frontier_.front();
  add_leaf(head.tree_node, head.depth, head.slot);
  release_slot(head.slot);
  frontier_.pop_front();
}

bool ShardGroup::apply_split(const SplitInfo& split) {
  BOOSTER_CHECK(!frontier_.empty());
  const Node node = frontier_.front();
  frontier_.pop_front();
  const std::uint64_t n_left_total = split.left.count_u64();
  const std::uint64_t n_right_total = node.rows - n_left_total;
  const std::uint32_t local = num_local();

  if (local > 0) {
    // The step-3 kernel of hotpath.h over the flattened (shard, sub-chunk)
    // task grid, each shard's span partitioned in place: pass 1 writes
    // every chunk into its own range of the shard's scratch, pass 2 places
    // the chunks in chunk order, so each shard's partition is stable -- the
    // row order the bit-identity argument needs -- while threads > shards
    // still find work.
    fill_split_sides(split, data_, sides_);
    const BinIndex* col = data_.column(split.field).data();
    pool_->run_tasks(local * sub_, [&](unsigned task) {
      const std::uint32_t ls = task / sub_;
      Shard& sh = shards_[ls];
      const auto [b, e] = chunk_range(span_begin(node.slot, ls),
                                      span_end(node.slot, ls), task % sub_,
                                      sub_);
      chunk_lefts_[task] = partition_chunk(sh.arena.data() + b, e - b, col,
                                           sides_.data(),
                                           sh.scratch.data() + b);
    });
    for (std::uint32_t ls = 0; ls < local; ++ls) {
      std::uint64_t total = 0;
      for (std::uint32_t c = 0; c < sub_; ++c) {
        std::uint64_t& lefts =
            chunk_lefts_[static_cast<std::size_t>(ls) * sub_ + c];
        const std::uint64_t chunk_left = lefts;
        lefts = total;
        total += chunk_left;
      }
      shard_lefts_[ls] = total;
    }
    // When this group covers the whole partition (the single-rank world /
    // Trainer delegation path), the realized left total must equal the
    // split's claimed bucket count -- the cross-shard invariant the
    // pre-distributed ShardedTrainer asserted. It is checked before pass 2
    // writes anything outside the scratch. Partial groups cannot check it;
    // rank 0's merged histogram counts imply the global identity.
    if (shard_begin_ == 0 && shard_end_ == num_shards_) {
      std::uint64_t group_left = 0;
      for (std::uint32_t ls = 0; ls < local; ++ls) {
        group_left += shard_lefts_[ls];
      }
      BOOSTER_CHECK_MSG(
          group_left == n_left_total,
          "sharded partition disagrees with the split's bucket counts");
    }
    pool_->run_tasks(local * sub_, [&](unsigned task) {
      const std::uint32_t ls = task / sub_;
      const std::uint32_t c = task % sub_;
      Shard& sh = shards_[ls];
      const std::uint64_t sb = span_begin(node.slot, ls);
      const auto [b, e] = chunk_range(sb, span_end(node.slot, ls), c, sub_);
      const std::uint64_t lefts_before = chunk_lefts_[task];
      const std::uint64_t lefts_through =
          c + 1 < sub_ ? chunk_lefts_[task + 1] : shard_lefts_[ls];
      place_partitioned_chunk(
          sh.scratch.data() + b, e - b, lefts_through - lefts_before,
          sh.arena.data() + sb + lefts_before,
          sh.arena.data() + sb + shard_lefts_[ls] + (b - sb) - lefts_before);
    });
  }

  const std::int32_t child_depth = node.depth + 1;
  const std::int32_t left_id = next_tree_node_;
  const std::int32_t right_id = left_id + 1;
  next_tree_node_ += 2;
  const std::uint32_t left_slot = acquire_slot();
  const std::uint32_t right_slot = acquire_slot();
  for (std::uint32_t ls = 0; ls < local; ++ls) {
    const std::uint64_t mid = span_begin(node.slot, ls) + shard_lefts_[ls];
    span_begin(left_slot, ls) = span_begin(node.slot, ls);
    span_end(left_slot, ls) = mid;
    span_begin(right_slot, ls) = mid;
    span_end(right_slot, ls) = span_end(node.slot, ls);
  }
  release_slot(node.slot);

  if (child_depth >= static_cast<std::int32_t>(cfg_.max_depth)) {
    // Both children are terminal leaves: nothing further partitions their
    // rows this tree, so only their spans are kept (no pending build).
    add_leaf(left_id, child_depth, left_slot);
    add_leaf(right_id, child_depth, right_slot);
    release_slot(left_slot);
    release_slot(right_slot);
    return false;
  }

  const bool left_smaller = n_left_total <= n_right_total;
  const Node left{.slot = left_slot,
                  .depth = child_depth,
                  .rows = n_left_total,
                  .tree_node = left_id};
  const Node right{.slot = right_slot,
                   .depth = child_depth,
                   .rows = n_right_total,
                   .tree_node = right_id};
  const Node& small = left_smaller ? left : right;
  const Node& large = left_smaller ? right : left;
  frontier_.push_back(small);
  frontier_.push_back(large);
  pending_ = small;
  pending_valid_ = true;
  return true;
}

void ShardGroup::build_pending() {
  BOOSTER_CHECK_MSG(pending_valid_, "no pending histogram build");
  BOOSTER_CHECK_MSG(!built_valid_, "previous build not yet released");
  const std::uint32_t local = num_local();
  // Acquire every buffer on the driving thread: the per-shard pools are
  // not thread-safe, and pre-acquisition keeps the fan-out allocation-free
  // once the pools are warm.
  for (std::uint32_t ls = 0; ls < local; ++ls) {
    Shard& sh = shards_[ls];
    sh.built = sh.pool.acquire();
    while (sh.partials.size() + 1 < sub_) sh.partials.push_back(Histogram{});
    for (std::uint32_t c = 0; c + 1 < sub_; ++c) {
      sh.partials[c] = sh.pool.acquire();
    }
  }
  pool_->run_tasks(local * sub_, [&](unsigned task) {
    const std::uint32_t ls = task / sub_;
    const std::uint32_t c = task % sub_;
    Shard& sh = shards_[ls];
    const auto [b, e] = chunk_range(span_begin(pending_.slot, ls),
                                    span_end(pending_.slot, ls), c, sub_);
    Histogram& h = c == 0 ? sh.built : sh.partials[c - 1];
    h.build(data_,
            std::span<const std::uint32_t>(sh.arena.data() + b, e - b),
            gradients_);
  });
  // Chunk partials merge in chunk order; any grouping is exact, so the
  // per-shard result is bit-identical to a serial whole-span build.
  for (std::uint32_t ls = 0; ls < local; ++ls) {
    Shard& sh = shards_[ls];
    for (std::uint32_t c = 0; c + 1 < sub_; ++c) {
      sh.built.add(sh.partials[c]);
      sh.pool.release(std::move(sh.partials[c]));
      ++internal_merges_;
    }
  }
  pending_valid_ = false;
  built_valid_ = true;
}

const Histogram& ShardGroup::built_histogram(std::uint32_t local_shard) const {
  BOOSTER_CHECK(built_valid_ && local_shard < num_local());
  return shards_[local_shard].built;
}

void ShardGroup::release_built() {
  BOOSTER_CHECK(built_valid_);
  for (Shard& sh : shards_) sh.pool.release(std::move(sh.built));
  built_valid_ = false;
}

void ShardGroup::finish_tree(const Tree& tree, const Loss& loss, double* hops,
                             double* quantized_loss) {
  BOOSTER_CHECK_MSG(frontier_.empty(), "step 5 before the tree is complete");
  const std::uint32_t local = num_local();
  if (local == 0) {
    if (hops != nullptr) *hops = 0.0;
    if (quantized_loss != nullptr) *quantized_loss = 0.0;
    return;
  }
  BOOSTER_CHECK_MSG(
      tree.num_nodes() == static_cast<std::uint32_t>(next_tree_node_),
      "finished tree differs from the one grown here");
  std::uint64_t hop_total = 0;
  for (Shard& sh : shards_) {
    for (LeafSpan& leaf : sh.leaves) {
      const TreeNode& node = tree.node(leaf.tree_node);
      BOOSTER_CHECK_MSG(node.is_leaf && node.depth == leaf.depth,
                        "finished tree differs from the one grown here");
      leaf.delta = static_cast<float>(node.weight);
    }
    hop_total += order_leaf_spans(sh.leaves, sh.num_rows());
  }
  // Phase 1 scatters deltas over each shard's arena positions, phase 2 is
  // the dense per-row pass over each shard's rows; both over the
  // flattened (shard, sub-chunk) task grid.
  const std::uint64_t row_base = shards_.front().row_begin;
  pool_->run_tasks(local * sub_, [&](unsigned task) {
    const Shard& sh = shards_[task / sub_];
    const auto [b, e] = chunk_range(0, sh.num_rows(), task % sub_, sub_);
    scatter_leaf_deltas(sh.leaves, sh.arena, b, e, row_base, deltas_);
  });
  pool_->run_tasks(local * sub_, [&](unsigned task) {
    const Shard& sh = shards_[task / sub_];
    const auto [b, e] =
        chunk_range(sh.row_begin, sh.row_end, task % sub_, sub_);
    double chunk_loss = 0.0;
    for (std::uint64_t r = b; r < e; ++r) {
      preds_[r] += deltas_[r - row_base];
      const LossEval ev = loss.evaluate(preds_[r], data_.labels()[r]);
      gradients_[r] = ev.grad;
      chunk_loss += quantize_stat(ev.value);
    }
    chunk_losses_[task] = chunk_loss;
  });
  // Loss terms are quantized, so this reduction is exact in any grouping;
  // (shard, chunk) order keeps it readable.
  double loss_total = 0.0;
  for (std::uint32_t t = 0; t < local * sub_; ++t) {
    loss_total += chunk_losses_[t];
  }
  if (hops != nullptr) *hops = static_cast<double>(hop_total);
  if (quantized_loss != nullptr) *quantized_loss = loss_total;
}

void ShardGroup::replay_tree(const Tree& tree, const Loss& loss) {
  const std::uint32_t local = num_local();
  if (local == 0) return;
  flat_.assign(tree);
  const auto& ker = util::simd::kernels();
  pool_->run_tasks(local * sub_, [&](unsigned task) {
    const Shard& sh = shards_[task / sub_];
    const auto [b, e] =
        chunk_range(sh.row_begin, sh.row_end, task % sub_, sub_);
    double wts[util::simd::kMaxPredictTile];
    const util::simd::FlatTreeView view = flat_.view();
    // Blocked SIMD traversal: pure routing plus per-record updates in
    // ascending order, bit-identical to the per-record loop at every
    // dispatch level.
    for (std::uint64_t r0 = b; r0 < e; r0 += ker.predict_tile) {
      const std::size_t m = static_cast<std::size_t>(
          std::min<std::uint64_t>(ker.predict_tile, e - r0));
      ker.traverse_block(view, col_ptrs_.data(), r0, m, wts, nullptr);
      for (std::size_t i = 0; i < m; ++i) {
        const std::uint64_t r = r0 + i;
        preds_[r] += static_cast<float>(wts[i]);
        gradients_[r] = loss.gradients(preds_[r], data_.labels()[r]);
      }
    }
  });
}

std::vector<ShardHotPathStats> ShardGroup::shard_stats() const {
  std::vector<ShardHotPathStats> stats;
  stats.reserve(num_local());
  for (const Shard& sh : shards_) {
    ShardHotPathStats ss;
    ss.rows = sh.num_rows();
    ss.histogram_allocations = sh.pool.allocations();
    ss.histogram_acquires = sh.pool.acquires();
    ss.arena_bytes =
        (sh.arena.size() + sh.scratch.size()) * sizeof(std::uint32_t) +
        sh.num_rows() * sizeof(float);  // the shard's slice of deltas_
    ss.sub_chunks = sub_;
    stats.push_back(ss);
  }
  return stats;
}

}  // namespace booster::gbdt

#include "gbdt/shard_ops.h"

#include <algorithm>
#include <span>
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
  // Step-5 state covers the group's own rows only, indexed from its first
  // row (the owned shards are contiguous).
  row_base_ = shards_.front().row_begin;
  const std::uint64_t group_rows = shards_.back().row_end - row_base_;
  preds_.resize(group_rows);
  gradients_.resize(group_rows);
  deltas_.resize(group_rows);
  col_ptrs_ = column_pointers(data_);
  node_chunks_.resize(local);
  tasks_.reserve(static_cast<std::size_t>(local) * sub_);
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

unsigned ShardGroup::plan_node_tasks(std::uint32_t slot,
                                     std::uint64_t grain) {
  tasks_.clear();
  for (std::uint32_t ls = 0; ls < num_local(); ++ls) {
    const std::uint32_t chunks = std::min(
        sub_, pool_->num_chunks(span_end(slot, ls) - span_begin(slot, ls),
                                grain));
    node_chunks_[ls] = chunks;
    for (std::uint32_t c = 0; c < chunks; ++c) tasks_.push_back(ls * sub_ + c);
  }
  return static_cast<unsigned>(tasks_.size());
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

double ShardGroup::refresh_rows(const Loss& loss, std::uint64_t begin,
                                std::uint64_t end, bool add_deltas,
                                bool with_loss) {
  const std::size_t first = begin - row_base_;
  const std::size_t count = end - begin;
  return loss.refresh(
      std::span<float>(preds_).subspan(first, count),
      add_deltas ? std::span<const float>(deltas_).subspan(first, count)
                 : std::span<const float>{},
      std::span<const float>(data_.labels()).subspan(begin, count),
      std::span<GradientPair>(gradients_).subspan(first, count), with_loss);
}

void ShardGroup::reset(const Loss& loss, const Model& model,
                       std::span<const float> carried,
                       std::uint32_t carried_trees) {
  if (num_local() == 0) return;
  BOOSTER_CHECK(carried.size() <= data_.num_records() &&
                carried_trees <= model.num_trees());
  const FlatEnsemble flat(model);
  const float base = static_cast<float>(model.base_score());
  const std::uint64_t carried_end = carried.size();
  pool_->run_tasks(num_local() * sub_, [&](unsigned task) {
    const Shard& sh = shards_[task / sub_];
    const auto [b, e] =
        chunk_range(sh.row_begin, sh.row_end, task % sub_, sub_);
    // Rows [b, mid) start from their carried predictions and add the
    // trees after carried_trees; rows [mid, e) start from the base score
    // and add every tree. Tile-major either way: every tree on one tile
    // of rows, each row adding (float)w tree by tree -- the float adds a
    // refresh per tree would make -- then one refresh for the whole chunk.
    const std::uint64_t mid = std::clamp(carried_end, b, e);
    float* preds = preds_.data() + (b - row_base_);
    if (mid > b) {
      std::copy(carried.data() + b, carried.data() + mid, preds);
      flat.accumulate(col_ptrs_.data(), b, mid - b, preds, carried_trees);
    }
    std::fill(preds + (mid - b), preds + (e - b), base);
    flat.accumulate(col_ptrs_.data(), mid, e - mid, preds + (mid - b));
    refresh_rows(loss, b, e, /*add_deltas=*/false, /*with_loss=*/false);
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
    const unsigned tasks = plan_node_tasks(node.slot, kPartitionGrain);
    pool_->run_tasks(tasks, [&](unsigned task) {
      const std::uint32_t idx = tasks_[task];
      const std::uint32_t ls = idx / sub_;
      Shard& sh = shards_[ls];
      const auto [b, e] =
          chunk_range(span_begin(node.slot, ls), span_end(node.slot, ls),
                      idx % sub_, node_chunks_[ls]);
      chunk_lefts_[idx] = partition_chunk(sh.arena.data() + b, e - b, col,
                                          sides_.data(),
                                          sh.scratch.data() + b);
    });
    for (std::uint32_t ls = 0; ls < local; ++ls) {
      std::uint64_t total = 0;
      for (std::uint32_t c = 0; c < node_chunks_[ls]; ++c) {
        std::uint64_t& lefts =
            chunk_lefts_[static_cast<std::size_t>(ls) * sub_ + c];
        const std::uint64_t chunk_left = lefts;
        lefts = total;
        total += chunk_left;
      }
      shard_lefts_[ls] = total;
    }
    // When this group covers the whole partition (the single-rank world),
    // the realized left total must equal the split's claimed bucket count.
    // It is checked before pass 2 writes anything outside the scratch.
    // Partial groups cannot check it; rank 0's merged histogram counts
    // imply the global identity.
    if (shard_begin_ == 0 && shard_end_ == num_shards_) {
      std::uint64_t group_left = 0;
      for (std::uint32_t ls = 0; ls < local; ++ls) {
        group_left += shard_lefts_[ls];
      }
      BOOSTER_CHECK_MSG(
          group_left == n_left_total,
          "sharded partition disagrees with the split's bucket counts");
    }
    pool_->run_tasks(tasks, [&](unsigned task) {
      const std::uint32_t idx = tasks_[task];
      const std::uint32_t ls = idx / sub_;
      const std::uint32_t c = idx % sub_;
      Shard& sh = shards_[ls];
      const std::uint64_t sb = span_begin(node.slot, ls);
      const auto [b, e] =
          chunk_range(sb, span_end(node.slot, ls), c, node_chunks_[ls]);
      const std::uint64_t lefts_before = chunk_lefts_[idx];
      const std::uint64_t lefts_through = c + 1 < node_chunks_[ls]
                                              ? chunk_lefts_[idx + 1]
                                              : shard_lefts_[ls];
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
  const unsigned tasks = plan_node_tasks(pending_.slot, kHistogramGrain);
  // Acquire every buffer on the driving thread: the per-shard pools are
  // not thread-safe, and pre-acquisition keeps the fan-out allocation-free
  // once the pools are warm. A shard with an empty span keeps its cleared
  // histogram.
  for (std::uint32_t ls = 0; ls < local; ++ls) {
    Shard& sh = shards_[ls];
    sh.built = sh.pool.acquire();
    while (sh.partials.size() + 1 < sub_) sh.partials.push_back(Histogram{});
    for (std::uint32_t c = 0; c + 1 < node_chunks_[ls]; ++c) {
      sh.partials[c] = sh.pool.acquire();
    }
  }
  pool_->run_tasks(tasks, [&](unsigned task) {
    const std::uint32_t idx = tasks_[task];
    const std::uint32_t ls = idx / sub_;
    const std::uint32_t c = idx % sub_;
    Shard& sh = shards_[ls];
    const auto [b, e] = chunk_range(span_begin(pending_.slot, ls),
                                    span_end(pending_.slot, ls), c,
                                    node_chunks_[ls]);
    Histogram& h = c == 0 ? sh.built : sh.partials[c - 1];
    h.build(data_,
            std::span<const std::uint32_t>(sh.arena.data() + b, e - b),
            gradients_, static_cast<std::uint32_t>(row_base_));
  });
  // Chunk partials merge in chunk order; any grouping is exact, so the
  // per-shard result is bit-identical to a serial whole-span build.
  for (std::uint32_t ls = 0; ls < local; ++ls) {
    Shard& sh = shards_[ls];
    for (std::uint32_t c = 0; c + 1 < node_chunks_[ls]; ++c) {
      sh.built.add(sh.partials[c]);
      sh.pool.release(std::move(sh.partials[c]));
      ++internal_merges_;
    }
  }
  pending_valid_ = false;
  built_valid_ = true;
}

Histogram& ShardGroup::built_histogram(std::uint32_t local_shard) {
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
      // The scatter below binary-searches each leaf span by row id, so a
      // span out of order would silently skip rows.
      BOOSTER_DCHECK(std::is_sorted(sh.arena.data() + leaf.begin,
                                    sh.arena.data() + leaf.end));
    }
    hop_total += order_leaf_spans(sh.leaves, sh.num_rows());
  }
  // One pass per (shard, sub-chunk) of rows [b, e): each leaf's delta
  // goes to the leaf's rows in [b, e) -- a sub-span of the leaf's arena
  // span, found by binary search since spans ascend in row id -- then one
  // Loss::refresh covers the same rows. Each task writes only its own
  // rows' deltas, so threads share a line of deltas_ only at chunk edges.
  const bool with_loss = quantized_loss != nullptr;
  pool_->run_tasks(local * sub_, [&](unsigned task) {
    const Shard& sh = shards_[task / sub_];
    const auto [b, e] =
        chunk_range(sh.row_begin, sh.row_end, task % sub_, sub_);
    scatter_leaf_deltas(sh.leaves, sh.arena, b, e, row_base_, deltas_);
    chunk_losses_[task] =
        refresh_rows(loss, b, e, /*add_deltas=*/true, with_loss);
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

#include "gbdt/trainer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "gbdt/flat_ensemble.h"
#include "gbdt/hotpath.h"
#include "gbdt/sharded.h"
#include "util/check.h"
#include "util/simd.h"
#include "util/thread_pool.h"

namespace booster::gbdt {

namespace {

using trace::StepEvent;
using trace::StepKind;
using trace::StepTrace;

/// Rows per chunk for the embarrassingly parallel per-record loops
/// (step-5 leaf scatter, gradient refresh with loss evaluation, warm-start
/// replay).
constexpr std::uint64_t kRecordGrain = 2048;

/// Mutable state of one frontier node during tree growth. The node's
/// records are the span [begin, end) of the trainer's row arena -- no
/// per-node row storage. Partitioning a node rewrites only its own span
/// (its children are the two halves), and frontier spans are disjoint, so
/// nodes may be split in any order.
struct FrontierNode {
  std::int32_t tree_node = 0;
  std::int32_t depth = 0;
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  Histogram hist;
  BinStats totals;

  std::uint64_t num_rows() const { return end - begin; }
};

void emit(StepTrace* trace, StepEvent e) {
  if (trace != nullptr) trace->add(e);
}

}  // namespace

TrainResult Trainer::train(const BinnedDataset& data, StepTrace* trace,
                           trace::WorkloadInfo* info) const {
  if (cfg_.num_shards > 1) {
    // Sharded training is a drop-in engine swap: per-shard histograms
    // merged in fixed shard order, bit-identical output (sharded.h).
    return ShardedTrainer(cfg_).train(data, trace, info);
  }
  const std::uint64_t n = data.num_records();
  BOOSTER_CHECK_MSG(n > 0, "cannot train on an empty dataset");
  auto loss = make_loss(cfg_.loss);
  const std::uint32_t num_fields = data.num_fields();

  // One pool + one histogram pool + one row arena for the whole run; the
  // per-tree loop below performs no allocations once these and the
  // per-tree scratch vectors are warm. Every node's records are a span of
  // `rows`; `row_scratch` is the partition kernel's pass-1 scratch.
  util::ThreadPool pool(cfg_.num_threads);
  HistogramPool hist_pool(data);
  std::vector<std::uint32_t> rows(n);
  std::vector<std::uint32_t> row_scratch(n);
  std::vector<std::uint64_t> chunk_counts(pool.num_threads() + 1, 0);
  std::vector<double> chunk_sums(pool.num_threads(), 0.0);
  std::vector<Histogram> partials_scratch;
  // Step 5 scratch: the finished tree's leaf spans and each record's
  // scattered leaf delta.
  std::vector<LeafSpan> leaves;
  std::vector<float> deltas(n);
  // Growth scratch, cleared per tree. The frontier is a FIFO over a vector
  // (`head` is the next node to expand) so it keeps its capacity across
  // trees. Level-by-level growth aggregates child binning per level (one
  // record stream per level, paper SS II-A); indexed by depth. The node
  // count rides along so the aggregated event reports how many per-node
  // histograms it covers (StepEvent::histograms).
  std::vector<FrontierNode> frontier;
  std::vector<std::uint64_t> level_hist_records;
  std::vector<std::uint32_t> level_hist_nodes;

  // Base score from the label mean (logit-transformed for logistic loss),
  // or inherited from the warm-start model so its leaf weights keep
  // meaning the same raw-score deltas.
  double base_score;
  if (cfg_.init_model != nullptr) {
    BOOSTER_CHECK_MSG(cfg_.init_model->loss().name() == cfg_.loss,
                      "warm start: init model's loss differs from the "
                      "config's loss");
    base_score = cfg_.init_model->base_score();
  } else {
    double label_mean = 0.0;
    for (float y : data.labels()) label_mean += y;
    label_mean /= static_cast<double>(n);
    base_score = loss->base_score(label_mean);
  }

  std::vector<float> preds(n, static_cast<float>(base_score));
  std::vector<GradientPair> gradients(n);
  // Initial gradient pass: part of pre-processing (no tree to traverse),
  // so it is not a step-5 event.
  pool.parallel_for(0, n, kRecordGrain,
                    [&](std::uint64_t b, std::uint64_t e, unsigned) {
                      for (std::uint64_t r = b; r < e; ++r) {
                        gradients[r] =
                            loss->gradients(preds[r], data.labels()[r]);
                      }
                    });

  const SplitFinder finder(cfg_.split);
  TrainResult result{.model = Model(base_score, make_loss(cfg_.loss))};

  // Warm start: copy the init ensemble into the result and replay each of
  // its trees -- which were not grown on these rows, so they have no leaf
  // spans -- through the blocked SIMD traversal kernel, updating preds and
  // recomputing gradients in ascending record order. That is the
  // identical arithmetic step 5 performs for a tree it just grew, so
  // everything downstream (histograms, splits, weights) is bit-identical
  // across threads / shards / SIMD.
  if (cfg_.init_model != nullptr) {
    const std::vector<const BinIndex*> col_ptrs = column_pointers(data);
    FlatTree flat_scratch;
    const auto& ker0 = util::simd::kernels();
    for (const Tree& init_tree : cfg_.init_model->trees()) {
      flat_scratch.assign(init_tree);
      pool.parallel_for(
          0, n, kRecordGrain,
          [&](std::uint64_t b, std::uint64_t e, unsigned) {
            double wts[util::simd::kMaxPredictTile];
            std::uint32_t tile_hops[util::simd::kMaxPredictTile];
            const util::simd::FlatTreeView view = flat_scratch.view();
            for (std::uint64_t r0 = b; r0 < e; r0 += ker0.predict_tile) {
              const std::size_t m = static_cast<std::size_t>(
                  std::min<std::uint64_t>(ker0.predict_tile, e - r0));
              ker0.traverse_block(view, col_ptrs.data(), r0, m, wts,
                                  tile_hops);
              for (std::size_t i = 0; i < m; ++i) {
                const std::uint64_t r = r0 + i;
                preds[r] += static_cast<float>(wts[i]);
                gradients[r] = loss->gradients(preds[r], data.labels()[r]);
              }
            }
          });
      // Placeholder stats keep tree_stats index-aligned with model.trees()
      // (the distributed catch-up payload relies on that alignment).
      TreeStats init_stats;
      init_stats.leaves = init_tree.num_leaves();
      init_stats.depth = init_tree.max_depth();
      result.tree_stats.push_back(init_stats);
      result.model.add_tree(init_tree);
    }
  }

  double leaf_depth_sum = 0.0;
  std::uint64_t leaf_count = 0;
  double prev_loss = std::numeric_limits<double>::infinity();
  std::uint32_t stagnant_trees = 0;

  for (std::uint32_t t = 0; t < cfg_.num_trees; ++t) {
    Tree tree;
    frontier.clear();
    std::size_t head = 0;
    level_hist_records.clear();
    level_hist_nodes.clear();
    leaves.clear();

    // Reset the arena to ascending row order: the partition is stable, so
    // every node span stays ascending all the way down -- histogram
    // gathers then stream the row-major matrix forward (the cache behavior
    // the seed got from its freshly-copied sorted row vectors) instead of
    // walking the previous tree's permutation.
    pool.parallel_for(0, n, kRecordGrain,
                      [&](std::uint64_t b, std::uint64_t e, unsigned) {
                        for (std::uint64_t r = b; r < e; ++r) {
                          rows[r] = static_cast<std::uint32_t>(r);
                        }
                      });

    // Root: bin all records (step 1 at the root covers the full dataset).
    {
      FrontierNode root;
      root.tree_node = tree.root();
      root.depth = 0;
      root.begin = 0;
      root.end = n;
      root.hist = hist_pool.acquire();
      build_histogram_parallel(root.hist, data, rows, gradients, pool,
                               hist_pool, partials_scratch);
      root.totals = root.hist.totals();
      emit(trace, StepEvent{.kind = StepKind::kHistogram,
                            .tree = static_cast<std::int32_t>(t),
                            .depth = 0,
                            .records = n,
                            .fields_touched = num_fields,
                            .record_fields = num_fields});
      frontier.push_back(std::move(root));
    }

    // Weights leaf `id`, whose records are the arena's [begin, end), and
    // keeps that span for step 5.
    auto add_leaf = [&](std::int32_t id, const BinStats& totals,
                        std::int32_t depth, std::uint64_t begin,
                        std::uint64_t end) {
      const double w =
          cfg_.learning_rate * leaf_weight(totals, cfg_.split.lambda);
      tree.set_leaf_weight(id, w);
      leaves.push_back(LeafSpan{.begin = begin,
                                .end = end,
                                .delta = static_cast<float>(w),
                                .tree_node = id,
                                .depth = depth});
      leaf_depth_sum += depth;
      ++leaf_count;
    };

    while (head < frontier.size()) {
      FrontierNode node = std::move(frontier[head++]);

      auto make_leaf = [&](const BinStats& totals) {
        add_leaf(node.tree_node, totals, node.depth, node.begin, node.end);
        hist_pool.release(std::move(node.hist));
      };

      if (node.depth >= static_cast<std::int32_t>(cfg_.max_depth) ||
          node.num_rows() < cfg_.min_node_records) {
        make_leaf(node.totals);
        continue;
      }

      // Step 2: scan every bin of every field for the best split (host).
      std::uint64_t bins_scanned = 0;
      const auto split = finder.find_best(node.hist, data, &pool, &bins_scanned);
      emit(trace, StepEvent{.kind = StepKind::kSplitSelect,
                            .tree = static_cast<std::int32_t>(t),
                            .depth = node.depth,
                            .bins_scanned = bins_scanned});
      if (!split) {
        make_leaf(node.totals);
        continue;
      }

      // Step 3: apply the predicate to partition the node's arena span in
      // place (stable: identical row order to the scalar two-vector
      // reference at any thread count).
      // The split's left-bucket histogram count is the exact left-row
      // count (counts are exact integers in a double); partition_to aborts
      // if the realized partition disagrees.
      const std::uint64_t n_left = split->left.count_u64();
      BOOSTER_CHECK_MSG(n_left > 0 && n_left < node.num_rows(),
                        "split produced an empty child");
      partition_to(rows, rows, node.begin, node.end, n_left, data, *split,
                   pool, chunk_counts, row_scratch);
      emit(trace, StepEvent{.kind = StepKind::kPartition,
                            .tree = static_cast<std::int32_t>(t),
                            .depth = node.depth,
                            .records = node.num_rows(),
                            .fields_touched = 1,
                            .record_fields = num_fields});
      const std::uint64_t n_right = node.num_rows() - n_left;

      const auto [left_id, right_id] = tree.split_leaf(node.tree_node, *split);

      const std::int32_t child_depth = node.depth + 1;
      const bool children_may_split =
          child_depth < static_cast<std::int32_t>(cfg_.max_depth);
      const std::uint64_t mid = node.begin + n_left;

      if (!children_may_split) {
        // Children are leaves; their totals come from the split evaluation,
        // no further binning needed.
        add_leaf(left_id, split->left, child_depth, node.begin, mid);
        add_leaf(right_id, split->right, child_depth, mid, node.end);
        hist_pool.release(std::move(node.hist));
        continue;
      }

      // Step 1 at the children: explicitly bin only the smaller child; the
      // larger child's histogram is parent - smaller (paper §II-A), computed
      // in place in the parent's recycled buffer.
      const bool left_smaller = n_left <= n_right;
      FrontierNode small;
      FrontierNode large;
      small.tree_node = left_smaller ? left_id : right_id;
      large.tree_node = left_smaller ? right_id : left_id;
      small.depth = large.depth = child_depth;
      small.begin = left_smaller ? node.begin : mid;
      small.end = left_smaller ? mid : node.end;
      large.begin = left_smaller ? mid : node.begin;
      large.end = left_smaller ? node.end : mid;

      small.hist = hist_pool.acquire();
      build_histogram_parallel(
          small.hist, data,
          std::span<const std::uint32_t>(rows.data() + small.begin,
                                         small.num_rows()),
          gradients, pool, hist_pool, partials_scratch);
      small.totals = small.hist.totals();
      if (cfg_.growth == GrowthOrder::kVertexByVertex) {
        emit(trace, StepEvent{.kind = StepKind::kHistogram,
                              .tree = static_cast<std::int32_t>(t),
                              .depth = child_depth,
                              .records = small.num_rows(),
                              .fields_touched = num_fields,
                              .record_fields = num_fields,
                              .used_sibling_subtraction = true});
      } else {
        if (level_hist_records.size() <=
            static_cast<std::size_t>(child_depth)) {
          level_hist_records.resize(child_depth + 1, 0);
          level_hist_nodes.resize(child_depth + 1, 0);
        }
        level_hist_records[child_depth] += small.num_rows();
        ++level_hist_nodes[child_depth];
      }

      large.hist = std::move(node.hist);
      large.hist.subtract(small.hist);
      large.totals = large.hist.totals();

      frontier.push_back(std::move(small));
      frontier.push_back(std::move(large));
    }

    // Level-by-level mode: one aggregated histogram event per level (the
    // level's smaller children are binned from a single record stream).
    if (cfg_.growth == GrowthOrder::kLevelByLevel) {
      for (std::size_t depth = 0; depth < level_hist_records.size(); ++depth) {
        if (level_hist_records[depth] == 0) continue;
        emit(trace, StepEvent{.kind = StepKind::kHistogram,
                              .tree = static_cast<std::int32_t>(t),
                              .depth = static_cast<std::int32_t>(depth),
                              .records = level_hist_records[depth],
                              .fields_touched = num_fields,
                              .record_fields = num_fields,
                              .histograms = level_hist_nodes[depth],
                              .used_sibling_subtraction = true});
      }
    }

    // Step 5: every record already sits in its leaf's arena span (see
    // LeafSpan), so the tree just grown is not traversed again. Each leaf's
    // float delta is scattered to its records, then one dense pass in
    // ascending record order updates the prediction, refreshes the
    // gradient statistics for the next tree, and sums the quantized loss
    // terms. That is the per-record arithmetic of the blocked traversal,
    // so every bit matches it, and the hops sum(depth x span rows) are the
    // integer the traversal counted.
    const std::uint64_t hops = order_leaf_spans(leaves, n);
    pool.parallel_for(0, n, kRecordGrain,
                      [&](std::uint64_t b, std::uint64_t e, unsigned) {
                        scatter_leaf_deltas(leaves, rows, b, e, 0, deltas);
                      });
    std::fill(chunk_sums.begin(), chunk_sums.end(), 0.0);
    pool.parallel_for(
        0, n, kRecordGrain, [&](std::uint64_t b, std::uint64_t e, unsigned c) {
          double chunk_loss = 0.0;
          for (std::uint64_t r = b; r < e; ++r) {
            preds[r] += deltas[r];
            const LossEval ev = loss->evaluate(preds[r], data.labels()[r]);
            gradients[r] = ev.grad;
            // Quantized terms make the reduction exact in any grouping, so
            // train_loss (and the step-6 early-stop decisions it feeds) is
            // bit-identical across thread and shard counts.
            chunk_loss += quantize_stat(ev.value);
          }
          chunk_sums[c] += chunk_loss;
        });
    if (trace != nullptr) {
      trace->add(StepEvent{
          .kind = StepKind::kTraversal,
          .tree = static_cast<std::int32_t>(t),
          .depth = static_cast<std::int32_t>(tree.max_depth()),
          .records = n,
          .fields_touched =
              static_cast<std::uint32_t>(tree.relevant_fields().size()),
          .record_fields = num_fields,
          .avg_path_length =
              static_cast<double>(hops) / static_cast<double>(n)});
    }

    TreeStats stats;
    stats.leaves = tree.num_leaves();
    stats.depth = tree.max_depth();
    double total_loss = 0.0;
    for (const double s : chunk_sums) total_loss += s;
    // Loss terms are non-negative, so the total bounds every partial sum;
    // within capacity the quantized reduction is exact in any grouping
    // (same guard as Histogram::totals -- fail loudly, never drift).
    BOOSTER_CHECK_MSG(total_loss <= kStatSumCapacity,
                      "training-loss sum exceeds the quantized-exact "
                      "capacity (2^29); normalize labels or enlarge "
                      "kStatQuantum");
    stats.train_loss = total_loss / static_cast<double>(n);
    result.tree_stats.push_back(stats);
    result.model.add_tree(std::move(tree));

    // Step 6: keep adding trees only while the loss keeps improving.
    if (cfg_.early_stop_rel_improvement > 0.0) {
      const double improvement =
          prev_loss <= 0.0 ? 0.0 : (prev_loss - stats.train_loss) / prev_loss;
      if (std::isfinite(prev_loss) &&
          improvement < cfg_.early_stop_rel_improvement) {
        if (++stagnant_trees >= cfg_.early_stop_patience) {
          result.early_stopped = true;
          break;
        }
      } else {
        stagnant_trees = 0;
      }
      prev_loss = stats.train_loss;
    }
  }

  result.avg_leaf_depth =
      leaf_count == 0 ? 0.0 : leaf_depth_sum / static_cast<double>(leaf_count);

  result.hot_path.threads = pool.num_threads();
  result.hot_path.simd = util::simd::level_name(util::simd::active());
  result.hot_path.histogram_allocations = hist_pool.allocations();
  result.hot_path.histogram_acquires = hist_pool.acquires();
  result.hot_path.arena_bytes =
      (rows.size() + row_scratch.size()) * sizeof(std::uint32_t) +
      deltas.size() * sizeof(float);
  result.hot_path.row_major_matrix_bytes =
      RecordLayout::software_row_major_bytes(n, num_fields, sizeof(BinIndex));

  detail::fill_workload_info(data, cfg_, result, info);

  return result;
}

namespace detail {

void fill_workload_info(const BinnedDataset& data, const TrainerConfig& cfg,
                        const TrainResult& result,
                        trace::WorkloadInfo* info) {
  if (info == nullptr) return;
  const std::uint32_t num_fields = data.num_fields();
  info->nominal_records = data.num_records();
  info->fields = num_fields;
  info->categorical_fields = 0;
  std::uint64_t onehot = 0;
  for (std::uint32_t f = 0; f < num_fields; ++f) {
    const auto& fb = data.field_bins(f);
    if (fb.kind == FieldKind::kCategorical) {
      ++info->categorical_fields;
      onehot += fb.num_bins - 1;  // per-category one-hot features
    } else {
      ++onehot;
    }
  }
  info->features_onehot = static_cast<std::uint32_t>(onehot);
  info->total_bins = data.total_bins();
  info->max_bins_per_field = data.max_bins_per_field();
  info->bins_per_field.clear();
  info->bins_per_field.reserve(num_fields);
  for (std::uint32_t f = 0; f < num_fields; ++f) {
    info->bins_per_field.push_back(data.field_bins(f).num_bins);
  }
  info->trees = cfg.num_trees;
  info->max_depth = cfg.max_depth;
  info->avg_leaf_depth = result.avg_leaf_depth;
  info->record_bytes = data.layout().record_bytes;
}

}  // namespace detail

}  // namespace booster::gbdt

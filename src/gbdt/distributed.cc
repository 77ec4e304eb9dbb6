#include "gbdt/distributed.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "gbdt/shard_ops.h"
#include "ipc/codec.h"
#include "util/check.h"
#include "util/simd.h"
#include "util/thread_pool.h"

namespace booster::gbdt {

namespace {

using ipc::Frame;
using ipc::HistogramCodec;
using ipc::MessageType;
using trace::StepEvent;
using trace::StepKind;
using trace::StepTrace;

void emit(StepTrace* trace, StepEvent e) {
  if (trace != nullptr) trace->add(e);
}

/// 0 counts as one shard, and empty shards would be harmless but
/// pointless. Every rank applies the same rule, so the global partition
/// agrees without communication.
std::uint32_t clamp_shards(std::uint32_t requested, std::uint64_t n) {
  return static_cast<std::uint32_t>(
      std::min<std::uint64_t>(std::max(1u, requested), n));
}

/// The serial base-score pass shared by every rank: identical code =>
/// identical bits, no communication needed.
double compute_base_score(const BinnedDataset& data, const Loss& loss) {
  double label_mean = 0.0;
  for (float y : data.labels()) label_mean += y;
  label_mean /= static_cast<double>(data.num_records());
  return loss.base_score(label_mean);
}

/// Warm start takes the base score from the init model instead; every rank
/// resolves it identically from its own copy of the config.
double initial_base_score(const BinnedDataset& data, const Loss& loss,
                          const TrainerConfig& tcfg) {
  if (tcfg.init_model == nullptr) return compute_base_score(data, loss);
  BOOSTER_CHECK_MSG(tcfg.init_model->loss().name() == tcfg.loss,
                    "warm start: init model's loss differs from the "
                    "config's loss");
  return tcfg.init_model->base_score();
}

/// Pre-seeds a rank's result with copies of the warm-start trees plus
/// placeholder per-tree stats, keeping tree_stats index-aligned with
/// model.trees() (the catch-up payload pairs trees[i] with
/// tree_stats[i].train_loss). Every reset/rebuild path resets the shard
/// groups from result.model afterwards (ShardGroup::reset), so the init
/// trees flow into preds/gradients exactly like finished trees do.
void seed_warm_start(TrainResult* result, const TrainerConfig& tcfg) {
  if (tcfg.init_model == nullptr) return;
  for (const Tree& t : tcfg.init_model->trees()) {
    TreeStats stats;
    stats.leaves = t.num_leaves();
    stats.depth = t.max_depth();
    result->tree_stats.push_back(stats);
    result->model.add_tree(t);
  }
}

/// One frontier node of the rank-0 driver: global bookkeeping plus the
/// merged histogram (the groups hold the arena spans).
struct DriverNode {
  std::int32_t tree_node = 0;
  std::int32_t depth = 0;
  std::uint64_t rows = 0;
  Histogram hist;
  BinStats totals;
};

/// A worker rank as seen from rank 0.
struct Remote {
  std::uint32_t rank = 0;
  std::uint32_t shard_begin = 0;
  std::uint32_t shard_end = 0;
  bool alive = true;

  std::uint32_t shards() const { return shard_end - shard_begin; }
};

/// Leaf-depth bookkeeping workers derive from the finished tree itself
/// (rank 0 accumulates the same sums in its make_leaf paths; both are
/// integer sums over the same leaves, so avg_leaf_depth matches bitwise).
void accumulate_leaf_depths(const Tree& tree, double* leaf_depth_sum,
                            std::uint64_t* leaf_count) {
  for (std::uint32_t id = 0; id < tree.num_nodes(); ++id) {
    const TreeNode& n = tree.node(static_cast<std::int32_t>(id));
    if (n.is_leaf) {
      *leaf_depth_sum += n.depth;
      ++*leaf_count;
    }
  }
}

/// The HotPathStats fields every rank fills the same way after training:
/// dispatch provenance, thread and shard counts, the sums over the rank's
/// shard groups (in shard order) and the row-major matrix size. Rank 0
/// adds its merge count and its merge pools' counters on top.
void fill_hot_path(const util::ThreadPool& pool, std::uint32_t num_shards,
                   const BinnedDataset& data,
                   std::span<const std::unique_ptr<ShardGroup>> groups,
                   HotPathStats* hp) {
  hp->threads = pool.num_threads();
  hp->simd = util::simd::level_name(util::simd::active());
  hp->shards = num_shards;
  for (const auto& g : groups) {
    hp->chunk_merges += g->internal_merges();
    for (const ShardHotPathStats& ss : g->shard_stats()) {
      hp->histogram_allocations += ss.histogram_allocations;
      hp->histogram_acquires += ss.histogram_acquires;
      hp->arena_bytes += ss.arena_bytes;
      hp->per_shard.push_back(ss);
    }
  }
  hp->row_major_matrix_bytes = RecordLayout::software_row_major_bytes(
      data.num_records(), data.num_fields(), sizeof(BinIndex));
}

}  // namespace

DistributedTrainer::DistributedTrainer(DistributedConfig cfg,
                                       ipc::Transport* transport)
    : cfg_(cfg), transport_(transport) {}

std::uint32_t DistributedTrainer::rank() const {
  return transport_ == nullptr ? 0 : transport_->rank();
}

std::uint32_t DistributedTrainer::world_size() const {
  return transport_ == nullptr ? 1 : transport_->world_size();
}

TrainResult DistributedTrainer::train(const BinnedDataset& data,
                                      StepTrace* trace,
                                      trace::WorkloadInfo* info) {
  stats_ = DistributedStats{};
  stats_.world_size = world_size();
  stats_.rank = rank();
  if (rank() != 0) return follow(data, info);
  BOOSTER_CHECK_MSG(!cfg_.elastic || transport_ == nullptr ||
                        transport_->membership_capable(),
                    "elastic training needs a membership-capable transport "
                    "on rank 0 (TcpTransport)");
  return coordinate(data, trace, info);
}

TrainResult DistributedTrainer::coordinate(const BinnedDataset& data,
                                           StepTrace* trace,
                                           trace::WorkloadInfo* info) {
  const std::uint64_t n = data.num_records();
  BOOSTER_CHECK_MSG(n > 0, "cannot train on an empty dataset");
  const TrainerConfig& tcfg = cfg_.trainer;
  auto loss = make_loss(tcfg.loss);
  const std::uint32_t num_fields = data.num_fields();
  const std::uint32_t num_shards = clamp_shards(tcfg.num_shards, n);
  const std::uint32_t world = world_size();
  stats_.shards_total = num_shards;

  util::ThreadPool pool(tcfg.num_threads);
  data.ensure_row_major();

  // No channel in a single-rank world: every loop below that talks to a
  // worker runs over an empty rank range there.
  std::optional<ipc::ReliableChannel> channel;
  if (transport_ != nullptr) channel.emplace(transport_, cfg_.channel);
  ipc::MembershipTracker members(world);

  /// A worker rank's protocol standing. Pending and active are the live
  /// states; a zombie was declared dead mid-tree (its shards adopted) but
  /// may still be connected and following the broadcast stream, so it can
  /// finish cleanly; gone is evicted for good (only a fresh session
  /// nonce re-joins).
  enum class Standing : std::uint8_t {
    kNever = 0,
    kPending,
    kActive,
    kZombie,
    kGone
  };
  std::vector<Standing> standing(world, Standing::kNever);

  const double base_score = initial_base_score(data, *loss, tcfg);
  BOOSTER_CHECK_MSG(tcfg.init_predictions.empty() || tcfg.init_model != nullptr,
                    "warm start: init_predictions without an init_model");
  BOOSTER_CHECK_MSG(tcfg.init_predictions.size() <= n,
                    "warm start: more init_predictions than records");
  // Rank 0's groups (its own and adopted ones) start the carried rows
  // from init_predictions, which hold the init model's trees, and replay
  // only the trees finished since on top.
  const std::uint32_t carried_trees =
      tcfg.init_model == nullptr ? 0 : tcfg.init_model->num_trees();

  // Rank 0's groups: exactly one covering its current assignment at every
  // tree start; mid-tree adoptions append temporaries that the next
  // boundary's rebuild retires.
  std::vector<std::unique_ptr<ShardGroup>> groups;
  std::uint32_t my_begin = 0;
  std::uint32_t my_end = 0;

  HistogramPool merged_pool(data);
  HistogramPool rx_pool(data);
  std::vector<Histogram> rx_by_shard(num_shards);
  std::vector<std::uint8_t> rx_filled(num_shards, 0);
  std::uint64_t driver_merges = 0;

  const SplitFinder finder(tcfg.split);
  TrainResult result{.model = Model(base_score, make_loss(tcfg.loss))};
  // Warm start: seed the result before the first assign_tree -- the group
  // (re)build below resets from result.model, and the catch-up payload
  // ships the init trees to joiners like any finished-tree prefix.
  seed_warm_start(&result, tcfg);

  double leaf_depth_sum = 0.0;
  std::uint64_t leaf_count = 0;
  double prev_loss = std::numeric_limits<double>::infinity();
  std::uint32_t stagnant_trees = 0;

  std::vector<ipc::SplitDecisionMsg> decisions;
  std::uint32_t build_seq = 0;
  std::vector<Remote> remotes;  // this tree's active workers

  const auto owner_group = [&](std::uint32_t shard) -> ShardGroup* {
    for (auto& g : groups) {
      if (shard >= g->shard_begin() && shard < g->shard_end()) return g.get();
    }
    return nullptr;
  };

  /// The finished-model prefix a joiner needs to enter the protocol.
  const auto catch_up_payload = [&]() {
    ipc::CatchUpMsg msg;
    const auto& trees = result.model.trees();
    msg.trees.reserve(trees.size());
    for (std::size_t i = 0; i < trees.size(); ++i) {
      ipc::CatchUpMsg::TreeEntry entry;
      entry.nodes.reserve(trees[i].num_nodes());
      for (std::uint32_t id = 0; id < trees[i].num_nodes(); ++id) {
        entry.nodes.push_back(trees[i].node(static_cast<std::int32_t>(id)));
      }
      entry.train_loss = result.tree_stats[i].train_loss;
      msg.trees.push_back(std::move(entry));
    }
    return HistogramCodec::encode_catch_up(msg);
  };

  /// Folds the transport's peer events into the membership view and
  /// admits/evicts at a tree boundary (or, with fire_hook off, at the
  /// final sweep). The live rule admits pending ranks at every boundary;
  /// the fixed rule admits the whole world at the first one -- after
  /// waiting, bounded by the liveness deadline, for every rank to
  /// connect, so a slow connect cannot shift the shard assignment -- and
  /// never again. A rank still unconnected then counts as dead.
  bool first_boundary = true;
  const auto process_membership = [&](std::uint32_t t, bool fire_hook) {
    if (fire_hook && cfg_.on_tree_boundary) cfg_.on_tree_boundary(t);
    if (transport_ == nullptr) return;
    if (!cfg_.elastic && first_boundary) {
      const auto deadline =
          std::chrono::steady_clock::now() + cfg_.channel.liveness_timeout;
      for (std::uint32_t r = 1; r < world; ++r) {
        standing[r] = Standing::kPending;
        while (!transport_->peer_connected(r) &&
               std::chrono::steady_clock::now() < deadline) {
          transport_->pump(std::chrono::milliseconds(5));
        }
        if (!transport_->peer_connected(r)) ++stats_.dead_workers;
      }
    }
    transport_->pump(std::chrono::milliseconds(0));
    for (const ipc::PeerEvent& ev : transport_->take_peer_events()) {
      if (ev.kind == ipc::PeerEventKind::kJoined ||
          ev.kind == ipc::PeerEventKind::kNewSession) {
        // A fresh incarnation of the rank: wipe both sides' protocol
        // memory and queue it for (re-)admission with a catch-up.
        channel->reset_peer(ev.rank);
        if (standing[ev.rank] == Standing::kActive) members.remove(ev.rank);
        standing[ev.rank] = Standing::kPending;
      }
      // kResumed continues the same stream (nothing to do); a
      // kDisconnected peer may still resume within its window, so
      // liveness -- not the event -- decides its fate mid-tree.
    }
    const bool admitting = cfg_.elastic || first_boundary;
    for (std::uint32_t r = 1; r < world; ++r) {
      if (standing[r] == Standing::kZombie && !transport_->peer_connected(r)) {
        transport_->drop_peer(r);
        standing[r] = Standing::kGone;
      }
      if (admitting && standing[r] == Standing::kPending &&
          transport_->peer_connected(r)) {
        channel->send(r, MessageType::kCatchUp, catch_up_payload());
        members.admit(r);
        standing[r] = Standing::kActive;
        if (!first_boundary) ++stats_.joins;
      }
    }
    first_boundary = false;
  };

  /// Rebuilds rank 0's own group when its range under the current view
  /// moved (or adoptions appended temporaries).
  const auto own_group = [&]() {
    const auto [b0, e0] = members.assignment(num_shards, 0);
    if (groups.size() == 1 && b0 == my_begin && e0 == my_end) return;
    if (groups.empty()) stats_.shards_local = e0 - b0;
    groups.clear();
    groups.push_back(
        std::make_unique<ShardGroup>(data, tcfg, num_shards, b0, e0, &pool));
    groups[0]->reset(*loss, result.model, tcfg.init_predictions,
                     carried_trees);
    my_begin = b0;
    my_end = e0;
  };

  /// Recomputes the shard assignment from the current view and tells
  /// every follower its range for tree `t`.
  const auto assign_tree = [&](std::uint32_t t) {
    own_group();
    const auto& parts = members.participants();
    remotes.clear();
    for (std::uint32_t i = 1; i < parts.size(); ++i) {
      const auto [sb, se] = members.assignment(num_shards, i);
      remotes.push_back(Remote{parts[i], sb, se, true});
    }
    ipc::ShardAssignMsg msg;
    msg.tree = t;
    msg.view_epoch = members.view_epoch();
    msg.num_shards = num_shards;
    for (const Remote& remote : remotes) {
      msg.shard_begin = remote.shard_begin;
      msg.shard_end = remote.shard_end;
      channel->send(remote.rank, MessageType::kShardAssign,
                    HistogramCodec::encode_shard_assign(msg));
    }
    // Connected zombies get an empty range: they follow the stream (and
    // exit at the final assignment) without contributing shards.
    msg.shard_begin = msg.shard_end = 0;
    for (std::uint32_t r = 1; r < world; ++r) {
      if (standing[r] == Standing::kZombie && transport_->peer_connected(r)) {
        channel->send(r, MessageType::kShardAssign,
                      HistogramCodec::encode_shard_assign(msg));
      }
    }
  };

  /// Declares `remote` dead and re-executes its shards locally: fresh
  /// group, prediction catch-up through every finished tree, then a
  /// worker-loop replay of the current tree's decision log (leaving the
  /// group's frontier -- and its pending build -- exactly where the live
  /// worker's was). Pure recomputation of deterministic state, so the
  /// training result is unchanged. The rank becomes a zombie: it may still
  /// follow the broadcast stream and is evicted once it disconnects.
  const auto adopt = [&](Remote& remote) -> ShardGroup* {
    remote.alive = false;
    ++stats_.dead_workers;
    stats_.shards_adopted += remote.shards();
    members.remove(remote.rank);
    standing[remote.rank] = Standing::kZombie;
    auto g = std::make_unique<ShardGroup>(data, tcfg, num_shards,
                                          remote.shard_begin,
                                          remote.shard_end, &pool);
    g->reset(*loss, result.model, tcfg.init_predictions, carried_trees);
    g->begin_tree(n);
    std::size_t replay = 0;
    while (!g->frontier_empty()) {
      if (g->head_is_bounds_leaf()) {
        g->apply_leaf();
        continue;
      }
      if (replay == decisions.size()) break;
      const ipc::SplitDecisionMsg& d = decisions[replay++];
      if (d.has_split) {
        g->apply_split(d.split);
      } else {
        g->apply_leaf();
      }
    }
    groups.push_back(std::move(g));
    return groups.back().get();
  };

  /// Builds every group's pending node, collects the remote shard
  /// histograms for the same build point, and merges them all -- in fixed
  /// global shard order -- into one pooled histogram. Unresponsive
  /// workers are adopted mid-gather.
  const auto gather_merged = [&](std::uint32_t t) {
    const std::uint32_t build_idx = build_seq++;
    for (auto& g : groups) {
      if (g->num_local() > 0) g->build_pending();
    }
    for (Remote& remote : remotes) {
      if (!remote.alive || remote.shards() == 0) continue;
      for (std::uint32_t s = remote.shard_begin; s < remote.shard_end; ++s) {
        Frame frame;
        if (!channel->recv(remote.rank, &frame)) {
          ShardGroup* adopted = adopt(remote);
          adopted->build_pending();
          break;
        }
        BOOSTER_CHECK_MSG(frame.type == MessageType::kShardHistogram,
                          "unexpected message while gathering shard "
                          "histograms (protocol desync)");
        ipc::ShardHistogramMsg msg;
        // The decode overwrites every bin's count/g/h, so no clear.
        Histogram rx = rx_pool.take();
        BOOSTER_CHECK_MSG(
            HistogramCodec::decode_shard_histogram_into(frame.payload, &msg,
                                                        &rx),
            "shard-histogram payload failed to decode (protocol desync)");
        BOOSTER_CHECK_MSG(msg.tree == t && msg.build_seq == build_idx &&
                              msg.shard == s,
                          "shard histogram for the wrong build point "
                          "(protocol desync)");
        rx_by_shard[s] = std::move(rx);
        rx_filled[s] = 1;
      }
    }
    // Shard 0's histogram becomes the merge target by a buffer swap, so
    // the buffer taken here is never cleared: it goes back to shard 0's
    // source pool, which clears it once, before its next build or decode
    // overwrites it. Each pool gets back a buffer of the same shape, so
    // both stay allocation-free.
    Histogram merged = merged_pool.take();
    for (std::uint32_t s = 0; s < num_shards; ++s) {
      ShardGroup* g = owner_group(s);
      BOOSTER_CHECK_MSG(g != nullptr || rx_filled[s] != 0,
                        "no histogram source for a shard (protocol bug)");
      Histogram& source = g != nullptr
                              ? g->built_histogram(s - g->shard_begin())
                              : rx_by_shard[s];
      if (s == 0) {
        std::swap(merged, source);
      } else {
        merged.add(source);
      }
      ++driver_merges;
    }
    for (std::uint32_t s = 0; s < num_shards; ++s) {
      if (rx_filled[s] != 0) {
        rx_pool.release(std::move(rx_by_shard[s]));
        rx_filled[s] = 0;
      }
    }
    for (auto& g : groups) {
      if (g->num_local() > 0) g->release_built();
    }
    return merged;
  };

  const auto broadcast_decision = [&](const ipc::SplitDecisionMsg& msg) {
    decisions.push_back(msg);
    if (remotes.empty()) return;
    const auto payload = HistogramCodec::encode_split_decision(msg);
    for (const Remote& remote : remotes) {
      if (remote.shards() > 0) {
        channel->send(remote.rank, MessageType::kSplitDecision, payload);
      }
    }
  };

  // Tree-complete and verdict frames go to every follower: this tree's
  // remotes plus connected zombies from earlier trees. Dead-declared
  // remotes are included (the sends are best-effort and cheap): a worker
  // whose outbound path failed -- so rank 0 adopted its shards -- can
  // still follow the inbound stream to completion and exit cleanly
  // instead of deadlocking, and a dead process simply never reads them.
  const auto broadcast_all = [&](MessageType type,
                                 const std::vector<std::uint8_t>& payload) {
    for (const Remote& remote : remotes) {
      channel->send(remote.rank, type, payload);
    }
    for (std::uint32_t r = 1; r < world; ++r) {
      if (standing[r] != Standing::kZombie ||
          !transport_->peer_connected(r)) {
        continue;
      }
      bool in_remotes = false;
      for (const Remote& remote : remotes) {
        if (remote.rank == r) in_remotes = true;
      }
      if (!in_remotes) channel->send(r, type, payload);
    }
  };

  std::vector<std::uint32_t> prev_parts;
  for (std::uint32_t t = 0; t < tcfg.num_trees; ++t) {
    process_membership(t, /*fire_hook=*/true);
    if (t > 0 && members.participants() != prev_parts) ++stats_.repartitions;
    prev_parts = members.participants();
    assign_tree(t);

    Tree tree;
    std::deque<DriverNode> frontier;
    std::vector<std::uint64_t> level_hist_records;
    std::vector<std::uint32_t> level_hist_nodes;
    decisions.clear();
    build_seq = 0;
    std::uint32_t decision_seq = 0;

    for (auto& g : groups) g->begin_tree(n);

    {
      DriverNode root;
      root.tree_node = tree.root();
      root.depth = 0;
      root.rows = n;
      root.hist = gather_merged(t);
      root.totals = root.hist.totals();
      emit(trace, StepEvent{.kind = StepKind::kHistogram,
                            .tree = static_cast<std::int32_t>(t),
                            .depth = 0,
                            .records = n,
                            .fields_touched = num_fields,
                            .record_fields = num_fields});
      frontier.push_back(std::move(root));
    }

    while (!frontier.empty()) {
      DriverNode node = std::move(frontier.front());
      frontier.pop_front();

      auto make_leaf = [&](const BinStats& totals) {
        tree.set_leaf_weight(node.tree_node,
                             tcfg.learning_rate *
                                 leaf_weight(totals, tcfg.split.lambda));
        leaf_depth_sum += node.depth;
        ++leaf_count;
        merged_pool.release(std::move(node.hist));
      };

      if (node.depth >= static_cast<std::int32_t>(tcfg.max_depth) ||
          node.rows < tcfg.min_node_records) {
        for (auto& g : groups) {
          if (g->num_local() > 0) g->apply_leaf();
        }
        make_leaf(node.totals);
        continue;
      }

      std::uint64_t bins_scanned = 0;
      const auto split =
          finder.find_best(node.hist, data, &pool, &bins_scanned);
      emit(trace, StepEvent{.kind = StepKind::kSplitSelect,
                            .tree = static_cast<std::int32_t>(t),
                            .depth = node.depth,
                            .bins_scanned = bins_scanned});

      ipc::SplitDecisionMsg decision;
      decision.tree = t;
      decision.decision_seq = decision_seq++;
      decision.has_split = split.has_value();
      if (split) decision.split = *split;
      broadcast_decision(decision);

      if (!split) {
        for (auto& g : groups) {
          if (g->num_local() > 0) g->apply_leaf();
        }
        make_leaf(node.totals);
        continue;
      }

      const std::uint64_t n_left = split->left.count_u64();
      BOOSTER_CHECK_MSG(n_left > 0 && n_left < node.rows,
                        "split produced an empty child");
      const bool children_may_split =
          node.depth + 1 < static_cast<std::int32_t>(tcfg.max_depth);
      for (auto& g : groups) {
        if (g->num_local() == 0) continue;
        const bool pushed = g->apply_split(*split);
        BOOSTER_CHECK(pushed == children_may_split);
      }
      emit(trace, StepEvent{.kind = StepKind::kPartition,
                            .tree = static_cast<std::int32_t>(t),
                            .depth = node.depth,
                            .records = node.rows,
                            .fields_touched = 1,
                            .record_fields = num_fields});
      const std::uint64_t n_right = node.rows - n_left;

      const auto [left_id, right_id] = tree.split_leaf(node.tree_node, *split);
      const std::int32_t child_depth = node.depth + 1;

      if (!children_may_split) {
        tree.set_leaf_weight(left_id, tcfg.learning_rate *
                                          leaf_weight(split->left,
                                                      tcfg.split.lambda));
        tree.set_leaf_weight(right_id, tcfg.learning_rate *
                                           leaf_weight(split->right,
                                                       tcfg.split.lambda));
        leaf_depth_sum += 2.0 * child_depth;
        leaf_count += 2;
        merged_pool.release(std::move(node.hist));
        continue;
      }

      const bool left_smaller = n_left <= n_right;
      DriverNode small;
      DriverNode large;
      small.tree_node = left_smaller ? left_id : right_id;
      large.tree_node = left_smaller ? right_id : left_id;
      small.depth = large.depth = child_depth;
      small.rows = left_smaller ? n_left : n_right;
      large.rows = left_smaller ? n_right : n_left;

      small.hist = gather_merged(t);
      small.totals = small.hist.totals();
      if (tcfg.growth == GrowthOrder::kVertexByVertex) {
        emit(trace, StepEvent{.kind = StepKind::kHistogram,
                              .tree = static_cast<std::int32_t>(t),
                              .depth = child_depth,
                              .records = small.rows,
                              .fields_touched = num_fields,
                              .record_fields = num_fields,
                              .used_sibling_subtraction = true});
      } else {
        if (level_hist_records.size() <=
            static_cast<std::size_t>(child_depth)) {
          level_hist_records.resize(child_depth + 1, 0);
          level_hist_nodes.resize(child_depth + 1, 0);
        }
        level_hist_records[child_depth] += small.rows;
        ++level_hist_nodes[child_depth];
      }

      large.hist = std::move(node.hist);
      large.hist.subtract(small.hist);
      large.totals = large.hist.totals();

      frontier.push_back(std::move(small));
      frontier.push_back(std::move(large));
    }

    if (tcfg.growth == GrowthOrder::kLevelByLevel) {
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

    if (transport_ != nullptr) {
      ipc::TreeCompleteMsg msg;
      msg.tree = t;
      msg.nodes.reserve(tree.num_nodes());
      for (std::uint32_t id = 0; id < tree.num_nodes(); ++id) {
        msg.nodes.push_back(tree.node(static_cast<std::int32_t>(id)));
      }
      broadcast_all(MessageType::kTreeComplete,
                    HistogramCodec::encode_tree_complete(msg));
    }

    std::vector<std::tuple<std::uint32_t, double, double>> partials;
    for (auto& g : groups) {
      if (g->num_local() == 0) continue;
      double hops = 0.0;
      double qloss = 0.0;
      g->finish_tree(tree, *loss, &hops, &qloss);
      partials.emplace_back(g->shard_begin(), hops, qloss);
    }
    for (Remote& remote : remotes) {
      if (!remote.alive || remote.shards() == 0) continue;
      Frame frame;
      ipc::ShardSummaryMsg msg;
      if (!channel->recv(remote.rank, &frame)) {
        ShardGroup* adopted = adopt(remote);
        double hops = 0.0;
        double qloss = 0.0;
        adopted->finish_tree(tree, *loss, &hops, &qloss);
        partials.emplace_back(adopted->shard_begin(), hops, qloss);
        continue;
      }
      BOOSTER_CHECK_MSG(frame.type == MessageType::kShardSummary,
                        "unexpected message while gathering summaries "
                        "(protocol desync)");
      BOOSTER_CHECK_MSG(
          HistogramCodec::decode_shard_summary(frame.payload, &msg) &&
              msg.tree == t && msg.shard_begin == remote.shard_begin &&
              msg.shard_end == remote.shard_end,
          "shard summary for the wrong tree or range (protocol desync)");
      partials.emplace_back(msg.shard_begin, msg.hops, msg.quantized_loss);
    }
    std::sort(partials.begin(), partials.end());
    double hops = 0.0;
    double total_loss = 0.0;
    for (const auto& [sb, h, l] : partials) {
      hops += h;
      total_loss += l;
    }
    emit(trace, StepEvent{.kind = StepKind::kTraversal,
                          .tree = static_cast<std::int32_t>(t),
                          .depth = static_cast<std::int32_t>(tree.max_depth()),
                          .records = n,
                          .fields_touched = static_cast<std::uint32_t>(
                              tree.relevant_fields().size()),
                          .record_fields = num_fields,
                          .avg_path_length = hops / static_cast<double>(n)});

    TreeStats tstats;
    tstats.leaves = tree.num_leaves();
    tstats.depth = tree.max_depth();
    BOOSTER_CHECK_MSG(total_loss <= kStatSumCapacity,
                      "training-loss sum exceeds the quantized-exact "
                      "capacity (2^29); normalize labels or enlarge "
                      "kStatQuantum");
    tstats.train_loss = total_loss / static_cast<double>(n);
    result.tree_stats.push_back(tstats);
    result.model.add_tree(std::move(tree));

    bool stop_now = t + 1 == tcfg.num_trees;
    bool early = false;
    if (tcfg.early_stop_rel_improvement > 0.0) {
      const double improvement =
          prev_loss <= 0.0 ? 0.0 : (prev_loss - tstats.train_loss) / prev_loss;
      if (std::isfinite(prev_loss) &&
          improvement < tcfg.early_stop_rel_improvement) {
        if (++stagnant_trees >= tcfg.early_stop_patience) {
          result.early_stopped = true;
          early = true;
          stop_now = true;
        }
      } else {
        stagnant_trees = 0;
      }
      prev_loss = tstats.train_loss;
    }

    if (transport_ != nullptr) {
      ipc::TreeVerdictMsg verdict;
      verdict.tree = t;
      verdict.train_loss = tstats.train_loss;
      verdict.stop_training = stop_now;
      verdict.early_stopped = early;
      broadcast_all(MessageType::kTreeVerdict,
                    HistogramCodec::encode_tree_verdict(verdict));
    }
    if (early) break;
  }

  // Final sweep: admit joiners that connected during the last tree (they
  // still deserve the full model), then hand every follower the final
  // assignment -- the exit signal -- and run the goodbye barrier over the
  // active ones.
  const auto trees_done =
      static_cast<std::uint32_t>(result.model.trees().size());
  process_membership(trees_done, /*fire_hook=*/false);
  {
    ipc::ShardAssignMsg fin;
    fin.tree = trees_done;
    fin.view_epoch = members.view_epoch();
    fin.num_shards = num_shards;
    fin.final_assign = true;
    fin.early_stopped = result.early_stopped;
    const auto payload = HistogramCodec::encode_shard_assign(fin);
    for (std::uint32_t r = 1; r < world; ++r) {
      const bool follower =
          standing[r] == Standing::kActive ||
          (standing[r] == Standing::kZombie && transport_->peer_connected(r));
      if (follower) channel->send(r, MessageType::kShardAssign, payload);
    }
  }
  for (std::uint32_t r = 1; r < world; ++r) {
    if (standing[r] != Standing::kActive) continue;
    Frame frame;
    if (!channel->recv(r, &frame, cfg_.channel.shutdown_attempts)) continue;
    BOOSTER_CHECK_MSG(frame.type == MessageType::kGoodbye,
                      "unexpected message at shutdown (protocol desync)");
  }
  // A zero-tree run never reached assign_tree; its stats still cover rank
  // 0's shards.
  if (groups.empty()) own_group();

  result.avg_leaf_depth =
      leaf_count == 0 ? 0.0 : leaf_depth_sum / static_cast<double>(leaf_count);
  std::sort(groups.begin(), groups.end(),
            [](const auto& a, const auto& b) {
              return a->shard_begin() < b->shard_begin();
            });
  fill_hot_path(pool, num_shards, data, groups, &result.hot_path);
  // The single-rank world's one group covers every row.
  if (world == 1) result.predictions = groups[0]->take_predictions();
  result.hot_path.histogram_merges = driver_merges;
  result.hot_path.histogram_allocations +=
      merged_pool.allocations() + rx_pool.allocations();
  result.hot_path.histogram_acquires +=
      merged_pool.acquires() + rx_pool.acquires();

  if (transport_ != nullptr) {
    stats_.channel = channel->stats();
    stats_.transport = transport_->stats();
  }
  detail::fill_workload_info(data, tcfg, result, info);
  return result;
}

TrainResult DistributedTrainer::follow(const BinnedDataset& data,
                                       trace::WorkloadInfo* info) {
  const std::uint64_t n = data.num_records();
  BOOSTER_CHECK_MSG(n > 0, "cannot train on an empty dataset");
  const TrainerConfig& tcfg = cfg_.trainer;
  auto loss = make_loss(tcfg.loss);
  const std::uint32_t num_shards = clamp_shards(tcfg.num_shards, n);
  stats_.shards_total = num_shards;

  util::ThreadPool pool(tcfg.num_threads);
  ipc::ReliableChannel channel(transport_, cfg_.channel);
  const double base_score = initial_base_score(data, *loss, tcfg);

  // NOT seeded with warm-start trees: a worker receives the full
  // finished-tree prefix (init trees included) in its admission catch-up,
  // so seeding here would double them.
  TrainResult result{.model = Model(base_score, make_loss(tcfg.loss))};
  double leaf_depth_sum = 0.0;
  std::uint64_t leaf_count = 0;
  std::unique_ptr<ShardGroup> group;

  const auto finalize = [&]() -> TrainResult {
    result.avg_leaf_depth =
        leaf_count == 0 ? 0.0
                        : leaf_depth_sum / static_cast<double>(leaf_count);
    fill_hot_path(pool, num_shards, data,
                  {&group, group != nullptr ? 1u : 0u}, &result.hot_path);
    stats_.channel = channel.stats();
    stats_.transport = transport_->stats();
    detail::fill_workload_info(data, tcfg, result, info);
    return std::move(result);
  };

  /// Churn-hook dispatch; true means "return now" (the caller's result is
  /// whatever prefix it has).
  const auto churn_says_die = [&](std::uint32_t t, ElasticChurnPoint point) {
    if (!cfg_.churn_hook) return false;
    switch (cfg_.churn_hook(t, point)) {
      case ElasticChurnAction::kContinue:
        return false;
      case ElasticChurnAction::kCrash:
        transport_->shutdown_hard();  // abrupt: rank 0 sees a dead socket
        return true;
      case ElasticChurnAction::kHang:
        return true;  // connection stays half-open: only liveness catches it
    }
    return false;
  };

  // Admission: the coordinator's first message is the catch-up carrying
  // every already-finished tree. Failing to get it means the coordinator
  // was gone before this worker ever joined -- return gracefully.
  Frame frame;
  if (!channel.recv(0, &frame)) {
    stats_.orphaned = 1;
    return finalize();
  }
  BOOSTER_CHECK_MSG(frame.type == MessageType::kCatchUp,
                    "worker expected a catch-up (protocol desync)");
  {
    ipc::CatchUpMsg catch_up;
    BOOSTER_CHECK_MSG(HistogramCodec::decode_catch_up(frame.payload, &catch_up),
                      "catch-up payload failed to decode (protocol desync)");
    // The prefix opens with the warm-start trees, which rank 0 leaves
    // out of avg_leaf_depth.
    std::size_t init_trees =
        tcfg.init_model == nullptr ? 0 : tcfg.init_model->num_trees();
    for (auto& entry : catch_up.trees) {
      Tree tree = Tree::from_nodes(std::move(entry.nodes));
      if (init_trees > 0) {
        --init_trees;
      } else {
        accumulate_leaf_depths(tree, &leaf_depth_sum, &leaf_count);
      }
      TreeStats ts;
      ts.leaves = tree.num_leaves();
      ts.depth = tree.max_depth();
      ts.train_loss = entry.train_loss;
      result.tree_stats.push_back(ts);
      result.model.add_tree(std::move(tree));
    }
  }

  std::uint32_t cur_begin = 0;
  std::uint32_t cur_end = 0;

  const auto send_built = [&](std::uint32_t t, std::uint32_t build_idx) {
    group->build_pending();
    for (std::uint32_t ls = 0; ls < group->num_local(); ++ls) {
      channel.send(0, MessageType::kShardHistogram,
                   HistogramCodec::encode_shard_histogram(
                       t, build_idx, group->shard_begin() + ls,
                       group->built_histogram(ls)));
    }
    group->release_built();
  };

  for (;;) {
    if (!channel.recv(0, &frame)) {
      stats_.orphaned = 1;
      break;
    }
    BOOSTER_CHECK_MSG(frame.type == MessageType::kShardAssign,
                      "worker expected an assignment (protocol desync)");
    ipc::ShardAssignMsg assign;
    BOOSTER_CHECK_MSG(
        HistogramCodec::decode_shard_assign(frame.payload, &assign),
        "shard-assign payload failed to decode (protocol desync)");
    if (assign.final_assign) {
      // The exit signal (the verdict's stop flag is advisory here: a
      // worker admitted at the last boundary never saw one).
      result.early_stopped = assign.early_stopped;
      channel.send(0, MessageType::kGoodbye, {});
      break;
    }
    BOOSTER_CHECK_MSG(assign.num_shards == num_shards,
                      "shard-count mismatch across the world");
    const std::uint32_t t = assign.tree;

    if (churn_says_die(t, ElasticChurnPoint::kTreeStart)) return finalize();

    if (group == nullptr || assign.shard_begin != cur_begin ||
        assign.shard_end != cur_end) {
      if (group == nullptr) {
        stats_.shards_local = assign.shard_end - assign.shard_begin;
      }
      group = std::make_unique<ShardGroup>(data, tcfg, num_shards,
                                           assign.shard_begin,
                                           assign.shard_end, &pool);
      group->reset(*loss, result.model);
      cur_begin = assign.shard_begin;
      cur_end = assign.shard_end;
    }

    bool lost = false;
    if (group->num_local() > 0) {
      std::uint32_t build_seq = 0;
      std::uint32_t decision_seq = 0;
      group->begin_tree(n);
      send_built(t, build_seq++);
      if (churn_says_die(t, ElasticChurnPoint::kAfterFirstBuild)) {
        return finalize();
      }
      while (!group->frontier_empty()) {
        if (group->head_is_bounds_leaf()) {
          group->apply_leaf();
          continue;
        }
        if (!channel.recv(0, &frame)) {
          stats_.orphaned = 1;
          lost = true;
          break;
        }
        BOOSTER_CHECK_MSG(frame.type == MessageType::kSplitDecision,
                          "unexpected message type (protocol desync)");
        ipc::SplitDecisionMsg msg;
        BOOSTER_CHECK_MSG(
            HistogramCodec::decode_split_decision(frame.payload, &msg) &&
                msg.tree == t && msg.decision_seq == decision_seq,
            "split decision out of step (protocol desync)");
        ++decision_seq;
        if (!msg.has_split) {
          group->apply_leaf();
          continue;
        }
        if (group->apply_split(msg.split)) send_built(t, build_seq++);
      }
    } else if (churn_says_die(t, ElasticChurnPoint::kAfterFirstBuild)) {
      // An empty-range follower still honors its churn schedule.
      return finalize();
    }
    if (lost) break;

    if (!channel.recv(0, &frame)) {
      stats_.orphaned = 1;
      break;
    }
    BOOSTER_CHECK_MSG(frame.type == MessageType::kTreeComplete,
                      "unexpected message type (protocol desync)");
    ipc::TreeCompleteMsg tree_msg;
    BOOSTER_CHECK_MSG(
        HistogramCodec::decode_tree_complete(frame.payload, &tree_msg) &&
            tree_msg.tree == t,
        "finished tree out of step (protocol desync)");
    Tree tree = Tree::from_nodes(std::move(tree_msg.nodes));

    if (group->num_local() > 0) {
      ipc::ShardSummaryMsg summary;
      summary.tree = t;
      summary.shard_begin = group->shard_begin();
      summary.shard_end = group->shard_end();
      group->finish_tree(tree, *loss, &summary.hops, &summary.quantized_loss);
      channel.send(0, MessageType::kShardSummary,
                   HistogramCodec::encode_shard_summary(summary));
    }

    if (!channel.recv(0, &frame)) {
      stats_.orphaned = 1;
      break;
    }
    BOOSTER_CHECK_MSG(frame.type == MessageType::kTreeVerdict,
                      "unexpected message type (protocol desync)");
    ipc::TreeVerdictMsg verdict;
    BOOSTER_CHECK_MSG(
        HistogramCodec::decode_tree_verdict(frame.payload, &verdict) &&
            verdict.tree == t,
        "tree verdict out of step (protocol desync)");

    accumulate_leaf_depths(tree, &leaf_depth_sum, &leaf_count);
    TreeStats ts;
    ts.leaves = tree.num_leaves();
    ts.depth = tree.max_depth();
    ts.train_loss = verdict.train_loss;
    result.tree_stats.push_back(ts);
    result.model.add_tree(std::move(tree));
  }

  return finalize();
}

TrainResult train_in_process(const DistributedConfig& cfg,
                             ipc::InProcessWorld& world,
                             const BinnedDataset& data, StepTrace* trace,
                             trace::WorkloadInfo* info,
                             std::vector<TrainResult>* all_results,
                             std::vector<DistributedStats>* all_stats) {
  const std::uint32_t R = world.world_size();
  // The row-major view must exist before rank threads race to train on
  // the shared dataset.
  data.ensure_row_major();
  std::vector<std::optional<TrainResult>> results(R);
  std::vector<DistributedStats> stats(R);
  std::vector<std::thread> threads;
  threads.reserve(R);
  for (std::uint32_t r = 0; r < R; ++r) {
    threads.emplace_back([&, r] {
      DistributedTrainer trainer(cfg, world.endpoint(r));
      results[r] = trainer.train(data, r == 0 ? trace : nullptr,
                                 r == 0 ? info : nullptr);
      stats[r] = trainer.stats();
    });
  }
  for (auto& th : threads) th.join();
  if (all_stats != nullptr) *all_stats = std::move(stats);
  if (all_results != nullptr) {
    // Worker results only (rank-0's is the return value; TrainResult is
    // move-only, so it cannot live in both places).
    all_results->clear();
    for (std::uint32_t r = 1; r < R; ++r) {
      all_results->push_back(std::move(*results[r]));
    }
  }
  return std::move(*results[0]);
}

ElasticRunResult train_elastic_tcp(const ElasticWorldConfig& cfg,
                                   const BinnedDataset& data,
                                   trace::StepTrace* trace,
                                   trace::WorkloadInfo* info) {
  // The rank-address space must cover the initial workers and every rank
  // a churn event names (a join can target a rank that never existed).
  std::uint32_t max_world = cfg.max_world;
  if (max_world == 0) {
    std::uint32_t highest = cfg.initial_workers;
    for (const ipc::ChurnEvent& ev : cfg.churn.events) {
      highest = std::max(highest, ev.rank);
    }
    max_world = highest + 1;
  }
  BOOSTER_CHECK_MSG(max_world >= 2, "an elastic world needs at least one "
                                    "worker rank");
  BOOSTER_CHECK_MSG(cfg.initial_workers >= 1 &&
                        cfg.initial_workers < max_world,
                    "initial_workers out of range for the elastic world");

  data.ensure_row_major();

  auto listener = ipc::TcpTransport::listen("127.0.0.1", 0, max_world,
                                            cfg.tcp);
  BOOSTER_CHECK_MSG(listener != nullptr, "elastic world: tcp listen failed");
  const std::uint16_t port = listener->port();

  ElasticRunResult out;
  std::mutex mu;
  std::vector<std::thread> threads;
  // Kept alive until every thread is joined: a kHang incarnation returns
  // without closing its transport, and destroying it would close the
  // socket -- turning the half-open hang rank 0 must *detect* into an EOF
  // it would merely *observe*.
  std::vector<std::unique_ptr<ipc::TcpTransport>> worker_transports;

  /// One worker incarnation. `start_tree` scopes the churn schedule: a
  /// rejoined rank must not re-fire the kill that ended its predecessor.
  const auto run_worker = [&](std::uint32_t rank, std::uint32_t start_tree) {
    ipc::TcpOptions topts = cfg.tcp;
    topts.session_nonce = 0;  // fresh incarnation, fresh nonce
    auto owned = ipc::TcpTransport::connect("127.0.0.1", port, max_world,
                                            rank, topts);
    if (owned == nullptr) {
      std::lock_guard<std::mutex> lock(mu);
      ++out.orphaned;  // the coordinator was gone before we ever joined
      return;
    }
    ipc::TcpTransport* transport = owned.get();
    {
      std::lock_guard<std::mutex> lock(mu);
      worker_transports.push_back(std::move(owned));
    }
    DistributedConfig dist = cfg.dist;
    dist.elastic = true;
    dist.on_tree_boundary = nullptr;
    ElasticChurnAction injected = ElasticChurnAction::kContinue;
    dist.churn_hook = [&cfg, &injected, rank, start_tree](
                          std::uint32_t tree, ElasticChurnPoint point) {
      for (const ipc::ChurnEvent& ev : cfg.churn.events) {
        if (ev.rank != rank || ev.tree != tree || ev.tree < start_tree) {
          continue;
        }
        if (ev.kind == ipc::ChurnEvent::Kind::kKill &&
            point == ElasticChurnPoint::kAfterFirstBuild) {
          injected = ElasticChurnAction::kCrash;
          return ElasticChurnAction::kCrash;
        }
        if (ev.kind == ipc::ChurnEvent::Kind::kHang &&
            point == ElasticChurnPoint::kTreeStart) {
          injected = ElasticChurnAction::kHang;
          return ElasticChurnAction::kHang;
        }
      }
      return ElasticChurnAction::kContinue;
    };
    DistributedTrainer trainer(dist, transport);
    TrainResult res = trainer.train(data);
    std::lock_guard<std::mutex> lock(mu);
    if (injected == ElasticChurnAction::kCrash) {
      ++out.crashed;
    } else if (injected == ElasticChurnAction::kHang) {
      ++out.hung;
    } else if (trainer.stats().orphaned != 0) {
      ++out.orphaned;
    } else {
      out.completed.push_back(std::move(res));
      out.completed_stats.push_back(trainer.stats());
    }
  };

  for (std::uint32_t r = 1; r <= cfg.initial_workers; ++r) {
    threads.emplace_back([&run_worker, r] { run_worker(r, 0); });
  }
  BOOSTER_CHECK_MSG(
      listener->wait_for_world(1 + cfg.initial_workers, cfg.assemble_timeout),
      "elastic world failed to assemble within assemble_timeout");

  DistributedConfig d0 = cfg.dist;
  d0.elastic = true;
  d0.churn_hook = nullptr;
  d0.on_tree_boundary = [&](std::uint32_t tree) {
    std::vector<std::uint32_t> spawned;
    for (const ipc::ChurnEvent& ev : cfg.churn.events) {
      if (ev.kind != ipc::ChurnEvent::Kind::kJoin || ev.tree != tree) {
        continue;
      }
      const std::uint32_t rank = ev.rank;
      {
        std::lock_guard<std::mutex> lock(mu);
        threads.emplace_back(
            [&run_worker, rank, tree] { run_worker(rank, tree); });
      }
      spawned.push_back(rank);
    }
    // Pump the joiners' handshakes through before returning: the
    // schedule says "join at tree T", so make the admission land at this
    // boundary deterministically instead of racing a solo coordinator
    // that never blocks in recv. Bounded: a joiner that cannot connect
    // falls out after assemble_timeout.
    const auto deadline =
        std::chrono::steady_clock::now() + cfg.assemble_timeout;
    for (const std::uint32_t rank : spawned) {
      while (!listener->peer_connected(rank) &&
             std::chrono::steady_clock::now() < deadline) {
        listener->pump(std::chrono::milliseconds(5));
      }
    }
  };

  DistributedTrainer rank0(d0, listener.get());
  out.rank0 = rank0.train(data, trace, info);
  out.rank0_stats = rank0.stats();

  // Joiner threads may have been appended while training ran; drain until
  // the vector is empty (no more spawns once train() has returned).
  for (;;) {
    std::thread th;
    {
      std::lock_guard<std::mutex> lock(mu);
      if (threads.empty()) break;
      th = std::move(threads.back());
      threads.pop_back();
    }
    th.join();
  }
  return out;
}

}  // namespace booster::gbdt

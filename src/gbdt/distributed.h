// Cross-process sharded GBDT training over a pluggable histogram
// transport. The world is a star of `world_size` ranks around rank 0, and
// every world -- one rank or many, loopback or TCP, fixed or live
// membership -- runs the same per-tree protocol (the paper's Table I
// schedule with the shard merge in the middle):
//
//   * every rank holds the same BinnedDataset and the same config;
//   * at each tree boundary rank 0 tells every participating worker its
//     contiguous range of the global shard partition (a gbdt::ShardGroup)
//     for the next tree;
//   * workers build per-shard node histograms (step 1) and ship them to
//     rank 0 over ipc::ReliableChannel (versioned, checksummed,
//     sequence-numbered frames -- ipc::HistogramCodec);
//   * rank 0 merges shard histograms with Histogram::add in fixed global
//     shard order, runs the (threaded, serial-identical) split scan (step
//     2), and broadcasts each split decision; every rank partitions its
//     own shards (step 3). Finished trees, step-5 summaries and per-tree
//     verdicts travel the same way, so every rank returns the same model.
//
// Membership. Rank 0 admits a worker by sending it a catch-up: every
// finished tree with its training loss, warm-start (init_model) trees
// first. The worker replays the prefix into its shard group and follows
// the assignment stream from there. DistributedConfig.elastic picks the
// admission rule:
//   * fixed (elastic = false): every rank 1..world_size-1 is admitted at
//     the first boundary, after rank 0 waited (bounded by the liveness
//     deadline) for each to connect, and never re-evaluated;
//   * live (elastic = true, TcpTransport on rank 0): the assignment is
//     recomputed at every boundary from the transport's membership view;
//     late joiners and rejoining incarnations (a new session nonce on the
//     same rank) enter through the same catch-up.
// Under either rule a worker that stays unresponsive through the channel's
// liveness deadline mid-tree is declared dead: rank 0 re-executes its
// shards locally (catch-up replay plus the current tree's decision log --
// pure recomputation) and evicts it at the next boundary; until it
// disconnects it may still follow the stream with an empty range.
//
// Orphans. A worker that loses its coordinator -- no catch-up, assignment,
// decision, tree or verdict within its liveness deadline -- returns with
// whatever model prefix it has and DistributedStats.orphaned = 1. It never
// aborts for that reason.
//
// A nullptr transport is the single-rank world: the same driver with no
// channel and no workers -- what gbdt::Trainer runs.
//
// Because the shard merge is quantized-exact and the per-shard partition
// is stable, the trained model -- structure, weights, gains, per-tree
// losses, predictions, and rank-0's StepTrace -- is bit-identical to the
// single-rank, single-shard, one-thread run at every (transport, world
// size, shard count, thread count), under every injected fault a live
// rank 0 survives (a dead or unreachable worker's shards are re-executed
// on rank 0) and through any membership churn. tests/test_distributed.cc,
// tests/test_distributed_faults.cc and tests/test_elastic.cc assert it
// with EXPECT_EQ.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>

#include "gbdt/trainer.h"
#include "ipc/membership.h"
#include "ipc/reliable.h"
#include "ipc/tcp_transport.h"
#include "ipc/transport.h"
#include "ipc/world.h"

namespace booster::gbdt {

/// Where in a worker's per-tree loop a churn hook fires.
enum class ElasticChurnPoint : std::uint8_t {
  kTreeStart = 0,       // assignment received, before any build
  kAfterFirstBuild,     // root histograms already shipped to rank 0
};

/// What an injected churn hook tells the worker to do.
enum class ElasticChurnAction : std::uint8_t {
  kContinue = 0,
  kCrash,  // shutdown_hard() the transport and return (SIGKILL stand-in)
  kHang,   // return without closing: the connection stays half-open
};

struct DistributedConfig {
  TrainerConfig trainer;
  /// Retry protocol knobs (per-attempt timeout, liveness deadline, resend
  /// window).
  ipc::ReliableConfig channel;
  /// The membership rule (see the header comment): false admits the whole
  /// world at the first boundary and keeps it fixed; true re-evaluates
  /// live membership at every boundary and requires a membership-capable
  /// transport on rank 0 (TcpTransport). Workers follow the assignment
  /// stream either way.
  bool elastic = false;
  /// Worker-side fault-injection hook for churn tests: consulted at the
  /// ElasticChurnPoints of every tree. Null means kContinue.
  std::function<ElasticChurnAction(std::uint32_t tree, ElasticChurnPoint)>
      churn_hook;
  /// Rank-0 hook fired at every tree boundary *before* membership is
  /// evaluated -- the churn harness uses it to launch late joiners.
  std::function<void(std::uint32_t tree)> on_tree_boundary;
};

/// Post-train diagnostics of one rank's view of the run.
struct DistributedStats {
  std::uint32_t world_size = 1;
  std::uint32_t rank = 0;
  std::uint32_t shards_total = 0;
  /// Shards of this rank's first assignment (0 for a worker that never got
  /// one).
  std::uint32_t shards_local = 0;
  std::uint32_t shards_adopted = 0;  // re-executed for dead workers (rank 0)
  /// Rank 0: workers declared dead -- mid-tree, or never connected by the
  /// fixed rule's admission deadline.
  std::uint32_t dead_workers = 0;
  /// Rank 0: tree boundaries at which the live-member set -- and with it
  /// the shard assignment -- changed after the initial one (evictions
  /// under either rule, joins under the live rule).
  std::uint32_t repartitions = 0;
  /// Rank 0, live rule: workers admitted after the first boundary.
  std::uint32_t joins = 0;
  /// Worker: 1 when this worker lost its coordinator and returned with
  /// whatever model prefix it had.
  std::uint32_t orphaned = 0;
  ipc::ReliableStats channel;
  ipc::TransportStats transport;
};

class DistributedTrainer {
 public:
  /// `transport` is this rank's endpoint (borrowed; may outlive the
  /// trainer). nullptr runs a single-rank world with no communication --
  /// what gbdt::Trainer::train runs.
  DistributedTrainer(DistributedConfig cfg, ipc::Transport* transport);

  const DistributedConfig& config() const { return cfg_; }
  std::uint32_t rank() const;
  std::uint32_t world_size() const;

  /// Trains the ensemble. All ranks must call train with the identical
  /// dataset and config, concurrently. Every rank returns the same model,
  /// tree stats, and early-stop flag; `trace`/`info` are filled from
  /// rank 0's driver loop (workers fill `info` and leave `trace` empty --
  /// the trace needs merge-side quantities only rank 0 has).
  /// TrainResult.hot_path.per_shard covers the shards this rank executed
  /// (all of them on rank 0 of a single-rank world).
  TrainResult train(const BinnedDataset& data,
                    trace::StepTrace* trace = nullptr,
                    trace::WorkloadInfo* info = nullptr);

  /// Diagnostics of the last train() call.
  const DistributedStats& stats() const { return stats_; }

 private:
  /// Rank 0's driver: membership, assignment, merge, split scan, and
  /// the broadcasts.
  TrainResult coordinate(const BinnedDataset& data, trace::StepTrace* trace,
                         trace::WorkloadInfo* info);
  /// A worker's loop: catch-up, then one assignment per tree until the
  /// final one.
  TrainResult follow(const BinnedDataset& data, trace::WorkloadInfo* info);

  DistributedConfig cfg_;
  ipc::Transport* transport_;
  DistributedStats stats_;
};

/// Runs a full `world`-sized training world in this process, one thread
/// per rank, and returns rank 0's result. `all_results` (optional)
/// receives the *worker* ranks' results (ranks 1..R-1, in rank order;
/// TrainResult is move-only, so rank 0's lives in the return value);
/// `all_stats` receives per-rank stats indexed by rank. The convenience
/// harness behind the equivalence tests, bench_distributed, the scenario
/// runner's runner.procs knob, and the multi_process example's loopback
/// mode.
TrainResult train_in_process(const DistributedConfig& cfg,
                             ipc::InProcessWorld& world,
                             const BinnedDataset& data,
                             trace::StepTrace* trace = nullptr,
                             trace::WorkloadInfo* info = nullptr,
                             std::vector<TrainResult>* all_results = nullptr,
                             std::vector<DistributedStats>* all_stats = nullptr);

/// Configuration of one elastic localhost-TCP training world driven by a
/// seeded churn schedule (tests, bench, and the scenario runner's
/// runner.transport=tcp + runner.churn knobs).
struct ElasticWorldConfig {
  DistributedConfig dist;
  /// Workers connected before training starts (ranks 1..initial_workers).
  std::uint32_t initial_workers = 1;
  /// Rank-address space of the TCP world; 0 derives it from
  /// initial_workers and the highest rank in the churn schedule.
  std::uint32_t max_world = 0;
  /// Kill / hang / join events, keyed by (rank, tree). Kills fire after
  /// the victim shipped its root histograms (mid-tree adoption); hangs
  /// fire at tree start (half-open liveness detection); joins launch a
  /// fresh incarnation at rank 0's tree boundary (admitted one boundary
  /// later).
  ipc::ChurnSchedule churn;
  /// TCP knobs shared by every endpoint (backoff, reconnect window,
  /// heartbeats come from dist.channel).
  ipc::TcpOptions tcp;
  std::chrono::milliseconds assemble_timeout{15000};
};

/// Outcome of one elastic run: rank 0's result plus every worker
/// incarnation's, partitioned by how the incarnation ended.
struct ElasticRunResult {
  /// Always engaged on return (optional only because TrainResult has no
  /// empty state to default-construct).
  std::optional<TrainResult> rank0;
  DistributedStats rank0_stats;
  /// Results of worker incarnations that ran to the final assignment
  /// (model bit-identical to rank0's), in completion order.
  std::vector<TrainResult> completed;
  std::vector<DistributedStats> completed_stats;
  std::uint32_t crashed = 0;   // churn-injected kCrash incarnations
  std::uint32_t hung = 0;      // churn-injected kHang incarnations
  std::uint32_t orphaned = 0;  // lost the coordinator, returned early
};

/// Runs one elastic world over real localhost TCP: rank 0 listens on an
/// ephemeral port and trains on the calling thread; worker incarnations
/// run on their own threads (one per initial worker plus one per join
/// event). Returns after every incarnation thread has been joined.
/// `trace`/`info` are filled from rank 0's driver loop, as in
/// DistributedTrainer::train.
ElasticRunResult train_elastic_tcp(const ElasticWorldConfig& cfg,
                                   const BinnedDataset& data,
                                   trace::StepTrace* trace = nullptr,
                                   trace::WorkloadInfo* info = nullptr);

}  // namespace booster::gbdt

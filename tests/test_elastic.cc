// Elastic-membership equivalence layer (ISSUE 6 acceptance): training
// over real localhost TCP with scripted worker churn -- kills after the
// root histograms shipped (mid-tree adoption), hangs at tree start (the
// half-open case only the liveness deadline catches), late joins, and a
// real SIGKILLed forked process -- must produce output *bit-identical*
// to the single-process gbdt::Trainer, EXPECT_EQ with no tolerances.
// The argument is the same as the static distributed layer's: the
// quantized-exact shard merge is independent of how shards are grouped
// into ranks, so any boundary-to-boundary regrouping is a pure
// recomputation. What this file adds is that the *protocol* -- catch-up
// admission, adoption replay, assignment broadcast, session replacement
// -- preserves that property through arbitrary membership churn, and
// that failure detection stays within its configured deadline.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "gbdt/binning.h"
#include "gbdt/distributed.h"
#include "gbdt/trainer.h"
#include "ipc/membership.h"
#include "ipc/tcp_transport.h"
#include "workloads/synth.h"

namespace booster::gbdt {
namespace {

using namespace std::chrono_literals;

BinnedDataset random_binned(std::uint64_t n, std::uint64_t seed) {
  workloads::DatasetSpec spec;
  spec.name = "elastic";
  spec.nominal_records = n;
  spec.numeric_fields = 5;
  spec.categorical_cardinalities = {7, 3};
  spec.missing_rate = 0.1;
  spec.loss = "logistic";
  return Binner().bin(workloads::synthesize(spec, n, seed));
}

TrainerConfig base_config(std::uint32_t trees = 4, std::uint32_t shards = 3) {
  TrainerConfig cfg;
  cfg.num_trees = trees;
  cfg.max_depth = 4;
  cfg.loss = "logistic";
  cfg.num_threads = 1;
  cfg.num_shards = shards;
  return cfg;
}

/// Elastic world with churn-test timing: a tight liveness deadline (plus
/// heartbeats, so live-but-computing workers stay fresh), a short
/// reconnect window, and fast backoff. Production defaults are 10s
/// deadlines; tests would crawl under them.
ElasticWorldConfig make_world(TrainerConfig tcfg, std::uint32_t initial,
                              const std::string& churn) {
  ElasticWorldConfig cfg;
  cfg.dist.trainer = tcfg;
  cfg.dist.channel.recv_timeout = 25ms;
  cfg.dist.channel.liveness_timeout = 400ms;
  cfg.dist.channel.heartbeat_interval = 50ms;
  cfg.initial_workers = initial;
  const auto parsed = ipc::ChurnSchedule::parse(churn);
  EXPECT_TRUE(parsed.has_value()) << churn;
  if (parsed) cfg.churn = *parsed;
  cfg.tcp.connect_timeout = 5000ms;
  cfg.tcp.reconnect_window = 1000ms;
  cfg.tcp.backoff.base = 5ms;
  cfg.tcp.backoff.cap = 50ms;
  return cfg;
}

void expect_models_bit_identical(const Model& got, const Model& ref,
                                 const std::string& context) {
  ASSERT_EQ(got.num_trees(), ref.num_trees()) << context;
  for (std::uint32_t t = 0; t < ref.num_trees(); ++t) {
    const Tree& a = got.trees()[t];
    const Tree& b = ref.trees()[t];
    ASSERT_EQ(a.num_nodes(), b.num_nodes()) << context << " tree " << t;
    for (std::uint32_t id = 0; id < a.num_nodes(); ++id) {
      const TreeNode& x = a.node(static_cast<std::int32_t>(id));
      const TreeNode& y = b.node(static_cast<std::int32_t>(id));
      ASSERT_EQ(x.is_leaf, y.is_leaf) << context;
      ASSERT_EQ(x.field, y.field) << context;
      ASSERT_EQ(x.kind, y.kind) << context;
      ASSERT_EQ(x.threshold_bin, y.threshold_bin) << context;
      ASSERT_EQ(x.default_left, y.default_left) << context;
      ASSERT_EQ(x.left, y.left) << context;
      ASSERT_EQ(x.right, y.right) << context;
      ASSERT_EQ(x.weight, y.weight)
          << context << " tree " << t << " node " << id;
      ASSERT_EQ(x.gain, y.gain) << context << " tree " << t << " node " << id;
    }
  }
}

void expect_result_bit_identical(const TrainResult& got,
                                 const TrainResult& ref,
                                 const BinnedDataset& data,
                                 const std::string& context) {
  expect_models_bit_identical(got.model, ref.model, context);
  ASSERT_EQ(got.tree_stats.size(), ref.tree_stats.size()) << context;
  for (std::size_t t = 0; t < ref.tree_stats.size(); ++t) {
    EXPECT_EQ(got.tree_stats[t].train_loss, ref.tree_stats[t].train_loss)
        << context << " tree " << t;
  }
  EXPECT_EQ(got.avg_leaf_depth, ref.avg_leaf_depth) << context;
  EXPECT_EQ(got.early_stopped, ref.early_stopped) << context;
  for (std::uint64_t r = 0; r < data.num_records(); r += 97) {
    EXPECT_EQ(got.model.predict_raw(data, r), ref.model.predict_raw(data, r))
        << context << " record " << r;
  }
}

TEST(ElasticTcp, NoChurnMatchesSingleProcessAcrossGrid) {
  const auto data = random_binned(1501, 31);
  for (const std::uint32_t procs : {2u, 4u}) {
    for (const std::uint32_t shards : {2u, 3u, 8u}) {
      const auto tcfg = base_config(3, shards);
      const auto ref = Trainer(tcfg).train(data);
      const auto out = train_elastic_tcp(make_world(tcfg, procs - 1, ""),
                                         data);
      const std::string context = std::to_string(procs) + " procs / " +
                                  std::to_string(shards) + " shards";
      ASSERT_TRUE(out.rank0.has_value()) << context;
      expect_result_bit_identical(*out.rank0, ref, data, context + " rank0");
      ASSERT_EQ(out.completed.size(), procs - 1) << context;
      for (std::size_t w = 0; w < out.completed.size(); ++w) {
        expect_result_bit_identical(out.completed[w], ref, data,
                                    context + " worker " + std::to_string(w));
      }
      EXPECT_EQ(out.crashed + out.hung + out.orphaned, 0u) << context;
      EXPECT_EQ(out.rank0_stats.repartitions, 0u) << context;
    }
  }
}

TEST(ElasticTcp, KillMidTreeIsAdoptedBitIdentically) {
  const auto data = random_binned(1201, 37);
  const auto tcfg = base_config(4, 3);
  const auto ref = Trainer(tcfg).train(data);

  // Rank 2 dies after shipping its root histograms of tree 1: rank 0
  // adopts its shards mid-tree (decision-log replay) and repartitions at
  // the next boundary.
  const auto out =
      train_elastic_tcp(make_world(tcfg, 2, "kill:2@1"), data);
  ASSERT_TRUE(out.rank0.has_value());
  expect_result_bit_identical(*out.rank0, ref, data, "kill rank0");
  EXPECT_EQ(out.crashed, 1u);
  EXPECT_EQ(out.rank0_stats.dead_workers, 1u);
  EXPECT_GE(out.rank0_stats.shards_adopted, 1u);
  EXPECT_GE(out.rank0_stats.repartitions, 1u);
  ASSERT_EQ(out.completed.size(), 1u) << "rank 1 must ride out the churn";
  expect_result_bit_identical(out.completed[0], ref, data, "kill survivor");
}

TEST(ElasticTcp, HangIsDetectedWithinTheConfiguredDeadline) {
  const auto data = random_binned(1201, 41);
  const auto tcfg = base_config(4, 3);
  const auto ref = Trainer(tcfg).train(data);

  // Rank 1 goes silent at the start of tree 2 with its connection open:
  // TCP never reports a thing, so the detection *must* come from the
  // liveness deadline -- and within its documented bound.
  const auto cfg = make_world(tcfg, 2, "hang:1@2");
  const auto out = train_elastic_tcp(cfg, data);
  ASSERT_TRUE(out.rank0.has_value());
  expect_result_bit_identical(*out.rank0, ref, data, "hang rank0");
  EXPECT_EQ(out.hung, 1u);
  EXPECT_EQ(out.rank0_stats.dead_workers, 1u);
  ASSERT_EQ(out.completed.size(), 1u);
  expect_result_bit_identical(out.completed[0], ref, data, "hang survivor");

  // Time-to-detect, measured by the channel on the monotonic clock, is
  // bounded by liveness_timeout + recv_timeout + scheduling slack.
  const auto& ch = out.rank0_stats.channel;
  EXPECT_GE(ch.peers_declared_dead, 1u);
  const std::uint64_t liveness_ms = 400;
  EXPECT_GE(ch.max_detect_ms, liveness_ms);
  EXPECT_LE(ch.max_detect_ms, liveness_ms + 25 + 600);
}

TEST(ElasticTcp, LateJoinerCatchesUpAndFinishesIdentically) {
  const auto data = random_binned(1201, 43);
  const auto tcfg = base_config(5, 3);
  const auto ref = Trainer(tcfg).train(data);

  // Rank 2 does not exist until tree 2's boundary; it is admitted with a
  // catch-up of the finished prefix and participates from there on.
  const auto out =
      train_elastic_tcp(make_world(tcfg, 1, "join:2@2"), data);
  ASSERT_TRUE(out.rank0.has_value());
  expect_result_bit_identical(*out.rank0, ref, data, "join rank0");
  EXPECT_EQ(out.rank0_stats.joins, 1u);
  EXPECT_GE(out.rank0_stats.repartitions, 1u);
  EXPECT_EQ(out.crashed + out.hung + out.orphaned, 0u);
  ASSERT_EQ(out.completed.size(), 2u)
      << "the original worker and the joiner must both finish";
  expect_result_bit_identical(out.completed[0], ref, data, "join worker A");
  expect_result_bit_identical(out.completed[1], ref, data, "join worker B");
}

TEST(ElasticTcp, KillThenRejoinIsANewSessionBitIdentical) {
  const auto data = random_binned(1201, 47);
  const auto tcfg = base_config(5, 3);
  const auto ref = Trainer(tcfg).train(data);

  // Rank 1 dies mid-tree 1 and a fresh incarnation of the *same rank*
  // joins at boundary 3: a new session nonce, so the coordinator wipes
  // the rank's protocol state and re-admits it through catch-up.
  const auto out =
      train_elastic_tcp(make_world(tcfg, 2, "kill:1@1,join:1@3"), data);
  ASSERT_TRUE(out.rank0.has_value());
  expect_result_bit_identical(*out.rank0, ref, data, "rejoin rank0");
  EXPECT_EQ(out.crashed, 1u);
  EXPECT_EQ(out.rank0_stats.dead_workers, 1u);
  EXPECT_GE(out.rank0_stats.joins, 1u);
  ASSERT_EQ(out.completed.size(), 2u)
      << "rank 2 and rank 1's second incarnation must both finish";
  expect_result_bit_identical(out.completed[0], ref, data, "rejoin worker A");
  expect_result_bit_identical(out.completed[1], ref, data, "rejoin worker B");
}

TEST(ElasticTcp, AllWorkersDieAndRankZeroFinishesAlone) {
  const auto data = random_binned(1201, 53);
  const auto tcfg = base_config(4, 3);
  const auto ref = Trainer(tcfg).train(data);

  const auto out =
      train_elastic_tcp(make_world(tcfg, 2, "kill:1@0,kill:2@1"), data);
  ASSERT_TRUE(out.rank0.has_value());
  expect_result_bit_identical(*out.rank0, ref, data, "solo rank0");
  EXPECT_EQ(out.crashed, 2u);
  EXPECT_EQ(out.rank0_stats.dead_workers, 2u);
  EXPECT_TRUE(out.completed.empty());
}

TEST(ElasticTcp, ChurnStormGridStaysBitIdentical) {
  const auto data = random_binned(1201, 59);
  // The acceptance grid: world sizes x shard counts x a seeded schedule
  // mixing a mid-tree kill with a late join.
  for (const std::uint32_t procs : {2u, 4u}) {
    for (const std::uint32_t shards : {2u, 3u, 8u}) {
      const auto tcfg = base_config(4, shards);
      const auto ref = Trainer(tcfg).train(data);
      const auto out = train_elastic_tcp(
          make_world(tcfg, procs - 1, "kill:1@1,join:5@2"), data);
      const std::string context = std::to_string(procs) + " procs / " +
                                  std::to_string(shards) + " shards";
      ASSERT_TRUE(out.rank0.has_value()) << context;
      expect_result_bit_identical(*out.rank0, ref, data, context + " rank0");
      EXPECT_EQ(out.crashed, 1u) << context;
      EXPECT_EQ(out.rank0_stats.joins, 1u) << context;
      // Everyone who was not scripted to die finishes with the model:
      // procs-2 surviving initial workers plus the joiner.
      ASSERT_EQ(out.completed.size(), procs - 1) << context;
      for (std::size_t w = 0; w < out.completed.size(); ++w) {
        expect_result_bit_identical(
            out.completed[w], ref, data,
            context + " finisher " + std::to_string(w));
      }
    }
  }
}

TEST(FixedTcpWorld, RankZeroWaitsForALateConnectBeforeAdmitting) {
  // Under the fixed rule rank 0 admits the whole world at the first
  // boundary. A worker that connects a little late must still be waited
  // for: otherwise rank 0 would start alone, take every shard, and the
  // worker would never be admitted.
  const auto data = random_binned(1201, 67);
  const auto tcfg = base_config(3, 3);
  const auto ref = Trainer(tcfg).train(data);
  data.ensure_row_major();

  auto listener = ipc::TcpTransport::listen("127.0.0.1", 0, 2);
  ASSERT_NE(listener, nullptr);
  const std::uint16_t port = listener->port();
  DistributedConfig cfg;
  cfg.trainer = tcfg;
  cfg.channel.liveness_timeout = 5000ms;

  std::optional<TrainResult> worker_result;
  DistributedStats worker_stats;
  std::thread worker([&] {
    std::this_thread::sleep_for(200ms);
    auto transport = ipc::TcpTransport::connect("127.0.0.1", port, 2, 1);
    ASSERT_NE(transport, nullptr);
    DistributedTrainer trainer(cfg, transport.get());
    worker_result = trainer.train(data);
    worker_stats = trainer.stats();
  });
  DistributedTrainer rank0(cfg, listener.get());
  const auto got = rank0.train(data);
  worker.join();

  expect_result_bit_identical(got, ref, data, "late connect rank0");
  EXPECT_EQ(rank0.stats().dead_workers, 0u);
  EXPECT_EQ(rank0.stats().shards_local, 1u);  // [0, 1) of 3 over 2 ranks
  ASSERT_TRUE(worker_result.has_value());
  expect_result_bit_identical(*worker_result, ref, data, "late connect worker");
  EXPECT_EQ(worker_stats.orphaned, 0u);
  EXPECT_EQ(worker_stats.shards_local, 2u);
}

TEST(FixedTcpWorld, RankThatNeverConnectsIsDeclaredDeadAtAdmission) {
  // The wait is bounded by the liveness deadline: past it, the missing
  // rank counts as dead and rank 0 trains without it.
  const auto data = random_binned(1201, 71);
  const auto tcfg = base_config(3, 3);
  const auto ref = Trainer(tcfg).train(data);

  auto listener = ipc::TcpTransport::listen("127.0.0.1", 0, 2);
  ASSERT_NE(listener, nullptr);
  DistributedConfig cfg;
  cfg.trainer = tcfg;
  cfg.channel.liveness_timeout = 200ms;
  DistributedTrainer rank0(cfg, listener.get());
  const auto got = rank0.train(data);
  expect_result_bit_identical(got, ref, data, "absent rank");
  EXPECT_EQ(rank0.stats().dead_workers, 1u);
  EXPECT_EQ(rank0.stats().shards_local, 3u);
}

TEST(ElasticTcp, SigkilledRealProcessIsSurvivedBitIdentically) {
  const auto data = random_binned(1201, 61);
  const auto tcfg = base_config(4, 3);
  const auto ref = Trainer(tcfg).train(data);
  data.ensure_row_major();  // both sides of the fork share the same view

  ipc::TcpOptions topts;
  topts.connect_timeout = 10000ms;
  topts.reconnect_window = 1000ms;
  auto listener = ipc::TcpTransport::listen("127.0.0.1", 0, 2, topts);
  ASSERT_NE(listener, nullptr);
  const std::uint16_t port = listener->port();

  // A real OS process as the worker: fork (no threads are running yet in
  // this test), train elastically, and SIGKILL itself after shipping tree
  // 1's root histograms -- no destructors, no goodbye, no TCP FIN beyond
  // what the kernel sends for a killed process.
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    auto transport = ipc::TcpTransport::connect("127.0.0.1", port, 2, 1,
                                                topts);
    if (transport == nullptr) ::_exit(3);
    DistributedConfig dist;
    dist.trainer = tcfg;
    dist.channel.recv_timeout = 25ms;
    dist.channel.liveness_timeout = 400ms;
    dist.channel.heartbeat_interval = 50ms;
    dist.elastic = true;
    dist.churn_hook = [](std::uint32_t tree, ElasticChurnPoint point) {
      if (tree == 1 && point == ElasticChurnPoint::kAfterFirstBuild) {
        ::raise(SIGKILL);
      }
      return ElasticChurnAction::kContinue;
    };
    DistributedTrainer trainer(dist, transport.get());
    trainer.train(data);
    ::_exit(2);  // must be unreachable: SIGKILL fires at tree 1
  }

  ASSERT_TRUE(listener->wait_for_world(2, 15000ms));
  DistributedConfig d0;
  d0.trainer = tcfg;
  d0.channel.recv_timeout = 25ms;
  d0.channel.liveness_timeout = 400ms;
  d0.channel.heartbeat_interval = 50ms;
  d0.elastic = true;
  DistributedTrainer rank0(d0, listener.get());
  const auto got = rank0.train(data);

  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(status)) << "the worker must have died by signal";
  EXPECT_EQ(WTERMSIG(status), SIGKILL);

  expect_result_bit_identical(got, ref, data, "sigkill rank0");
  EXPECT_EQ(rank0.stats().dead_workers, 1u);
  EXPECT_GE(rank0.stats().shards_adopted, 1u);
}

}  // namespace
}  // namespace booster::gbdt

// Fault-injection layer for the distributed trainer (ISSUE 5 satellite):
// drives the full training protocol through every injected fault class --
// drop, truncation, duplication, reordering, bit flips, and outright
// worker death -- and proves the result is *still* bit-identical to the
// in-process gbdt::Trainer (EXPECT_EQ, no tolerances): the retry protocol
// may resend, re-request, and re-execute, but it may never change a bit.
// Even a total blackout converges: rank 0 re-executes every unreachable
// worker's shards, because the one unacceptable outcome is silent
// divergence. A worker cut off from its coordinator returns, flagged as
// orphaned, without aborting.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gbdt/binning.h"
#include "gbdt/distributed.h"
#include "gbdt/trainer.h"
#include "ipc/faulty.h"
#include "ipc/loopback.h"
#include "ipc/world.h"
#include "workloads/synth.h"

namespace booster::gbdt {
namespace {

BinnedDataset random_binned(std::uint64_t n, std::uint64_t seed) {
  workloads::DatasetSpec spec;
  spec.name = "faults";
  spec.nominal_records = n;
  spec.numeric_fields = 4;
  spec.categorical_cardinalities = {7};
  spec.missing_rate = 0.1;
  spec.loss = "logistic";
  return Binner().bin(workloads::synthesize(spec, n, seed));
}

TrainerConfig base_config(std::uint32_t trees = 3) {
  TrainerConfig cfg;
  cfg.num_trees = trees;
  cfg.max_depth = 4;
  cfg.loss = "logistic";
  cfg.num_threads = 1;
  return cfg;
}

/// Short per-attempt timeouts keep injected-loss recovery fast on the CI
/// runner; the generous attempt budget keeps convergence certain.
ipc::ReliableConfig fast_channel() {
  ipc::ReliableConfig cfg;
  cfg.recv_timeout = std::chrono::milliseconds(15);
  cfg.max_attempts = 400;
  return cfg;
}

void expect_bit_identical(const TrainResult& got, const TrainResult& ref,
                          const BinnedDataset& data,
                          const std::string& context) {
  ASSERT_EQ(got.model.num_trees(), ref.model.num_trees()) << context;
  for (std::uint32_t t = 0; t < ref.model.num_trees(); ++t) {
    const Tree& a = got.model.trees()[t];
    const Tree& b = ref.model.trees()[t];
    ASSERT_EQ(a.num_nodes(), b.num_nodes()) << context;
    for (std::uint32_t id = 0; id < a.num_nodes(); ++id) {
      const TreeNode& x = a.node(static_cast<std::int32_t>(id));
      const TreeNode& y = b.node(static_cast<std::int32_t>(id));
      ASSERT_EQ(x.is_leaf, y.is_leaf) << context;
      ASSERT_EQ(x.field, y.field) << context;
      ASSERT_EQ(x.threshold_bin, y.threshold_bin) << context;
      ASSERT_EQ(x.left, y.left) << context;
      ASSERT_EQ(x.right, y.right) << context;
      ASSERT_EQ(x.weight, y.weight) << context << " node " << id;
      ASSERT_EQ(x.gain, y.gain) << context << " node " << id;
    }
  }
  ASSERT_EQ(got.tree_stats.size(), ref.tree_stats.size()) << context;
  for (std::size_t t = 0; t < ref.tree_stats.size(); ++t) {
    EXPECT_EQ(got.tree_stats[t].train_loss, ref.tree_stats[t].train_loss)
        << context;
  }
  for (std::uint64_t r = 0; r < data.num_records(); r += 97) {
    EXPECT_EQ(got.model.predict_raw(data, r), ref.model.predict_raw(data, r))
        << context << " record " << r;
  }
}

/// Runs a faulty 2-rank loopback world and returns (rank-0 result, summed
/// channel stats, summed injected-fault stats).
struct FaultRun {
  TrainResult result;
  ipc::ReliableStats channel;
  ipc::FaultStats injected;
};

FaultRun run_with_faults(const BinnedDataset& data, ipc::FaultConfig faults,
                         std::uint64_t seed, std::uint32_t shards = 3,
                         std::uint32_t procs = 2) {
  DistributedConfig cfg;
  cfg.trainer = base_config();
  cfg.trainer.num_shards = shards;
  cfg.trainer.num_threads = 2;
  cfg.channel = fast_channel();
  ipc::InProcessWorld world(ipc::TransportKind::kLoopback, procs, faults,
                            seed);
  std::vector<DistributedStats> stats;
  TrainResult result =
      train_in_process(cfg, world, data, nullptr, nullptr, nullptr, &stats);
  FaultRun run{std::move(result), {}, {}};
  for (const auto& s : stats) {
    run.channel.retransmits += s.channel.retransmits;
    run.channel.nacks_sent += s.channel.nacks_sent;
    run.channel.duplicates_dropped += s.channel.duplicates_dropped;
    run.channel.corrupt_frames += s.channel.corrupt_frames;
    run.channel.parked_frames += s.channel.parked_frames;
    run.channel.messages_received += s.channel.messages_received;
  }
  for (std::uint32_t r = 0; r < procs; ++r) {
    const ipc::FaultStats* fs = world.fault_stats(r);
    EXPECT_NE(fs, nullptr) << "fault world must wrap every endpoint";
    if (fs == nullptr) continue;
    run.injected.dropped += fs->dropped;
    run.injected.truncated += fs->truncated;
    run.injected.duplicated += fs->duplicated;
    run.injected.reordered += fs->reordered;
    run.injected.bitflipped += fs->bitflipped;
  }
  return run;
}

class DistributedFaults : public ::testing::Test {
 protected:
  void SetUp() override {
    data_ = random_binned(2001, 71);
    ref_ = Trainer(base_config()).train(data_);
  }

  BinnedDataset data_;
  TrainResult ref_{.model = Model(0.0, nullptr)};
};

TEST_F(DistributedFaults, SurvivesDroppedMessagesBitIdentically) {
  const auto run = run_with_faults(data_, {.drop = 0.12}, 1001);
  expect_bit_identical(run.result, ref_, data_, "drop faults");
  EXPECT_GT(run.injected.dropped, 0u);
  // Every loss was healed by a timeout-driven re-request.
  EXPECT_GT(run.channel.retransmits, 0u);
  EXPECT_GT(run.channel.nacks_sent, 0u);
}

TEST_F(DistributedFaults, SurvivesTruncatedMessagesBitIdentically) {
  const auto run = run_with_faults(data_, {.truncate = 0.12}, 1003);
  expect_bit_identical(run.result, ref_, data_, "truncate faults");
  EXPECT_GT(run.injected.truncated, 0u);
  // Truncated frames are detected as corrupt and re-requested.
  EXPECT_GT(run.channel.corrupt_frames, 0u);
  EXPECT_GT(run.channel.retransmits, 0u);
}

TEST_F(DistributedFaults, SurvivesDuplicatedMessagesBitIdentically) {
  const auto run = run_with_faults(data_, {.duplicate = 0.2}, 1005);
  expect_bit_identical(run.result, ref_, data_, "duplicate faults");
  EXPECT_GT(run.injected.duplicated, 0u);
  EXPECT_GT(run.channel.duplicates_dropped, 0u);
}

TEST_F(DistributedFaults, SurvivesReorderedMessagesBitIdentically) {
  const auto run = run_with_faults(data_, {.reorder = 0.2}, 1007);
  expect_bit_identical(run.result, ref_, data_, "reorder faults");
  EXPECT_GT(run.injected.reordered, 0u);
  // Out-of-order frames were parked until their gap filled.
  EXPECT_GT(run.channel.parked_frames, 0u);
}

TEST_F(DistributedFaults, SurvivesBitFlippedMessagesBitIdentically) {
  const auto run = run_with_faults(data_, {.bitflip = 0.12}, 1009);
  expect_bit_identical(run.result, ref_, data_, "bit-flip faults");
  EXPECT_GT(run.injected.bitflipped, 0u);
  // A flip anywhere -- header or payload -- fails the frame checksum.
  EXPECT_GT(run.channel.corrupt_frames, 0u);
  EXPECT_GT(run.channel.retransmits, 0u);
}

TEST_F(DistributedFaults, SurvivesAllFaultClassesAtOnceBitIdentically) {
  const ipc::FaultConfig storm{.drop = 0.06,
                               .truncate = 0.06,
                               .duplicate = 0.06,
                               .reorder = 0.06,
                               .bitflip = 0.06};
  const auto run = run_with_faults(data_, storm, 1011, /*shards=*/8,
                                   /*procs=*/4);
  expect_bit_identical(run.result, ref_, data_, "fault storm");
  EXPECT_GT(run.injected.total(), 0u);
}

TEST_F(DistributedFaults, AdoptsShardsOfAWorkerThatNeverAppears) {
  // World of 2 ranks, but the worker never starts: rank 0 exhausts its
  // attempt budget waiting for the root histograms, declares the worker
  // dead, re-executes its shards locally, and finishes -- bit-identically.
  ipc::LoopbackHub hub(2);
  auto endpoint = hub.endpoint(0);
  DistributedConfig cfg;
  cfg.trainer = base_config();
  cfg.trainer.num_shards = 3;
  cfg.channel.recv_timeout = std::chrono::milliseconds(5);
  cfg.channel.max_attempts = 3;
  DistributedTrainer trainer(cfg, endpoint.get());
  const auto got = trainer.train(data_);
  expect_bit_identical(got, ref_, data_, "absent worker");
  EXPECT_EQ(trainer.stats().dead_workers, 1u);
  EXPECT_GT(trainer.stats().shards_adopted, 0u);
  EXPECT_EQ(trainer.stats().shards_local + trainer.stats().shards_adopted,
            3u);
}

/// Forwards faithfully until `sends_before_death` frames went out, then
/// silently swallows every further send while receiving normally: a
/// worker whose outbound path dies mid-training. Deterministic, so the
/// death lands at the same protocol point every run.
class DyingTransport final : public ipc::Transport {
 public:
  DyingTransport(ipc::Transport* inner, std::uint64_t sends_before_death)
      : inner_(inner), budget_(sends_before_death) {}

  std::uint32_t world_size() const override { return inner_->world_size(); }
  std::uint32_t rank() const override { return inner_->rank(); }
  const char* kind() const override { return "dying"; }

  bool send(std::uint32_t dst, std::span<const std::uint8_t> frame) override {
    if (budget_ == 0) return true;  // outbound path dead; pretend success
    --budget_;
    return inner_->send(dst, frame);
  }

  ipc::RecvStatus recv(std::uint32_t src, std::vector<std::uint8_t>* frame,
                       std::chrono::milliseconds timeout) override {
    return inner_->recv(src, frame, timeout);
  }

 private:
  ipc::Transport* inner_;
  std::uint64_t budget_;
};

TEST_F(DistributedFaults, AdoptsShardsOfAWorkerDyingMidTraining) {
  ipc::LoopbackHub hub(2);
  DistributedConfig cfg;
  cfg.trainer = base_config();
  cfg.trainer.num_shards = 4;
  cfg.channel.recv_timeout = std::chrono::milliseconds(5);
  cfg.channel.max_attempts = 4;

  auto ep0 = hub.endpoint(0);
  auto ep1 = hub.endpoint(1);
  // Enough budget to get through tree 0 and die somewhere inside a later
  // tree's histogram stream; the exact point is deterministic.
  DyingTransport dying(ep1.get(), 30);

  TrainResult rank0{.model = Model(0.0, nullptr)};
  DistributedStats stats0;
  std::thread worker([&] {
    // The zombie stays patient: rank 0's channel knobs are tuned for fast
    // death *detection*, while the worker must ride out rank 0's adoption
    // replay without giving up on its coordinator.
    DistributedConfig wcfg = cfg;
    wcfg.channel = ipc::ReliableConfig{};
    DistributedTrainer w(wcfg, &dying);
    // The zombie worker keeps receiving rank 0's broadcasts and exits
    // cleanly; its results are simply no longer used.
    (void)w.train(data_);
  });
  {
    DistributedTrainer driver(cfg, ep0.get());
    rank0 = driver.train(data_);
    stats0 = driver.stats();
  }
  worker.join();

  expect_bit_identical(rank0, ref_, data_, "mid-training death");
  EXPECT_EQ(stats0.dead_workers, 1u);
  EXPECT_EQ(stats0.shards_local + stats0.shards_adopted, 4u);
}

// A warm start whose worker dies after some new trees: rank 0 adopts its
// shards into a fresh group whose rows start from the carried init
// predictions (which hold only the init model's trees) and replay the
// trees finished since on top. The result must still be the Trainer's.
TEST_F(DistributedFaults, AdoptsShardsWithCarriedWarmStartPredictions) {
  const TrainResult init = Trainer(base_config()).train(data_);
  TrainerConfig warm = base_config(4);
  warm.init_model = &init.model;
  const TrainResult ref = Trainer(warm).train(data_);

  ipc::LoopbackHub hub(2);
  DistributedConfig cfg;
  cfg.trainer = warm;
  cfg.trainer.num_shards = 4;
  cfg.channel.recv_timeout = std::chrono::milliseconds(5);
  cfg.channel.max_attempts = 4;
  auto ep0 = hub.endpoint(0);
  auto ep1 = hub.endpoint(1);
  DyingTransport dying(ep1.get(), 30);

  TrainResult rank0{.model = Model(0.0, nullptr)};
  DistributedStats stats0;
  std::thread worker([&] {
    DistributedConfig wcfg = cfg;
    wcfg.channel = ipc::ReliableConfig{};
    DistributedTrainer w(wcfg, &dying);
    (void)w.train(data_);
  });
  {
    DistributedConfig rank0_cfg = cfg;
    rank0_cfg.trainer.init_predictions = init.predictions;
    DistributedTrainer driver(rank0_cfg, ep0.get());
    rank0 = driver.train(data_);
    stats0 = driver.stats();
  }
  worker.join();

  expect_bit_identical(rank0, ref, data_, "carried warm start, death");
  EXPECT_EQ(stats0.dead_workers, 1u);
  EXPECT_GT(stats0.shards_adopted, 0u);
}

TEST_F(DistributedFaults, TotalBlackoutAdoptsTheWorkerAndOrphansIt) {
  // Total blackout: every frame in both directions is dropped. Rank 0
  // declares the worker dead, re-executes its shard locally and still
  // returns the in-process model; the worker never hears from its
  // coordinator and returns orphaned instead of aborting.
  const auto data = random_binned(501, 73);
  DistributedConfig cfg;
  cfg.trainer = base_config(1);
  cfg.trainer.num_shards = 2;
  cfg.channel.recv_timeout = std::chrono::milliseconds(2);
  cfg.channel.max_attempts = 2;
  ipc::FaultConfig blackout;
  blackout.drop = 1.0;
  ipc::InProcessWorld world(ipc::TransportKind::kLoopback, 2, blackout, 9);
  std::vector<DistributedStats> stats;
  const auto got =
      train_in_process(cfg, world, data, nullptr, nullptr, nullptr, &stats);
  expect_bit_identical(got, Trainer(cfg.trainer).train(data), data,
                       "total blackout");
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].dead_workers, 1u);
  EXPECT_EQ(stats[0].shards_local + stats[0].shards_adopted, 2u);
  EXPECT_EQ(stats[1].orphaned, 1u);
}

TEST_F(DistributedFaults, WorkerWithoutCoordinatorReturnsOrphaned) {
  // World of 2 ranks, but rank 0 never starts: the worker's wait for its
  // catch-up runs out of attempts, and it returns instead of aborting.
  ipc::LoopbackHub hub(2);
  auto endpoint = hub.endpoint(1);
  DistributedConfig cfg;
  cfg.trainer = base_config();
  cfg.trainer.num_shards = 3;
  cfg.channel.recv_timeout = std::chrono::milliseconds(5);
  cfg.channel.max_attempts = 3;
  DistributedTrainer worker(cfg, endpoint.get());
  const auto got = worker.train(data_);
  EXPECT_EQ(worker.stats().orphaned, 1u);
  EXPECT_EQ(worker.stats().rank, 1u);
  EXPECT_EQ(got.model.num_trees(), 0u);
}

}  // namespace
}  // namespace booster::gbdt

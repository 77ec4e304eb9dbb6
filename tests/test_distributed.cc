// Cross-process distributed-training equivalence layer (ISSUE 5
// acceptance): gbdt::DistributedTrainer must produce *bit-identical*
// output to the in-process gbdt::Trainer -- tree structure, split
// decisions, leaf weights, gains, raw predictions, per-tree training
// losses, and rank-0's StepTrace, all compared with EXPECT_EQ, no
// tolerances -- at every tested (transport x procs x shards x threads)
// combination. The guarantee composes three properties, each pinned
// elsewhere and here exercised end to end over real transports:
//   * quantized-exact histogram accumulation makes the rank-0 merge (in
//     fixed global shard order) independent of how shards were grouped
//     into ranks and sub-chunks;
//   * the wire format (ipc::HistogramCodec) moves doubles as bit
//     patterns, so nothing changes in transit;
//   * stable per-shard partitions reproduce the single-arena row order.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "gbdt/binning.h"
#include "gbdt/distributed.h"
#include "gbdt/trainer.h"
#include "ipc/world.h"
#include "trace/step_trace.h"
#include "workloads/synth.h"

namespace booster::gbdt {
namespace {

BinnedDataset random_binned(std::uint64_t n, std::uint64_t seed) {
  workloads::DatasetSpec spec;
  spec.name = "distributed";
  spec.nominal_records = n;
  spec.numeric_fields = 5;
  spec.categorical_cardinalities = {9, 4};
  spec.missing_rate = 0.12;
  spec.loss = "logistic";
  return Binner().bin(workloads::synthesize(spec, n, seed));
}

TrainerConfig base_config(std::uint32_t trees = 4) {
  TrainerConfig cfg;
  cfg.num_trees = trees;
  cfg.max_depth = 5;
  cfg.loss = "logistic";
  cfg.num_threads = 1;
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
      ASSERT_EQ(x.depth, y.depth) << context;
      ASSERT_EQ(x.weight, y.weight)
          << context << " tree " << t << " node " << id;
      ASSERT_EQ(x.gain, y.gain) << context << " tree " << t << " node " << id;
    }
  }
}

void expect_results_bit_identical(const TrainResult& got,
                                  const TrainResult& ref,
                                  const BinnedDataset& data,
                                  const std::string& context) {
  expect_models_bit_identical(got.model, ref.model, context);
  ASSERT_EQ(got.tree_stats.size(), ref.tree_stats.size()) << context;
  for (std::size_t t = 0; t < ref.tree_stats.size(); ++t) {
    EXPECT_EQ(got.tree_stats[t].leaves, ref.tree_stats[t].leaves) << context;
    EXPECT_EQ(got.tree_stats[t].depth, ref.tree_stats[t].depth) << context;
    EXPECT_EQ(got.tree_stats[t].train_loss, ref.tree_stats[t].train_loss)
        << context << " tree " << t;
  }
  EXPECT_EQ(got.avg_leaf_depth, ref.avg_leaf_depth) << context;
  EXPECT_EQ(got.early_stopped, ref.early_stopped) << context;
  for (std::uint64_t r = 0; r < data.num_records(); r += 89) {
    EXPECT_EQ(got.model.predict_raw(data, r), ref.model.predict_raw(data, r))
        << context << " record " << r;
  }
}

TEST(DistributedEquivalence, BitIdenticalAcrossTransportsProcsShardsThreads) {
  // n = 3001 is divisible by none of the tested shard counts, so shard
  // (and rank) boundaries are uneven everywhere.
  const auto data = random_binned(3001, 17);
  const auto ref = Trainer(base_config()).train(data);

  const ipc::TransportKind kinds[] = {ipc::TransportKind::kLoopback,
                                      ipc::TransportKind::kTcp};
  for (const auto kind : kinds) {
    for (const std::uint32_t procs : {1u, 2u, 4u}) {
      for (const std::uint32_t shards : {1u, 2u, 3u, 8u}) {
        for (const unsigned threads : {1u, 8u}) {
          DistributedConfig cfg;
          cfg.trainer = base_config();
          cfg.trainer.num_shards = shards;
          cfg.trainer.num_threads = threads;
          ipc::InProcessWorld world(kind, procs);
          const auto got = train_in_process(cfg, world, data);
          const std::string context =
              std::string(ipc::transport_kind_name(kind)) + " / " +
              std::to_string(procs) + " procs / " + std::to_string(shards) +
              " shards / " + std::to_string(threads) + " threads";
          expect_results_bit_identical(got, ref, data, context);
          EXPECT_EQ(got.hot_path.shards, shards) << context;
          EXPECT_EQ(got.hot_path.threads, threads) << context;
        }
      }
    }
  }
}

TEST(DistributedEquivalence, EveryRankReturnsTheSameModel) {
  const auto data = random_binned(2001, 23);
  const auto ref = Trainer(base_config(3)).train(data);

  DistributedConfig cfg;
  cfg.trainer = base_config(3);
  cfg.trainer.num_shards = 5;
  cfg.trainer.num_threads = 2;
  ipc::InProcessWorld world(ipc::TransportKind::kLoopback, 3);
  std::vector<TrainResult> workers;
  std::vector<DistributedStats> stats;
  const auto rank0 = train_in_process(cfg, world, data, nullptr, nullptr,
                                      &workers, &stats);
  expect_results_bit_identical(rank0, ref, data, "rank 0");
  ASSERT_EQ(workers.size(), 2u);
  for (std::size_t w = 0; w < workers.size(); ++w) {
    const std::string context = "worker rank " + std::to_string(w + 1);
    expect_models_bit_identical(workers[w].model, ref.model, context);
    ASSERT_EQ(workers[w].tree_stats.size(), ref.tree_stats.size()) << context;
    for (std::size_t t = 0; t < ref.tree_stats.size(); ++t) {
      EXPECT_EQ(workers[w].tree_stats[t].train_loss,
                ref.tree_stats[t].train_loss)
          << context;
    }
    EXPECT_EQ(workers[w].avg_leaf_depth, ref.avg_leaf_depth) << context;
    EXPECT_EQ(workers[w].early_stopped, ref.early_stopped) << context;
  }
  // Shard partition across ranks: 5 shards over 3 ranks, contiguous.
  ASSERT_EQ(stats.size(), 3u);
  std::uint32_t total_local = 0;
  for (const auto& s : stats) total_local += s.shards_local;
  EXPECT_EQ(total_local, 5u);
  EXPECT_EQ(stats[0].dead_workers, 0u);
  EXPECT_GT(stats[0].channel.messages_received, 0u);
  EXPECT_GT(stats[1].channel.messages_sent, 0u);
}

TEST(DistributedEquivalence, RankZeroTraceMatchesTrainer) {
  const auto data = random_binned(2001, 31);
  trace::StepTrace ref_trace;
  const auto ref = Trainer(base_config(3)).train(data, &ref_trace);

  DistributedConfig cfg;
  cfg.trainer = base_config(3);
  cfg.trainer.num_shards = 4;
  ipc::InProcessWorld world(ipc::TransportKind::kLoopback, 2);
  trace::StepTrace trace;
  const auto got = train_in_process(cfg, world, data, &trace);
  expect_results_bit_identical(got, ref, data, "traced 2 procs");

  ASSERT_EQ(trace.events().size(), ref_trace.events().size());
  for (std::size_t i = 0; i < ref_trace.events().size(); ++i) {
    const auto& a = trace.events()[i];
    const auto& b = ref_trace.events()[i];
    EXPECT_EQ(a.kind, b.kind) << "event " << i;
    EXPECT_EQ(a.tree, b.tree) << "event " << i;
    EXPECT_EQ(a.depth, b.depth) << "event " << i;
    EXPECT_EQ(a.records, b.records) << "event " << i;
    EXPECT_EQ(a.fields_touched, b.fields_touched) << "event " << i;
    EXPECT_EQ(a.record_fields, b.record_fields) << "event " << i;
    EXPECT_EQ(a.bins_scanned, b.bins_scanned) << "event " << i;
    EXPECT_EQ(a.histograms, b.histograms) << "event " << i;
    EXPECT_EQ(a.avg_path_length, b.avg_path_length) << "event " << i;
    EXPECT_EQ(a.used_sibling_subtraction, b.used_sibling_subtraction)
        << "event " << i;
  }
}

TEST(DistributedEquivalence, MoreRanksThanShardsLeavesSurplusRanksIdle) {
  const auto data = random_binned(1501, 41);
  const auto ref = Trainer(base_config(3)).train(data);

  DistributedConfig cfg;
  cfg.trainer = base_config(3);
  cfg.trainer.num_shards = 2;
  ipc::InProcessWorld world(ipc::TransportKind::kLoopback, 4);
  std::vector<TrainResult> workers;
  std::vector<DistributedStats> stats;
  const auto got = train_in_process(cfg, world, data, nullptr, nullptr,
                                    &workers, &stats);
  expect_results_bit_identical(got, ref, data, "4 procs / 2 shards");
  // Shardless ranks still follow the tree/verdict stream to the same model.
  ASSERT_EQ(workers.size(), 3u);
  for (const auto& w : workers) {
    expect_models_bit_identical(w.model, ref.model, "idle-rank model");
  }
  std::uint32_t ranks_with_shards = 0;
  for (const auto& s : stats) ranks_with_shards += s.shards_local > 0;
  EXPECT_EQ(ranks_with_shards, 2u);
}

TEST(DistributedEquivalence, EarlyStoppingDecisionsPropagate) {
  const auto data = random_binned(2001, 47);
  TrainerConfig tcfg = base_config(30);
  tcfg.early_stop_rel_improvement = 0.02;
  tcfg.early_stop_patience = 2;
  const auto ref = Trainer(tcfg).train(data);

  DistributedConfig cfg;
  cfg.trainer = tcfg;
  cfg.trainer.num_shards = 3;
  ipc::InProcessWorld world(ipc::TransportKind::kLoopback, 2);
  std::vector<TrainResult> workers;
  const auto got =
      train_in_process(cfg, world, data, nullptr, nullptr, &workers);
  EXPECT_EQ(got.early_stopped, ref.early_stopped);
  ASSERT_EQ(got.model.num_trees(), ref.model.num_trees());
  expect_results_bit_identical(got, ref, data, "early stop 2 procs");
  ASSERT_EQ(workers.size(), 1u);
  EXPECT_EQ(workers[0].early_stopped, ref.early_stopped);
  EXPECT_EQ(workers[0].model.num_trees(), ref.model.num_trees());
}

TEST(DistributedEquivalence, CarriedWarmStartMatchesTrainerOnEveryRank) {
  // Rank 0's group starts its rows from the carried init predictions and
  // the workers replay theirs; the world must still train the Trainer's
  // model. Only the single-rank world hands predictions back.
  const auto data = random_binned(2001, 60);
  const auto init = Trainer(base_config(3)).train(data);
  ASSERT_EQ(init.predictions.size(), data.num_records());
  TrainerConfig warm = base_config(3);
  warm.init_model = &init.model;
  const auto ref = Trainer(warm).train(data);
  warm.init_predictions = init.predictions;
  for (const std::uint32_t procs : {2u, 3u}) {
    DistributedConfig cfg;
    cfg.trainer = warm;
    cfg.trainer.num_shards = 4;
    ipc::InProcessWorld world(ipc::TransportKind::kLoopback, procs);
    std::vector<TrainResult> workers;
    const auto got =
        train_in_process(cfg, world, data, nullptr, nullptr, &workers);
    const std::string context =
        "carried warm start / " + std::to_string(procs) + " procs";
    expect_results_bit_identical(got, ref, data, context + " rank 0");
    EXPECT_TRUE(got.predictions.empty()) << context;
    ASSERT_EQ(workers.size(), procs - 1) << context;
    for (std::size_t w = 0; w < workers.size(); ++w) {
      expect_results_bit_identical(
          workers[w], ref, data,
          context + " worker rank " + std::to_string(w + 1));
    }
  }
}

TEST(DistributedEquivalence, WarmStartMatchesTrainerOnEveryRank) {
  // Every admitted worker receives the init trees in its catch-up; like
  // rank 0 and Trainer it must keep them out of avg_leaf_depth.
  const auto data = random_binned(2001, 59);
  const auto init = Trainer(base_config(3)).train(data);
  TrainerConfig warm = base_config(3);
  warm.init_model = &init.model;
  const auto ref = Trainer(warm).train(data);
  ASSERT_EQ(ref.model.num_trees(), 6u);

  for (const std::uint32_t procs : {2u, 4u}) {
    for (const std::uint32_t shards : {3u, 8u}) {
      DistributedConfig cfg;
      cfg.trainer = warm;
      cfg.trainer.num_shards = shards;
      ipc::InProcessWorld world(ipc::TransportKind::kLoopback, procs);
      std::vector<TrainResult> workers;
      const auto got = train_in_process(cfg, world, data, nullptr, nullptr,
                                        &workers);
      const std::string context = "warm start / " + std::to_string(procs) +
                                  " procs / " + std::to_string(shards) +
                                  " shards";
      expect_results_bit_identical(got, ref, data, context + " rank 0");
      ASSERT_EQ(workers.size(), procs - 1) << context;
      for (std::size_t w = 0; w < workers.size(); ++w) {
        expect_results_bit_identical(
            workers[w], ref, data,
            context + " worker rank " + std::to_string(w + 1));
      }
    }
  }

  // The live membership rule admits through the same catch-up.
  ElasticWorldConfig ecfg;
  ecfg.dist.trainer = warm;
  ecfg.dist.trainer.num_shards = 3;
  ecfg.initial_workers = 2;
  const auto out = train_elastic_tcp(ecfg, data);
  ASSERT_TRUE(out.rank0.has_value());
  expect_results_bit_identical(*out.rank0, ref, data, "warm start tcp rank 0");
  ASSERT_EQ(out.completed.size(), 2u);
  for (std::size_t w = 0; w < out.completed.size(); ++w) {
    expect_results_bit_identical(out.completed[w], ref, data,
                                 "warm start tcp worker " + std::to_string(w));
  }
}

}  // namespace
}  // namespace booster::gbdt

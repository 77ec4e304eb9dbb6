// Sharded GBDT training (ROADMAP "Sharded training"): partition the
// records into K contiguous row shards, give every shard its own histogram
// pool, row arena and partition scratch, run the per-shard histogram
// build / partition / step-5 update as (sub-chunked) shard tasks on
// util::ThreadPool, and merge the per-shard histograms with Histogram::add
// in fixed shard order before running the (already-threaded) SplitFinder
// on the merged result.
//
// Since the cross-process PR the engine itself lives in
// gbdt::DistributedTrainer (distributed.h) with the per-shard half in
// gbdt::ShardGroup (shard_ops.h); ShardedTrainer is the zero-transport
// single-rank world of that engine. Because histogram accumulation is
// quantized-exact (gbdt::quantize_stat), the shard merge is *exactly*
// order-insensitive, and because the per-shard partition is stable over
// contiguous shard ranges, the trained model -- tree structure, split
// decisions, leaf weights, gains, predictions, and per-tree metrics -- is
// bit-identical to gbdt::Trainer at every shard count, thread count, and
// sub-chunking, which is what the equivalence-test layer
// (tests/test_sharded_equivalence.cc) asserts. The same merge operator
// distributes across processes -- tests/test_distributed.cc extends the
// contract over real transports.
#pragma once

#include <cstdint>

#include "gbdt/shard_ops.h"
#include "gbdt/trainer.h"

namespace booster::gbdt {

/// Drop-in sharded replacement for Trainer::train. Constructed from the
/// same TrainerConfig; cfg.num_shards selects the shard count (values 0/1
/// still run through the sharded engine with one shard -- useful for
/// equivalence tests -- whereas Trainer::train only delegates here for
/// num_shards > 1). Shard tasks run on a pool of cfg.num_threads threads;
/// shard count and thread count are independent knobs. When threads >
/// shards, every per-shard task is sub-chunked into ceil(threads / shards)
/// contiguous row chunks (ShardHotPathStats::sub_chunks), so the surplus
/// threads contribute instead of idling -- exactness is grouping-
/// independent, so this is pure scheduling.
class ShardedTrainer {
 public:
  explicit ShardedTrainer(TrainerConfig cfg = {}) : cfg_(cfg) {}

  const TrainerConfig& config() const { return cfg_; }

  /// Trains an ensemble; same contract as Trainer::train, bit-identical
  /// output at every (num_shards, num_threads). TrainResult.hot_path
  /// carries per-shard pool/arena stats (HotPathStats::per_shard).
  TrainResult train(const BinnedDataset& data,
                    trace::StepTrace* trace = nullptr,
                    trace::WorkloadInfo* info = nullptr) const;

 private:
  TrainerConfig cfg_;
};

}  // namespace booster::gbdt

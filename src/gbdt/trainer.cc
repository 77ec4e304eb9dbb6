#include "gbdt/trainer.h"

#include "gbdt/distributed.h"

namespace booster::gbdt {

TrainResult Trainer::train(const BinnedDataset& data,
                           trace::StepTrace* trace,
                           trace::WorkloadInfo* info) const {
  // The single-rank world of the shard engine: one ShardGroup covering
  // every shard, driven by rank 0's loop with no transport and no workers
  // (distributed.h).
  DistributedConfig cfg;
  cfg.trainer = cfg_;
  return DistributedTrainer(cfg, /*transport=*/nullptr)
      .train(data, trace, info);
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

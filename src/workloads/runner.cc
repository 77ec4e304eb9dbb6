#include "workloads/runner.h"

#include <utility>

#include "util/check.h"
#include "workloads/synth.h"

namespace booster::workloads {

WorkloadResult run_workload(const DatasetSpec& spec, RunnerConfig cfg) {
  BOOSTER_CHECK(cfg.sim_records > 0 && cfg.sim_trees > 0);

  const gbdt::Dataset raw = synthesize(spec, cfg.sim_records, cfg.seed);
  gbdt::Binner binner;
  gbdt::BinnedDataset binned = binner.bin(raw);

  gbdt::TrainerConfig tcfg;
  tcfg.num_trees = cfg.sim_trees;
  tcfg.max_depth = cfg.max_depth;
  tcfg.loss = spec.loss;
  tcfg.num_shards = cfg.num_shards;

  trace::StepTrace trace;
  trace::WorkloadInfo info;
  gbdt::TrainResult train =
      gbdt::Trainer(tcfg).train(binned, &trace, &info);

  trace.set_scale(static_cast<double>(spec.nominal_records) /
                  static_cast<double>(cfg.sim_records));
  trace.set_repeat(static_cast<double>(cfg.nominal_trees) /
                   static_cast<double>(cfg.sim_trees));

  info.name = spec.name;
  info.nominal_records = spec.nominal_records;
  info.trees = cfg.nominal_trees;

  WorkloadResult result{spec, std::move(binned), std::move(train),
                        std::move(trace), std::move(info)};
  return result;
}

std::vector<WorkloadResult> run_paper_workloads(RunnerConfig cfg) {
  std::vector<WorkloadResult> results;
  for (const auto& spec : paper_datasets()) {
    results.push_back(run_workload(spec, cfg));
  }
  return results;
}

}  // namespace booster::workloads

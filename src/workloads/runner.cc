#include "workloads/runner.h"

#include <chrono>
#include <utility>

#include "gbdt/distributed.h"
#include "ipc/membership.h"
#include "ipc/world.h"
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
  gbdt::TrainResult train = [&] {
    if (cfg.procs <= 1) {
      return gbdt::Trainer(tcfg).train(binned, &trace, &info);
    }
    // Cross-process leg: an in-process world of cfg.procs rank threads
    // over the configured histogram transport. Bit-identical to the
    // in-process trainer, so nothing downstream changes -- the pipeline
    // just exercises the ipc stack.
    const auto kind = ipc::transport_kind_from_name(cfg.transport);
    BOOSTER_CHECK_MSG(kind.has_value(),
                      "RunnerConfig.transport must be loopback or tcp");
    gbdt::DistributedConfig dcfg;
    dcfg.trainer = tcfg;
    if (!cfg.churn.empty()) {
      // Churn runs need the elastic localhost-TCP world: real sockets,
      // live membership, and the scheduled kill/hang/join events. Timing
      // is tightened from the 10s production defaults so a scheduled
      // hang costs the run fractions of a second, not seconds.
      BOOSTER_CHECK_MSG(*kind == ipc::TransportKind::kTcp,
                        "RunnerConfig.churn requires transport == \"tcp\"");
      const auto churn = ipc::ChurnSchedule::parse(cfg.churn);
      BOOSTER_CHECK_MSG(churn.has_value(),
                        "RunnerConfig.churn: unparseable schedule");
      gbdt::ElasticWorldConfig ecfg;
      ecfg.dist = dcfg;
      ecfg.dist.elastic = true;
      ecfg.dist.channel.recv_timeout = std::chrono::milliseconds(25);
      ecfg.dist.channel.liveness_timeout = std::chrono::milliseconds(500);
      ecfg.dist.channel.heartbeat_interval = std::chrono::milliseconds(50);
      ecfg.initial_workers = cfg.procs - 1;
      ecfg.churn = *churn;
      ecfg.tcp.reconnect_window = std::chrono::milliseconds(2000);
      ecfg.tcp.backoff.base = std::chrono::milliseconds(5);
      ecfg.tcp.backoff.cap = std::chrono::milliseconds(50);
      gbdt::ElasticRunResult out =
          gbdt::train_elastic_tcp(ecfg, binned, &trace, &info);
      BOOSTER_CHECK(out.rank0.has_value());
      return std::move(*out.rank0);
    }
    ipc::InProcessWorld world(*kind, cfg.procs);
    return gbdt::train_in_process(dcfg, world, binned, &trace, &info);
  }();

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

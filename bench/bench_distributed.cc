// Distributed-training bench: times gbdt::DistributedTrainer across the
// transport matrix (loopback / tcp x world sizes) against the in-process
// gbdt::Trainer on a fraud-shaped workload, and cross-checks the
// subsystem's core contract on every leg -- *bit-identical* models,
// losses, and predictions, whatever the transport. The
// wire traffic (messages, bytes, retransmits) and a codec microbench
// (serialize/deserialize cost per shard histogram) quantify what
// cross-process sharding pays over the in-process merge that
// bench_sharded measures. The elastic legs (ISSUE 6) run churn schedules
// -- kill / hang / late join -- over real localhost TCP and report what
// robustness costs: repartitions, adoptions, heartbeat traffic, and the
// measured time-to-detect a dead peer, still gated on bit-identity.
// Emits one machine-readable JSON object for the BENCH trajectory (see
// bench/README.md). Exits non-zero on any bit divergence.
//
//   ./bench_distributed [--quick] [--threads N] [--records N] [--trees N]
//                       [--shards K]
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "gbdt/binning.h"
#include "gbdt/distributed.h"
#include "gbdt/trainer.h"
#include "ipc/codec.h"
#include "ipc/world.h"
#include "workloads/spec.h"
#include "workloads/synth.h"

namespace {

using namespace booster;
using gbdt::Model;
using gbdt::Tree;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

bool results_bit_identical(const gbdt::TrainResult& a,
                           const gbdt::TrainResult& b,
                           const gbdt::BinnedDataset& data) {
  if (a.model.num_trees() != b.model.num_trees()) return false;
  for (std::uint32_t t = 0; t < a.model.num_trees(); ++t) {
    const Tree& x = a.model.trees()[t];
    const Tree& y = b.model.trees()[t];
    if (x.num_nodes() != y.num_nodes()) return false;
    for (std::uint32_t id = 0; id < x.num_nodes(); ++id) {
      const auto& p = x.node(static_cast<std::int32_t>(id));
      const auto& q = y.node(static_cast<std::int32_t>(id));
      if (p.is_leaf != q.is_leaf || p.field != q.field || p.kind != q.kind ||
          p.threshold_bin != q.threshold_bin ||
          p.default_left != q.default_left || p.left != q.left ||
          p.right != q.right || p.depth != q.depth ||
          p.weight != q.weight || p.gain != q.gain) {
        return false;
      }
    }
  }
  for (std::size_t t = 0; t < a.tree_stats.size(); ++t) {
    if (a.tree_stats[t].train_loss != b.tree_stats[t].train_loss) return false;
  }
  for (std::uint64_t r = 0; r < data.num_records(); r += 101) {
    if (a.model.predict_raw(data, r) != b.model.predict_raw(data, r)) {
      return false;
    }
  }
  return true;
}

struct Args {
  bool quick = false;
  unsigned threads = 0;
  std::uint64_t records = 40000;
  std::uint32_t trees = 10;
  std::uint32_t shards = 8;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      a.quick = true;
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      const int v = std::atoi(argv[++i]);
      a.threads = v > 0 ? static_cast<unsigned>(v) : 0;
    } else if (std::strcmp(argv[i], "--records") == 0 && i + 1 < argc) {
      const long long v = std::atoll(argv[++i]);
      if (v > 0) a.records = static_cast<std::uint64_t>(v);
    } else if (std::strcmp(argv[i], "--trees") == 0 && i + 1 < argc) {
      const int v = std::atoi(argv[++i]);
      if (v > 0) a.trees = static_cast<std::uint32_t>(v);
    } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      const int v = std::atoi(argv[++i]);
      if (v > 0) a.shards = static_cast<std::uint32_t>(v);
    }
  }
  if (a.quick) {
    a.records = 10000;
    a.trees = 5;
  }
  if (a.threads == 0) {
    if (const char* env = std::getenv("BOOSTER_THREADS")) {
      const int v = std::atoi(env);
      if (v > 0) a.threads = static_cast<unsigned>(v);
    }
  }
  if (a.threads == 0) a.threads = 4;
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);

  const auto spec = workloads::fraud_spec();
  const auto raw = workloads::synthesize(spec, args.records, /*seed=*/42);
  const auto data = gbdt::Binner().bin(raw);
  data.ensure_row_major();

  gbdt::DistributedConfig cfg;
  cfg.trainer.num_trees = args.trees;
  cfg.trainer.max_depth = 6;
  cfg.trainer.loss = spec.loss;
  cfg.trainer.num_shards = args.shards;
  cfg.trainer.num_threads = args.threads;

  auto t0 = std::chrono::steady_clock::now();
  const auto reference = gbdt::Trainer(cfg.trainer).train(data);
  const double reference_s = seconds_since(t0);

  std::printf("{\n  \"bench\": \"distributed\",\n  \"workload\": \"%s\","
              "\n  \"records\": %llu,\n  \"trees\": %u,\n  \"shards\": %u,"
              "\n  \"threads\": %u,\n  \"in_process_s\": %.4f,\n"
              "  \"legs\": [\n",
              spec.name.c_str(),
              static_cast<unsigned long long>(args.records), args.trees,
              args.shards, args.threads, reference_s);

  const ipc::TransportKind kinds[] = {ipc::TransportKind::kLoopback,
                                      ipc::TransportKind::kTcp};
  const std::uint32_t procs_list[] = {1, 2, 4};
  bool first = true;
  for (const auto kind : kinds) {
    for (const std::uint32_t procs : procs_list) {
      ipc::InProcessWorld world(kind, procs);
      std::vector<gbdt::DistributedStats> stats;
      t0 = std::chrono::steady_clock::now();
      const auto got = gbdt::train_in_process(cfg, world, data, nullptr,
                                              nullptr, nullptr, &stats);
      const double wall_s = seconds_since(t0);
      const bool identical = results_bit_identical(got, reference, data);

      std::uint64_t bytes_sent = 0;
      std::uint64_t messages = 0;
      std::uint64_t retransmits = 0;
      for (const auto& s : stats) {
        bytes_sent += s.transport.bytes_sent;
        messages += s.channel.messages_sent;
        retransmits += s.channel.retransmits;
      }
      std::printf("%s    {\"transport\": \"%s\", \"procs\": %u,"
                  " \"wall_s\": %.4f,\n"
                  "     \"bit_identical_to_in_process\": %s,"
                  " \"messages\": %llu, \"wire_bytes\": %llu,"
                  " \"retransmits\": %llu}",
                  first ? "" : ",\n", ipc::transport_kind_name(kind),
                  procs, wall_s, identical ? "true" : "false",
                  static_cast<unsigned long long>(messages),
                  static_cast<unsigned long long>(bytes_sent),
                  static_cast<unsigned long long>(retransmits));
      first = false;
      if (!identical) {
        std::printf("\n  ]\n}\n");
        std::fprintf(stderr,
                     "FATAL: distributed output diverged from the in-process"
                     " trainer (%s, %u procs)\n",
                     ipc::transport_kind_name(kind), procs);
        return 1;
      }
    }
  }
  std::printf("\n  ],\n");

  // Elastic legs: real localhost-TCP worlds driven by seeded churn
  // schedules. Probes what robustness costs and proves it costs no
  // correctness: repartitions/joins/adoptions, heartbeat traffic, the
  // measured time-to-detect a dead peer, and the same bit-identity gate.
  {
    struct ElasticLeg {
      std::uint32_t procs;
      const char* churn;
    };
    const ElasticLeg legs[] = {
        {2, ""},
        {2, "kill:1@1"},
        {4, "hang:2@1"},
        {4, "kill:1@1,join:5@2"},
    };
    std::printf("  \"elastic_tcp_legs\": [\n");
    bool first_leg = true;
    for (const auto& leg : legs) {
      gbdt::ElasticWorldConfig ecfg;
      ecfg.dist = cfg;
      ecfg.dist.channel.recv_timeout = std::chrono::milliseconds(25);
      ecfg.dist.channel.liveness_timeout = std::chrono::milliseconds(500);
      ecfg.dist.channel.heartbeat_interval = std::chrono::milliseconds(50);
      ecfg.initial_workers = leg.procs - 1;
      ecfg.tcp.reconnect_window = std::chrono::milliseconds(2000);
      ecfg.tcp.backoff.base = std::chrono::milliseconds(5);
      ecfg.tcp.backoff.cap = std::chrono::milliseconds(50);
      const auto churn = ipc::ChurnSchedule::parse(leg.churn);
      if (!churn) return 1;
      ecfg.churn = *churn;

      t0 = std::chrono::steady_clock::now();
      const auto out = gbdt::train_elastic_tcp(ecfg, data);
      const double wall_s = seconds_since(t0);
      bool identical =
          out.rank0.has_value() &&
          results_bit_identical(*out.rank0, reference, data);
      for (const auto& worker : out.completed) {
        identical = identical && results_bit_identical(worker, reference, data);
      }
      const auto& st = out.rank0_stats;
      std::printf(
          "%s    {\"procs\": %u, \"churn\": \"%s\", \"wall_s\": %.4f,\n"
          "     \"bit_identical_to_in_process\": %s, \"repartitions\": %u,"
          " \"joins\": %u, \"dead_workers\": %u, \"shards_adopted\": %u,\n"
          "     \"reconnects\": %llu, \"heartbeats_rx\": %llu,"
          " \"time_to_detect_ms\": %.1f}",
          first_leg ? "" : ",\n", leg.procs, leg.churn, wall_s,
          identical ? "true" : "false", st.repartitions, st.joins,
          st.dead_workers, st.shards_adopted,
          static_cast<unsigned long long>(st.transport.reconnects),
          static_cast<unsigned long long>(st.channel.heartbeats_received),
          st.channel.max_detect_ms);
      first_leg = false;
      if (!identical) {
        std::printf("\n  ]\n}\n");
        std::fprintf(stderr,
                     "FATAL: elastic output diverged from the in-process"
                     " trainer (procs=%u, churn=\"%s\")\n",
                     leg.procs, leg.churn);
        return 1;
      }
    }
    std::printf("\n  ],\n");
  }

  // Codec microbench: serialize/deserialize cost of one root-node shard
  // histogram -- the unit of merge traffic every transport carries.
  {
    gbdt::Histogram hist(data);
    std::vector<std::uint32_t> rows(data.num_records());
    for (std::uint64_t r = 0; r < rows.size(); ++r) {
      rows[r] = static_cast<std::uint32_t>(r);
    }
    std::vector<gbdt::GradientPair> gradients(data.num_records(),
                                              {0.25f, 0.5f});
    hist.build(data, rows, gradients);
    const std::uint64_t bytes = ipc::HistogramCodec::encoded_histogram_bytes(hist);

    constexpr int kReps = 200;
    t0 = std::chrono::steady_clock::now();
    std::vector<std::uint8_t> payload;
    for (int i = 0; i < kReps; ++i) {
      payload.clear();
      ipc::HistogramCodec::encode_histogram(hist, &payload);
    }
    const double encode_s = seconds_since(t0) / kReps;
    gbdt::Histogram decoded(data);
    t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kReps; ++i) {
      ipc::ByteReader r(payload);
      if (!ipc::HistogramCodec::decode_histogram_into(r, &decoded)) return 1;
    }
    const double decode_s = seconds_since(t0) / kReps;
    std::printf("  \"codec\": {\"histogram_bytes\": %llu,"
                " \"encode_us\": %.2f, \"decode_us\": %.2f,\n"
                "            \"encode_mb_s\": %.1f, \"decode_mb_s\": %.1f}\n",
                static_cast<unsigned long long>(bytes), encode_s * 1e6,
                decode_s * 1e6, bytes / encode_s / 1e6,
                bytes / decode_s / 1e6);
  }
  std::printf("}\n");
  return 0;
}

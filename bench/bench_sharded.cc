// Sharded-training bench: times gbdt::Trainer at several shard counts
// (TrainerConfig::num_shards) against its one-shard run on synthetic
// fraud- and flight-shaped workloads, and cross-checks the engine's core
// contract -- *bit-identical* models and predictions at every shard count
// (not merely structural equality: leaf weights, gains, and per-tree
// training losses must match to the last bit, which the quantized-exact
// histogram merge guarantees). Emits one machine-readable JSON object for
// the BENCH trajectory (see bench/README.md).
//
//   ./bench_sharded [--quick] [--threads N] [--records N] [--trees N]
//
// --threads defaults to BOOSTER_THREADS, else 8. Note: on a single-core CI
// container the sharded legs only measure fan-out + merge overhead; the
// shard tasks themselves serialize.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "gbdt/binning.h"
#include "gbdt/trainer.h"
#include "ipc/codec.h"
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

/// Bitwise model equality: structure AND floating-point payloads. The
/// sharded trainer's claim is exact equivalence, so no tolerance anywhere.
bool models_bit_identical(const Model& a, const Model& b) {
  if (a.num_trees() != b.num_trees()) return false;
  for (std::uint32_t t = 0; t < a.num_trees(); ++t) {
    const Tree& x = a.trees()[t];
    const Tree& y = b.trees()[t];
    if (x.num_nodes() != y.num_nodes()) return false;
    for (std::uint32_t id = 0; id < x.num_nodes(); ++id) {
      const auto& p = x.node(static_cast<std::int32_t>(id));
      const auto& q = y.node(static_cast<std::int32_t>(id));
      if (p.is_leaf != q.is_leaf || p.field != q.field || p.kind != q.kind ||
          p.threshold_bin != q.threshold_bin ||
          p.default_left != q.default_left || p.left != q.left ||
          p.right != q.right || p.weight != q.weight || p.gain != q.gain) {
        return false;
      }
    }
  }
  return true;
}

bool results_bit_identical(const gbdt::TrainResult& a,
                           const gbdt::TrainResult& b,
                           const gbdt::BinnedDataset& data) {
  if (!models_bit_identical(a.model, b.model)) return false;
  if (a.tree_stats.size() != b.tree_stats.size()) return false;
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
  std::uint64_t records = 60000;
  std::uint32_t trees = 12;
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
    }
  }
  if (a.quick) {
    a.records = 12000;
    a.trees = 6;
  }
  if (a.threads == 0) {
    if (const char* env = std::getenv("BOOSTER_THREADS")) {
      const int v = std::atoi(env);
      if (v > 0) a.threads = static_cast<unsigned>(v);
    }
  }
  if (a.threads == 0) a.threads = 8;
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const std::vector<std::uint32_t> shard_counts = {1, 2, 4, 8};

  std::vector<workloads::DatasetSpec> specs = {
      workloads::fraud_spec(), workloads::spec_by_name("Flight")};

  std::printf("{\n  \"bench\": \"sharded\",\n  \"threads\": %u,\n"
              "  \"records\": %llu,\n  \"trees\": %u,\n  \"workloads\": [\n",
              args.threads, static_cast<unsigned long long>(args.records),
              args.trees);

  for (std::size_t w = 0; w < specs.size(); ++w) {
    const auto& spec = specs[w];
    const auto raw = workloads::synthesize(spec, args.records, /*seed=*/42);
    const auto data = gbdt::Binner().bin(raw);

    gbdt::TrainerConfig cfg;
    cfg.num_trees = args.trees;
    cfg.max_depth = 6;
    cfg.loss = spec.loss;
    cfg.num_threads = args.threads;

    // Reference: one shard at the same thread count.
    auto t0 = std::chrono::steady_clock::now();
    const auto reference = gbdt::Trainer(cfg).train(data);
    const double reference_s = seconds_since(t0);

    // Per-shard-histogram serialize/deserialize cost (the wire unit the
    // distributed merge pays per Histogram::add; bench_distributed times
    // the whole transport stack on top of this in-process baseline).
    double encode_us = 0.0;
    double decode_us = 0.0;
    std::uint64_t hist_bytes = 0;
    {
      gbdt::Histogram hist(data);
      std::vector<std::uint32_t> rows(data.num_records());
      for (std::uint64_t r = 0; r < rows.size(); ++r) {
        rows[r] = static_cast<std::uint32_t>(r);
      }
      std::vector<gbdt::GradientPair> gradients(data.num_records(),
                                                {0.25f, 0.5f});
      hist.build(data, rows, gradients);
      hist_bytes = ipc::HistogramCodec::encoded_histogram_bytes(hist);
      constexpr int kReps = 100;
      std::vector<std::uint8_t> payload;
      t0 = std::chrono::steady_clock::now();
      for (int i = 0; i < kReps; ++i) {
        payload.clear();
        ipc::HistogramCodec::encode_histogram(hist, &payload);
      }
      encode_us = seconds_since(t0) / kReps * 1e6;
      gbdt::Histogram decoded(data);
      t0 = std::chrono::steady_clock::now();
      for (int i = 0; i < kReps; ++i) {
        ipc::ByteReader r(payload);
        if (!ipc::HistogramCodec::decode_histogram_into(r, &decoded)) {
          return 1;
        }
      }
      decode_us = seconds_since(t0) / kReps * 1e6;
    }

    std::printf("    {\"name\": \"%s\", \"fields\": %u,"
                " \"single_shard_s\": %.4f,\n"
                "     \"histogram_wire_bytes\": %llu,"
                " \"serialize_us_per_histogram\": %.2f,"
                " \"deserialize_us_per_histogram\": %.2f,\n"
                "     \"shard_legs\": [\n",
                spec.name.c_str(), data.num_fields(), reference_s,
                static_cast<unsigned long long>(hist_bytes), encode_us,
                decode_us);

    for (std::size_t k = 0; k < shard_counts.size(); ++k) {
      gbdt::TrainerConfig scfg = cfg;
      scfg.num_shards = shard_counts[k];
      t0 = std::chrono::steady_clock::now();
      const auto sharded = gbdt::Trainer(scfg).train(data);
      const double sharded_s = seconds_since(t0);
      const bool identical = results_bit_identical(sharded, reference, data);

      std::uint64_t shard_allocs = 0;
      for (const auto& ss : sharded.hot_path.per_shard) {
        shard_allocs += ss.histogram_allocations;
      }
      // What the per-node shard merges would move over a transport: one
      // encoded histogram per Histogram::add (the distributed trainer's
      // wire unit) -- the in-process baseline bench_distributed compares
      // its measured wire_bytes against.
      const std::uint64_t merge_bytes =
          sharded.hot_path.histogram_merges * hist_bytes;
      std::printf(
          "      {\"shards\": %u, \"wall_s\": %.4f,"
          " \"bit_identical_to_single_shard\": %s,\n"
          "       \"histogram_merges\": %llu, \"merge_bytes\": %llu,"
          " \"shard_histogram_allocations\": %llu,"
          " \"arena_bytes\": %llu}%s\n",
          shard_counts[k], sharded_s, identical ? "true" : "false",
          static_cast<unsigned long long>(sharded.hot_path.histogram_merges),
          static_cast<unsigned long long>(merge_bytes),
          static_cast<unsigned long long>(shard_allocs),
          static_cast<unsigned long long>(sharded.hot_path.arena_bytes),
          k + 1 < shard_counts.size() ? "," : "");
      if (!identical) {
        std::fprintf(stderr,
                     "FATAL: sharded output diverged from the one-shard"
                     " run (%s, %u shards)\n",
                     spec.name.c_str(), shard_counts[k]);
        return 1;
      }
    }
    std::printf("    ]}%s\n", w + 1 < specs.size() ? "," : "");
  }
  std::printf("  ]\n}\n");
  return 0;
}

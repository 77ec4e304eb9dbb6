// Training hot-path microbench (ISSUE 1 acceptance): times the full GBDT
// training loop on synthetic fraud- and flight-shaped workloads, comparing
//   * seed    -- the pre-refactor hot path, faithfully re-created here:
//                per-field column-gather histograms, a fresh Histogram
//                allocation per frontier node, per-node left/right row
//                vectors, everything single-threaded;
//   * new @1T -- the refactored trainer forced to one thread (isolates the
//                layout + pooling + arena win);
//   * new @NT -- the refactored trainer at the requested thread count.
// Also cross-checks that the seed loop and the new trainer grow
// structurally identical trees -- the one model-level oracle that shares no
// code with the training engine -- and exits non-zero when they do not.
// Emits one machine-readable JSON object (see bench/README.md) for the
// BENCH trajectory.
//
//   ./bench_train_hotpath [--quick] [--threads N] [--records N] [--trees N]
//
// --threads defaults to BOOSTER_THREADS, else 8.
#include <chrono>
#include <ctime>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <numeric>
#include <string>
#include <vector>

#include "gbdt/binning.h"
#include "gbdt/histogram.h"
#include "gbdt/hotpath.h"
#include "gbdt/split.h"
#include "gbdt/trainer.h"
#include "util/simd.h"
#include "util/thread_pool.h"
#include "workloads/spec.h"
#include "workloads/synth.h"

namespace {

using namespace booster;
using gbdt::BinnedDataset;
using gbdt::BinStats;
using gbdt::Histogram;
using gbdt::Model;
using gbdt::Tree;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Process CPU seconds: robust against scheduler noise on shared machines
/// for the single-threaded legs (for the multi-threaded leg, wall time is
/// the metric that matters).
double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// The seed trainer's hot path, verbatim in shape: one full gather pass per
/// field per node, fresh Histogram + two row vectors per frontier node, and
/// a serial step-5 traversal. Used as the bench baseline only.
Model train_seed_reference(const BinnedDataset& data,
                           const gbdt::TrainerConfig& cfg) {
  const std::uint64_t n = data.num_records();
  auto loss = gbdt::make_loss(cfg.loss);

  double label_mean = 0.0;
  for (float y : data.labels()) label_mean += y;
  label_mean /= static_cast<double>(n);
  const double base_score = loss->base_score(label_mean);

  std::vector<float> preds(n, static_cast<float>(base_score));
  std::vector<gbdt::GradientPair> gradients(n);
  for (std::uint64_t r = 0; r < n; ++r) {
    gradients[r] = loss->gradients(preds[r], data.labels()[r]);
  }

  const gbdt::SplitFinder finder(cfg.split);
  Model model(base_score, gbdt::make_loss(cfg.loss));

  std::vector<std::uint32_t> all_rows(n);
  std::iota(all_rows.begin(), all_rows.end(), 0u);

  struct Node {
    std::int32_t tree_node = 0;
    std::int32_t depth = 0;
    std::vector<std::uint32_t> rows;
    Histogram hist;
    BinStats totals;
  };

  for (std::uint32_t t = 0; t < cfg.num_trees; ++t) {
    Tree tree;
    std::deque<Node> frontier;
    {
      Node root;
      root.tree_node = tree.root();
      root.rows = all_rows;
      root.hist = Histogram(data);
      root.hist.build_reference(data, root.rows, gradients);
      root.totals = root.hist.totals();
      frontier.push_back(std::move(root));
    }
    while (!frontier.empty()) {
      Node node = std::move(frontier.front());
      frontier.pop_front();
      auto make_leaf = [&](const BinStats& totals) {
        tree.set_leaf_weight(
            node.tree_node,
            cfg.learning_rate * gbdt::leaf_weight(totals, cfg.split.lambda));
      };
      if (node.depth >= static_cast<std::int32_t>(cfg.max_depth) ||
          node.rows.size() < cfg.min_node_records) {
        make_leaf(node.totals);
        continue;
      }
      const auto split = finder.find_best(node.hist, data);
      if (!split) {
        make_leaf(node.totals);
        continue;
      }
      std::vector<std::uint32_t> left_rows;
      std::vector<std::uint32_t> right_rows;
      left_rows.reserve(split->left.count_u64() + 1);
      right_rows.reserve(split->right.count_u64() + 1);
      const auto& col = data.column(split->field);
      for (const std::uint32_t r : node.rows) {
        (gbdt::split_goes_left(*split, col[r]) ? left_rows : right_rows)
            .push_back(r);
      }
      const auto [left_id, right_id] = tree.split_leaf(node.tree_node, *split);
      const std::int32_t child_depth = node.depth + 1;
      if (child_depth >= static_cast<std::int32_t>(cfg.max_depth)) {
        tree.set_leaf_weight(
            left_id, cfg.learning_rate *
                         gbdt::leaf_weight(split->left, cfg.split.lambda));
        tree.set_leaf_weight(
            right_id, cfg.learning_rate *
                          gbdt::leaf_weight(split->right, cfg.split.lambda));
        continue;
      }
      const bool left_smaller = left_rows.size() <= right_rows.size();
      Node small, large;
      small.tree_node = left_smaller ? left_id : right_id;
      large.tree_node = left_smaller ? right_id : left_id;
      small.depth = large.depth = child_depth;
      small.rows = left_smaller ? std::move(left_rows) : std::move(right_rows);
      large.rows = left_smaller ? std::move(right_rows) : std::move(left_rows);
      small.hist = Histogram(data);
      small.hist.build_reference(data, small.rows, gradients);
      small.totals = small.hist.totals();
      large.hist.subtract_from(node.hist, small.hist);
      large.totals = large.hist.totals();
      frontier.push_back(std::move(small));
      frontier.push_back(std::move(large));
    }
    for (std::uint64_t r = 0; r < n; ++r) {
      std::int32_t id = tree.root();
      while (!tree.node(id).is_leaf) {
        const gbdt::TreeNode& nd = tree.node(id);
        id = tree.goes_left(id, data.bin(nd.field, r)) ? nd.left : nd.right;
      }
      preds[r] += static_cast<float>(tree.node(id).weight);
      gradients[r] = loss->gradients(preds[r], data.labels()[r]);
    }
    // The seed trainer evaluated the mean training loss after every tree
    // (step 6's early-stop signal); keep the baseline faithful.
    double total_loss = 0.0;
    for (std::uint64_t r = 0; r < n; ++r) {
      total_loss += loss->value(preds[r], data.labels()[r]);
    }
    (void)total_loss;
    model.add_tree(std::move(tree));
  }
  return model;
}

bool models_structurally_equal(const Model& a, const Model& b) {
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
          p.right != q.right) {
        return false;
      }
    }
  }
  return true;
}

struct Args {
  bool quick = false;
  unsigned threads = 0;  // 0 -> BOOSTER_THREADS else 8
  std::uint64_t records = 60000;
  std::uint32_t trees = 20;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      a.quick = true;
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      const int v = std::atoi(argv[++i]);
      a.threads = v > 0 ? static_cast<unsigned>(v) : 0;  // <=0: default
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
    a.trees = 8;
  }
  // Thread-count precedence: explicit --threads, else BOOSTER_THREADS,
  // else 8 (mirrors the library's config > env > auto resolution).
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
  Args args = parse(argc, argv);

  std::vector<workloads::DatasetSpec> specs = {
      workloads::fraud_spec(), workloads::spec_by_name("Flight")};

  std::printf("{\n  \"bench\": \"train_hotpath\",\n  \"threads\": %u,\n"
              "  \"simd\": \"%s\",\n"
              "  \"records\": %llu,\n  \"trees\": %u,\n  \"workloads\": [\n",
              args.threads,
              booster::util::simd::level_name(booster::util::simd::active()),
              static_cast<unsigned long long>(args.records), args.trees);

  bool all_match = true;
  for (std::size_t w = 0; w < specs.size(); ++w) {
    const auto& spec = specs[w];
    const auto raw = workloads::synthesize(spec, args.records, /*seed=*/42);
    const auto data = gbdt::Binner().bin(raw);

    gbdt::TrainerConfig cfg;
    cfg.num_trees = args.trees;
    cfg.max_depth = 6;
    cfg.loss = spec.loss;

    // Warm-up + correctness cross-check on a small prefix.
    gbdt::TrainerConfig check_cfg = cfg;
    check_cfg.num_trees = std::min<std::uint32_t>(3, args.trees);
    check_cfg.num_threads = args.threads;
    const auto check_new = gbdt::Trainer(check_cfg).train(data);
    const auto check_seed = train_seed_reference(data, check_cfg);
    const bool models_match =
        models_structurally_equal(check_new.model, check_seed);
    if (!models_match) {
      all_match = false;
      std::fprintf(stderr,
                   "FATAL: the trainer's trees differ from the seed serial "
                   "loop's (%s)\n",
                   spec.name.c_str());
    }

    // Alternate the three legs across repetitions and keep the fastest run
    // of each, so scheduler noise and cache-warming order don't bias the
    // comparison.
    gbdt::TrainerConfig cfg1 = cfg;
    cfg1.num_threads = 1;
    gbdt::TrainerConfig cfgn = cfg;
    cfgn.num_threads = args.threads;

    double seed_s = 1e30, new1_s = 1e30, newn_s = 1e30;
    double seed_cpu = 1e30, new1_cpu = 1e30;
    std::uint32_t seed_trees = 0;
    gbdt::HotPathStats newn_stats;
    for (int rep = 0; rep < (args.quick ? 1 : 3); ++rep) {
      auto t0 = std::chrono::steady_clock::now();
      double c0 = cpu_seconds();
      const auto seed_model = train_seed_reference(data, cfg);
      seed_cpu = std::min(seed_cpu, cpu_seconds() - c0);
      seed_s = std::min(seed_s, seconds_since(t0));
      seed_trees = seed_model.num_trees();

      t0 = std::chrono::steady_clock::now();
      c0 = cpu_seconds();
      const auto new1 = gbdt::Trainer(cfg1).train(data);
      new1_cpu = std::min(new1_cpu, cpu_seconds() - c0);
      new1_s = std::min(new1_s, seconds_since(t0));

      t0 = std::chrono::steady_clock::now();
      const auto newn = gbdt::Trainer(cfgn).train(data);
      newn_s = std::min(newn_s, seconds_since(t0));
      newn_stats = newn.hot_path;
    }

    std::printf(
        "    {\"name\": \"%s\", \"fields\": %u, \"trained_trees\": %u,\n"
        "     \"seed_serial_s\": %.4f, \"new_1t_s\": %.4f, \"new_%ut_s\": "
        "%.4f,\n"
        "     \"seed_serial_cpu_s\": %.4f, \"new_1t_cpu_s\": %.4f,\n"
        "     \"speedup_1t\": %.2f, \"speedup_1t_cpu\": %.2f, "
        "\"speedup_%ut\": %.2f,\n"
        "     \"models_match_seed\": %s,\n"
        "     \"histogram_allocations\": %llu, \"histogram_acquires\": %llu,\n"
        "     \"arena_bytes\": %llu, \"row_major_matrix_bytes\": %llu}%s\n",
        spec.name.c_str(), data.num_fields(), seed_trees, seed_s,
        new1_s, args.threads, newn_s, seed_cpu, new1_cpu,
        seed_s / new1_s, seed_cpu / new1_cpu, args.threads,
        seed_s / newn_s, models_match ? "true" : "false",
        static_cast<unsigned long long>(newn_stats.histogram_allocations),
        static_cast<unsigned long long>(newn_stats.histogram_acquires),
        static_cast<unsigned long long>(newn_stats.arena_bytes),
        static_cast<unsigned long long>(newn_stats.row_major_matrix_bytes),
        w + 1 < specs.size() ? "," : "");
  }
  std::printf("  ]\n}\n");
  return all_match ? 0 : 1;
}

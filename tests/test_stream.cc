// Streaming subsystem contract suite (ISSUE 9 tentpole). The load-bearing
// assertions are equivalences, not smoke: chunked out-of-core binning
// against a frozen bin map EXPECT_EQ-equals one-shot binning at any chunk
// grouping (uneven tails included); the chunk window's arena recycling is
// allocation-free in steady state; warm-start refreshes are bit-identical
// across a (threads x shards) grid for the same chunk sequence; and a live
// serve::Server under concurrent load swaps to refreshed generations via
// POST /reload with zero incorrect or torn responses -- every response is
// wholly one generation's output, verified bitwise against a precomputed
// replay of the same deterministic refresh sequence.
#include <gtest/gtest.h>

#include <charconv>
#include <chrono>
#include <cstdio>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gbdt/binning.h"
#include "gbdt/dataset.h"
#include "gbdt/loss.h"
#include "gbdt/model_io.h"
#include "gbdt/trainer.h"
#include "gbdt/tree.h"
#include "serve/client.h"
#include "serve/model_slot.h"
#include "serve/server.h"
#include "stream/chunk_window.h"
#include "stream/frozen_bin_map.h"
#include "stream/retrainer.h"
#include "workloads/spec.h"
#include "workloads/synth.h"

namespace booster::stream {
namespace {

using gbdt::BinnedDataset;
using gbdt::Dataset;

workloads::DatasetSpec stream_spec() {
  workloads::DatasetSpec spec;
  spec.name = "stream";
  spec.nominal_records = 2000;
  spec.numeric_fields = 6;
  spec.categorical_cardinalities = {8, 3};
  spec.missing_rate = 0.1;
  spec.loss = "logistic";
  return spec;
}

/// Rows [begin, begin+count) of `d` as a standalone Dataset with the same
/// schema (the test's stand-in for a chunked arrival).
Dataset slice(const Dataset& d, std::uint64_t begin, std::uint64_t count) {
  Dataset out;
  for (std::uint32_t f = 0; f < d.num_fields(); ++f) {
    const gbdt::FieldSchema& fs = d.field(f);
    if (fs.kind == gbdt::FieldKind::kNumeric) {
      out.add_numeric_field(fs.name);
    } else {
      out.add_categorical_field(fs.name, fs.cardinality);
    }
  }
  out.resize(count);
  for (std::uint64_t r = 0; r < count; ++r) {
    for (std::uint32_t f = 0; f < d.num_fields(); ++f) {
      if (d.field(f).kind == gbdt::FieldKind::kNumeric) {
        out.set_numeric(f, r, d.numeric_value(f, begin + r));
      } else {
        out.set_categorical(f, r, d.categorical_value(f, begin + r));
      }
    }
    out.set_label(r, d.label(begin + r));
  }
  return out;
}

void expect_binned_equal(const BinnedDataset& a, const BinnedDataset& b) {
  ASSERT_EQ(a.num_records(), b.num_records());
  ASSERT_EQ(a.num_fields(), b.num_fields());
  for (std::uint32_t f = 0; f < a.num_fields(); ++f) {
    ASSERT_EQ(a.field_bins(f).num_bins, b.field_bins(f).num_bins);
    for (std::uint64_t r = 0; r < a.num_records(); ++r) {
      ASSERT_EQ(a.bin(f, r), b.bin(f, r)) << "field " << f << " row " << r;
    }
  }
  ASSERT_EQ(a.labels(), b.labels());
}

// --------------------------------------------------------- frozen binning

TEST(FrozenBinMap, RebinningTheBootstrapReproducesTheBinner) {
  const Dataset raw = workloads::synthesize(stream_spec(), 500, 7);
  const BinnedDataset bootstrap = gbdt::Binner().bin(raw);
  const FrozenBinMap map(bootstrap);
  ASSERT_EQ(map.num_fields(), bootstrap.num_fields());
  BinnedDataset rebinned;
  map.bin_chunk(raw, &rebinned);
  expect_binned_equal(rebinned, bootstrap);
}

TEST(FrozenBinMap, ChunkedBinningEquivalentToOneShotAtAnyGrouping) {
  // The same later-arrival rows binned as K chunks and concatenated must
  // EXPECT_EQ-equal the one-shot pass against the same frozen map, for
  // K in {1, 3, 8} -- chunk sizes deliberately uneven (ceil split leaves a
  // short tail) so boundary arithmetic is exercised.
  const auto spec = stream_spec();
  const Dataset bootstrap_raw = workloads::synthesize(spec, 400, 3);
  const FrozenBinMap map(gbdt::Binner().bin(bootstrap_raw));

  const Dataset arrivals = workloads::synthesize(spec, 1001, 4);
  BinnedDataset oneshot;
  map.bin_chunk(arrivals, &oneshot);

  for (const std::uint64_t k : {1ull, 3ull, 8ull}) {
    const std::uint64_t per = (arrivals.num_records() + k - 1) / k;
    std::vector<BinnedDataset> chunks;
    std::vector<const BinnedDataset*> ptrs;
    for (std::uint64_t begin = 0; begin < arrivals.num_records();
         begin += per) {
      const std::uint64_t count =
          std::min(per, arrivals.num_records() - begin);
      chunks.emplace_back();
      map.bin_chunk(slice(arrivals, begin, count), &chunks.back());
    }
    for (const auto& c : chunks) ptrs.push_back(&c);
    BinnedDataset rejoined;
    map.concat(ptrs, &rejoined);
    SCOPED_TRACE("K=" + std::to_string(k));
    expect_binned_equal(rejoined, oneshot);
  }
}

// ----------------------------------------------------------- chunk window

TEST(ChunkWindow, ArenaRecyclingIsAllocationFreeInSteadyState) {
  const auto spec = stream_spec();
  const FrozenBinMap map(
      gbdt::Binner().bin(workloads::synthesize(spec, 300, 5)));
  ChunkWindow window(map, /*max_chunks=*/4);
  for (int i = 0; i < 20; ++i) {
    window.push(workloads::synthesize(spec, 100, 50 + i));
    EXPECT_LE(window.size(), 4u);
  }
  EXPECT_EQ(window.pushes(), 20u);
  EXPECT_EQ(window.num_records(), 400u);
  // Arenas plateau at window capacity + 1 (the one evicted per push cycles
  // back through the free list) while pushes keep climbing -- the
  // HistogramPool property, transplanted.
  EXPECT_EQ(window.arena_allocations(), 5u);

  // Window contents are the newest 4 chunks in arrival order, and
  // materialization reproduces them exactly.
  BinnedDataset all;
  window.materialize(&all);
  ASSERT_EQ(all.num_records(), 400u);
  std::uint64_t offset = 0;
  for (std::size_t c = 0; c < window.size(); ++c) {
    const BinnedDataset& chunk = window.chunk(c);
    for (std::uint64_t r = 0; r < chunk.num_records(); ++r) {
      for (std::uint32_t f = 0; f < chunk.num_fields(); ++f) {
        ASSERT_EQ(all.bin(f, offset + r), chunk.bin(f, r));
      }
    }
    offset += chunk.num_records();
  }
}

// ------------------------------------------------- warm-start determinism

std::string model_bytes(const gbdt::Model& model) {
  std::stringstream out;
  gbdt::save_model(model, out);
  return out.str();
}

/// One tree of `owner`, serialized standalone -- lets the prefix test
/// compare individual trees across generations bit-for-bit.
std::string single_tree_bytes(const gbdt::Model& owner, const gbdt::Tree& t) {
  gbdt::Model one(owner.base_score(), gbdt::make_loss(owner.loss().name()));
  one.add_tree(t);
  return model_bytes(one);
}

TEST(Retrainer, WarmStartRefreshesBitIdenticalAcrossThreadsAndShards) {
  // The same chunk sequence must produce bit-identical refreshed models at
  // every (threads, shards) grid point -- the quantized-exact histogram
  // contract extended through warm starts. (1, 1) is the reference.
  const auto spec = stream_spec();
  const Dataset bootstrap_raw = workloads::synthesize(spec, 400, 21);
  const FrozenBinMap map(gbdt::Binner().bin(bootstrap_raw));
  std::vector<Dataset> chunks;
  for (int i = 0; i < 6; ++i) {
    chunks.push_back(workloads::synthesize(spec, 150, 210 + 31 * i));
  }

  const auto run_grid_point = [&](std::uint32_t threads,
                                  std::uint32_t shards) {
    RetrainerConfig rcfg;
    rcfg.trainer.num_trees = 5;
    rcfg.trainer.max_depth = 3;
    rcfg.trainer.loss = "logistic";
    rcfg.trainer.num_threads = threads;
    rcfg.trainer.num_shards = shards;
    rcfg.refresh_every_chunks = 2;
    rcfg.window_chunks = 4;
    Retrainer retrainer(map, rcfg);
    std::vector<std::string> generations;
    for (const Dataset& chunk : chunks) {
      if (retrainer.ingest(chunk)) {
        generations.push_back(model_bytes(*retrainer.latest()));
      }
    }
    return generations;
  };

  const std::vector<std::string> reference = run_grid_point(1, 1);
  ASSERT_EQ(reference.size(), 3u);  // 6 chunks / cadence 2
  for (const std::uint32_t threads : {1u, 8u}) {
    for (const std::uint32_t shards : {1u, 3u}) {
      if (threads == 1 && shards == 1) continue;
      const auto got = run_grid_point(threads, shards);
      ASSERT_EQ(got.size(), reference.size())
          << threads << " threads, " << shards << " shards";
      for (std::size_t g = 0; g < got.size(); ++g) {
        EXPECT_EQ(got[g], reference[g])
            << "generation " << g << " diverged at " << threads
            << " threads, " << shards << " shards";
      }
    }
  }
}

TEST(Retrainer, WarmStartGrowsTheEnsembleAndPreservesThePrefix) {
  const auto spec = stream_spec();
  const FrozenBinMap map(
      gbdt::Binner().bin(workloads::synthesize(spec, 400, 33)));
  RetrainerConfig rcfg;
  rcfg.trainer.num_trees = 4;
  rcfg.trainer.max_depth = 3;
  rcfg.trainer.loss = "logistic";
  rcfg.trainer.num_threads = 1;
  rcfg.refresh_every_chunks = 1;
  rcfg.window_chunks = 3;
  Retrainer retrainer(map, rcfg);
  EXPECT_EQ(retrainer.latest(), nullptr);

  std::vector<std::string> prev_trees;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(retrainer.ingest(workloads::synthesize(spec, 120, 330 + i)));
    const gbdt::Model* latest = retrainer.latest();
    ASSERT_NE(latest, nullptr);
    // Warm start: each refresh *appends* num_trees trees; the prior
    // generation's trees carry over bit-identically as the prefix.
    ASSERT_EQ(latest->trees().size(), 4u * (i + 1));
    std::vector<std::string> now_trees;
    for (const gbdt::Tree& t : latest->trees()) {
      now_trees.push_back(single_tree_bytes(*latest, t));
    }
    for (std::size_t t = 0; t < prev_trees.size(); ++t) {
      EXPECT_EQ(now_trees[t], prev_trees[t]) << "tree " << t << " mutated";
    }
    prev_trees = std::move(now_trees);
  }
  EXPECT_EQ(retrainer.stats().refreshes, 3u);
  EXPECT_EQ(retrainer.stats().latest_trees, 12u);
}

// Each refresh carries the surviving rows' predictions over from the one
// before and replays only the new chunks. The oracle is a plain Trainer run
// on the same materialized window, warm-started from the previous
// generation with no carried predictions -- a whole-window replay -- so a
// wrong carry offset or a stale carried vector shows up as a model or
// train_loss difference. Uneven chunk sizes make any offset error land on
// rows of another chunk; window_chunks < refresh_every_chunks evicts every
// row between refreshes, so nothing is carried.
TEST(Retrainer, CarriedRefreshesEqualWholeWindowWarmStarts) {
  const auto spec = stream_spec();
  const FrozenBinMap map(
      gbdt::Binner().bin(workloads::synthesize(spec, 400, 91)));
  const std::vector<std::uint64_t> sizes = {150, 97, 203, 61, 180,
                                            120, 77, 133, 40};
  std::vector<Dataset> chunks;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    chunks.push_back(workloads::synthesize(spec, sizes[i], 910 + 7 * i));
  }
  struct Shape {
    std::uint32_t refresh_every;
    std::size_t window;
  };
  const Shape shapes[] = {{1, 3}, {2, 3}, {2, 4}, {3, 2}, {2, 1}};
  for (const char* loss : {"logistic", "squared"}) {
    for (const Shape& shape : shapes) {
      SCOPED_TRACE(::testing::Message()
                   << loss << " refresh every " << shape.refresh_every
                   << " window " << shape.window);
      RetrainerConfig rcfg;
      rcfg.trainer.num_trees = 3;
      rcfg.trainer.max_depth = 3;
      rcfg.trainer.loss = loss;
      rcfg.trainer.num_threads = 2;
      rcfg.refresh_every_chunks = shape.refresh_every;
      rcfg.window_chunks = shape.window;
      Retrainer retrainer(map, rcfg);
      std::optional<gbdt::Model> previous;
      std::size_t last_refresh = 0;  // chunks ingested at the last refresh
      std::uint64_t refreshes = 0;
      for (std::size_t i = 0; i < chunks.size(); ++i) {
        if (!retrainer.ingest(chunks[i])) continue;
        ++refreshes;
        BinnedDataset window;
        retrainer.window().materialize(&window);
        gbdt::TrainerConfig tcfg = rcfg.trainer;
        tcfg.init_model = previous.has_value() ? &*previous : nullptr;
        const gbdt::TrainResult want = gbdt::Trainer(tcfg).train(window);
        ASSERT_EQ(model_bytes(*retrainer.latest()), model_bytes(want.model))
            << "refresh " << refreshes;
        const auto& got_stats = retrainer.latest_tree_stats();
        ASSERT_EQ(got_stats.size(), want.tree_stats.size());
        for (std::size_t t = 0; t < got_stats.size(); ++t) {
          EXPECT_EQ(got_stats[t].train_loss, want.tree_stats[t].train_loss)
              << "refresh " << refreshes << " tree " << t;
        }
        // Replayed rows: the window's chunks ingested since the last
        // refresh (every chunk on the first refresh).
        const std::size_t first_in_window =
            i + 1 > shape.window ? i + 1 - shape.window : 0;
        std::uint64_t want_replayed = 0;
        for (std::size_t c = first_in_window; c <= i; ++c) {
          if (refreshes == 1 || c >= last_refresh) want_replayed += sizes[c];
        }
        EXPECT_EQ(retrainer.stats().replayed_rows, want_replayed)
            << "refresh " << refreshes;
        if (shape.window < shape.refresh_every) {
          EXPECT_EQ(want_replayed, window.num_records());
        }
        last_refresh = i + 1;
        previous.emplace(retrainer.latest()->clone());
      }
      EXPECT_EQ(refreshes, sizes.size() / shape.refresh_every);
    }
  }
}

// The perfbench stream shape at 1/40 of its rows: 16 chunks, a window of
// 8, a refresh every 2. Every refresh replays exactly the 2 chunks
// ingested since the previous one (the first refresh's whole window is
// those 2 chunks too), however full the window is.
TEST(Retrainer, ReplaysOnlyTheChunksIngestedSinceTheLastRefresh) {
  const auto spec = stream_spec();
  const FrozenBinMap map(
      gbdt::Binner().bin(workloads::synthesize(spec, 400, 93)));
  RetrainerConfig rcfg;
  rcfg.trainer.num_trees = 2;
  rcfg.trainer.max_depth = 3;
  rcfg.trainer.loss = "logistic";
  rcfg.trainer.num_threads = 1;
  rcfg.refresh_every_chunks = 2;
  rcfg.window_chunks = 8;
  Retrainer retrainer(map, rcfg);
  for (int i = 0; i < 16; ++i) {
    if (!retrainer.ingest(workloads::synthesize(spec, 500, 930 + i))) {
      continue;
    }
    EXPECT_EQ(retrainer.stats().replayed_rows, 1000u)
        << "refresh " << retrainer.stats().refreshes;
  }
  EXPECT_EQ(retrainer.stats().refreshes, 8u);
  EXPECT_EQ(retrainer.stats().latest_window_records, 4000u);
}

// ------------------------------------------------------------- end-to-end

TEST(StreamEndToEnd, LiveServerSwapsToRefreshedModelsWithoutTornResponses) {
  // The acceptance path: a live serve::Server under concurrent /predict
  // load while a Retrainer refreshes on a cadence and hands off through
  // the checked container + POST /reload. Generation contents are
  // precomputed by replaying the identical chunk sequence (refreshes are
  // deterministic), so every served response is verified bitwise against
  // the generation its X-Model-Version names -- zero errors, zero torn
  // responses.
  const auto spec = stream_spec();
  const Dataset bootstrap_raw = workloads::synthesize(spec, 300, 77);
  const BinnedDataset bootstrap = gbdt::Binner().bin(bootstrap_raw);
  const FrozenBinMap map(bootstrap);
  std::vector<Dataset> chunks;
  for (int i = 0; i < 6; ++i) {
    chunks.push_back(workloads::synthesize(spec, 120, 770 + 13 * i));
  }

  RetrainerConfig base_cfg;
  base_cfg.trainer.num_trees = 4;
  base_cfg.trainer.max_depth = 3;
  base_cfg.trainer.loss = "logistic";
  base_cfg.trainer.num_threads = 1;
  base_cfg.refresh_every_chunks = 2;
  base_cfg.window_chunks = 4;

  // Replay pass: per-generation expected predictions on the probe rows.
  std::vector<std::vector<double>> expected_by_version;
  {
    Retrainer replay(map, base_cfg);
    for (const Dataset& chunk : chunks) {
      if (!replay.ingest(chunk)) continue;
      std::stringstream bytes(model_bytes(*replay.latest()));
      const gbdt::Model snapshot = gbdt::load_model(bytes);
      std::vector<double> expected(bootstrap.num_records());
      for (std::uint64_t r = 0; r < bootstrap.num_records(); ++r) {
        expected[r] = snapshot.predict(bootstrap, r);
      }
      expected_by_version.push_back(std::move(expected));
    }
  }
  ASSERT_EQ(expected_by_version.size(), 3u);

  serve::ModelSlot slot;
  auto server =
      std::make_unique<serve::Server>(serve::ServerConfig{}, &slot, bootstrap);
  std::thread loop([&] { server->run(); });

  const std::string path = "/tmp/booster_stream_handoff_test.model";
  RetrainerConfig live_cfg = base_cfg;
  live_cfg.save_path = path;
  live_cfg.reload_port = server->port();
  Retrainer retrainer(map, live_cfg);

  // First refresh before the clients start, so every request finds a
  // model installed (the 503-before-first-install case has its own test).
  std::size_t next_chunk = 0;
  while (retrainer.stats().refreshes == 0 && next_chunk < chunks.size()) {
    retrainer.ingest(chunks[next_chunk++]);
  }
  ASSERT_EQ(retrainer.stats().refreshes, 1u);
  ASSERT_EQ(retrainer.stats().handoff_failures, 0u);

  std::vector<std::thread> clients;
  std::atomic<std::uint64_t> torn{0};
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&, c] {
      serve::BlockingClient client;
      if (!client.connect(server->port())) {
        torn += 1000;
        return;
      }
      std::vector<double> got;
      serve::Response resp;
      for (int k = 0; k < 60; ++k) {
        const std::uint64_t first =
            (c * 101 + k * 7) % bootstrap_raw.num_records();
        if (!client.request("POST", "/predict",
                            serve::csv_rows(bootstrap_raw, first, 4),
                            &resp) ||
            resp.status != 200 ||
            !serve::parse_predictions(resp.body, &got) || got.size() != 4) {
          ++torn;
          continue;
        }
        const std::string_view header = resp.header("X-Model-Version");
        std::uint64_t version = 0;
        std::from_chars(header.data(), header.data() + header.size(),
                        version);
        if (version == 0 || version > expected_by_version.size()) {
          ++torn;
          continue;
        }
        const std::vector<double>& expected =
            expected_by_version[version - 1];
        for (int i = 0; i < 4; ++i) {
          const std::uint64_t row =
              (first + i) % bootstrap_raw.num_records();
          if (got[i] != expected[row]) ++torn;
        }
      }
    });
  }

  // Stream the rest while the clients hammer: two more refreshes land
  // mid-load through /reload.
  for (; next_chunk < chunks.size(); ++next_chunk) {
    retrainer.ingest(chunks[next_chunk]);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  for (auto& t : clients) t.join();

  EXPECT_EQ(torn.load(), 0u);
  EXPECT_EQ(retrainer.stats().refreshes, 3u);
  EXPECT_EQ(retrainer.stats().handoff_failures, 0u);
  const auto served = slot.current();
  ASSERT_NE(served, nullptr);
  EXPECT_EQ(served->version, 3u);  // one /reload install per refresh

  server->stop();
  loop.join();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace booster::stream

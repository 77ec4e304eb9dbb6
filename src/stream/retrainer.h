// Continuous-retraining driver: ingests raw chunks into a ChunkWindow and,
// every `refresh_every_chunks` pushes, retrains on the window's
// materialized view and hands the refreshed ensemble off to serving --
// in-process through serve::ModelSlot::install, or cross-process by saving
// the checked model_io container and POSTing /reload to a live server.
// Every refresh after the first warm-starts (TrainerConfig.init_model) from
// the previous generation, so a refresh trains `trainer.num_trees` *new*
// trees on the window instead of a whole ensemble from scratch.
//
// A refresh does not re-derive the whole window's predictions either. The
// window evicts chunks from the front and appends them at the back, so the
// rows that survived since the previous refresh are the previous window's
// suffix and this window's prefix. Their step-5 predictions, kept from the
// previous refresh's TrainResult::predictions, are passed on as
// TrainerConfig.init_predictions, and only the chunks ingested since are
// replayed through the ensemble (gbdt::ShardGroup::reset, tile-major
// through the fixed-depth traversal kernel). So a refresh's replay costs
// the new rows times the tree count, not the window times it
// (RetrainerStats::replayed_rows).
//
// Refreshes are deterministic: the same chunk sequence produces
// bit-identical models at every refresh for any (threads, shards) pairing
// and equals a plain warm start that replays the whole window -- training
// adds each tree's float weight in tree order exactly as the replay does,
// so carried and replayed predictions agree bit for bit, the traversal's
// routing is integer compares, and histogram accumulation is
// quantized-exact (tests/test_stream.cc checks both against a Trainer run
// per refresh and across the {1,8} x {1,3} grid).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "gbdt/trainer.h"
#include "gbdt/tree.h"
#include "serve/model_slot.h"
#include "stream/chunk_window.h"
#include "stream/frozen_bin_map.h"

namespace booster::stream {

struct RetrainerConfig {
  /// Per-refresh training config. num_trees counts the trees *added* per
  /// refresh: every refresh after the first continues boosting from the
  /// previous generation (its init_model is set by the retrainer).
  gbdt::TrainerConfig trainer;
  /// Refresh (retrain + hand off) after every this-many ingested chunks.
  std::uint32_t refresh_every_chunks = 4;
  /// Window capacity in chunks (the training view of the stream).
  std::size_t window_chunks = 8;
  /// When non-empty, every refreshed model is saved here through the
  /// checked model_io container before hand-off.
  std::string save_path;
  /// In-process hand-off: refreshed models are installed here. Optional.
  serve::ModelSlot* slot = nullptr;
  /// Cross-process hand-off: when non-zero, POST /reload {save_path} to a
  /// serve::Server on this loopback port after saving (save_path must be
  /// set -- the server loads the container itself).
  std::uint16_t reload_port = 0;
};

struct RetrainerStats {
  std::uint64_t chunks_ingested = 0;
  std::uint64_t refreshes = 0;
  /// Trees in the latest generation (grows by trainer.num_trees per
  /// refresh).
  std::uint64_t latest_trees = 0;
  /// Records in the window at the latest refresh.
  std::uint64_t latest_window_records = 0;
  /// Records whose predictions the latest refresh re-derived from the
  /// ensemble: the window's rows ingested since the refresh before it
  /// (the whole window on the first refresh, and whenever no row survived
  /// in between).
  std::uint64_t replayed_rows = 0;
  /// Hand-offs that failed (container save, install_from_file, or /reload
  /// round-trip); the refreshed model is still kept as latest().
  std::uint64_t handoff_failures = 0;
};

class Retrainer {
 public:
  Retrainer(const FrozenBinMap& map, RetrainerConfig cfg);

  /// Ingests one raw chunk; runs a refresh when the cadence fires.
  /// Returns true iff this push triggered a refresh.
  bool ingest(const gbdt::Dataset& chunk);

  /// Forces a refresh now (e.g. a final flush); no-op on an empty window.
  /// Returns false when the hand-off failed.
  bool refresh();

  /// The latest refreshed ensemble; nullptr before the first refresh.
  const gbdt::Model* latest() const {
    return latest_.has_value() ? &*latest_ : nullptr;
  }

  /// Per-tree stats of the latest generation (placeholders for the trees
  /// it warm-started from, as in TrainResult::tree_stats).
  const std::vector<gbdt::TreeStats>& latest_tree_stats() const {
    return latest_tree_stats_;
  }

  const RetrainerStats& stats() const { return stats_; }
  const ChunkWindow& window() const { return window_; }

 private:
  const FrozenBinMap* map_;
  RetrainerConfig cfg_;
  ChunkWindow window_;
  gbdt::BinnedDataset train_arena_;  // reused window materialization
  std::optional<gbdt::Model> latest_;
  std::vector<gbdt::TreeStats> latest_tree_stats_;
  /// latest_'s float predictions of the window rows at its refresh.
  std::vector<float> predictions_;
  /// Records the window evicted since the latest refresh: the front of
  /// predictions_ that no longer belongs to the window.
  std::uint64_t evicted_since_refresh_ = 0;
  std::uint32_t chunks_since_refresh_ = 0;
  RetrainerStats stats_;
};

}  // namespace booster::stream

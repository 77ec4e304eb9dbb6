// Bounded sliding window of binned chunks with recycled arenas: the
// streaming analogue of the trainer's HistogramPool. Each push bins one
// raw chunk (via the FrozenBinMap) into an arena taken from the free list
// -- evicted chunks return their arenas -- so once the window is full and
// chunk sizes have stabilized, ingestion performs no allocations. The
// counters make that property testable: arena_allocations() must plateau
// while pushes() keeps climbing (tests/test_stream.cc).
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "gbdt/binning.h"
#include "gbdt/dataset.h"
#include "stream/frozen_bin_map.h"

namespace booster::stream {

class ChunkWindow {
 public:
  /// `max_chunks` bounds the window; the free list never holds more than
  /// one arena per window slot (eviction returns exactly one per push).
  ChunkWindow(const FrozenBinMap& map, std::size_t max_chunks);

  /// Bins `chunk` into a recycled arena and appends it to the window,
  /// evicting the oldest chunk (arena returned to the free list) when the
  /// window is at capacity. Returns the records evicted (0 when nothing
  /// was): they leave the front of the materialized view.
  std::uint64_t push(const gbdt::Dataset& chunk);

  std::size_t size() const { return window_.size(); }
  std::uint64_t num_records() const;
  const gbdt::BinnedDataset& chunk(std::size_t i) const { return window_[i]; }

  /// Concatenates the window's chunks into `*out` (oldest first), reusing
  /// `out`'s arenas -- the training view of the stream's recent past.
  void materialize(gbdt::BinnedDataset* out) const;

  /// Fresh chunk arenas constructed (free-list misses); plateaus at
  /// max_chunks + 1 in steady state.
  std::uint64_t arena_allocations() const { return arena_allocations_; }
  std::uint64_t pushes() const { return pushes_; }

 private:
  const FrozenBinMap* map_;
  std::size_t max_chunks_;
  std::deque<gbdt::BinnedDataset> window_;
  std::vector<gbdt::BinnedDataset> free_;
  std::uint64_t arena_allocations_ = 0;
  std::uint64_t pushes_ = 0;
};

}  // namespace booster::stream

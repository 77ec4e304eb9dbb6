#include "stream/chunk_window.h"

#include <utility>

#include "util/check.h"

namespace booster::stream {

ChunkWindow::ChunkWindow(const FrozenBinMap& map, std::size_t max_chunks)
    : map_(&map), max_chunks_(max_chunks) {
  BOOSTER_CHECK_MSG(max_chunks_ > 0, "window must hold at least one chunk");
}

std::uint64_t ChunkWindow::push(const gbdt::Dataset& chunk) {
  gbdt::BinnedDataset arena;
  if (!free_.empty()) {
    arena = std::move(free_.back());
    free_.pop_back();
  } else {
    ++arena_allocations_;
  }
  map_->bin_chunk(chunk, &arena);
  window_.push_back(std::move(arena));
  std::uint64_t evicted = 0;
  if (window_.size() > max_chunks_) {
    evicted = window_.front().num_records();
    free_.push_back(std::move(window_.front()));
    window_.pop_front();
  }
  ++pushes_;
  return evicted;
}

std::uint64_t ChunkWindow::num_records() const {
  std::uint64_t total = 0;
  for (const auto& c : window_) total += c.num_records();
  return total;
}

void ChunkWindow::materialize(gbdt::BinnedDataset* out) const {
  std::vector<const gbdt::BinnedDataset*> chunks;
  chunks.reserve(window_.size());
  for (const auto& c : window_) chunks.push_back(&c);
  map_->concat(chunks, out);
}

}  // namespace booster::stream

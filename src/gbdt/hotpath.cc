#include "gbdt/hotpath.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "util/check.h"

namespace booster::gbdt {

void build_histogram_parallel(Histogram& out, const BinnedDataset& data,
                              std::span<const std::uint32_t> rows,
                              std::span<const GradientPair> gradients,
                              util::ThreadPool& pool,
                              HistogramPool& hist_pool,
                              std::vector<Histogram>& partials_scratch) {
  const unsigned chunks = pool.num_chunks(rows.size(), kHistogramGrain);
  if (chunks <= 1) {
    out.build(data, rows, gradients);
    return;
  }
  // Materialize the row-major view on the calling thread before workers
  // start reading it concurrently.
  data.ensure_row_major();
  // Partials are pool buffers and the scratch vector keeps its capacity
  // (previous entries are moved-from husks), so steady-state parallel
  // builds allocate nothing. Acquire/release happen on the calling thread
  // only (the pool free list is not thread-safe).
  std::vector<Histogram>& partials = partials_scratch;
  partials.clear();
  partials.reserve(chunks - 1);
  for (unsigned c = 1; c < chunks; ++c) partials.push_back(hist_pool.acquire());

  pool.parallel_for(0, rows.size(), kHistogramGrain,
                    [&](std::uint64_t b, std::uint64_t e, unsigned c) {
                      Histogram& h = c == 0 ? out : partials[c - 1];
                      h.build(data, rows.subspan(b, e - b), gradients);
                    });

  for (auto& p : partials) {
    out.add(p);
    hist_pool.release(std::move(p));
  }
}

void fill_split_sides(const SplitInfo& split, const BinnedDataset& data,
                      std::vector<std::uint8_t>& sides) {
  const std::uint32_t num_bins = data.field_bins(split.field).num_bins;
  sides.resize(num_bins);
  for (std::uint32_t bin = 0; bin < num_bins; ++bin) {
    sides[bin] = split_goes_left(split, static_cast<BinIndex>(bin)) ? 1 : 0;
  }
}

std::uint64_t partition_chunk(const std::uint32_t* src, std::uint64_t count,
                              const BinIndex* col, const std::uint8_t* sides,
                              std::uint32_t* tmp) {
  // After i rows, left + (count - right) == i, so both cursors stay inside
  // [0, count): each row is stored at both, and only the cursor on its
  // side advances (the other slot is overwritten later, or by the same row
  // when the cursors meet on the last one).
  std::uint64_t left = 0;
  std::uint64_t right = count;
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint32_t row = src[i];
    const std::uint64_t goes_left = sides[col[row]];
    tmp[left] = row;
    tmp[right - 1] = row;
    left += goes_left;
    right -= goes_left ^ 1;
  }
  return left;
}

void place_partitioned_chunk(const std::uint32_t* tmp, std::uint64_t count,
                             std::uint64_t lefts, std::uint32_t* left_dst,
                             std::uint32_t* right_dst) {
  std::copy(tmp, tmp + lefts, left_dst);
  // The rights were written backward from the chunk end.
  std::reverse_copy(tmp + lefts, tmp + count, right_dst);
}

void partition_to(std::span<const std::uint32_t> src,
                  std::span<std::uint32_t> dst, std::uint64_t begin,
                  std::uint64_t end, std::uint64_t n_left,
                  const BinnedDataset& data, const SplitInfo& split,
                  util::ThreadPool& pool,
                  std::span<std::uint64_t> chunk_counts,
                  std::span<std::uint32_t> scratch) {
  BOOSTER_CHECK(begin <= end && end <= src.size());
  BOOSTER_CHECK(dst.size() >= end);
  const std::uint64_t count = end - begin;
  BOOSTER_CHECK(n_left <= count);
  if (count == 0) return;

  const unsigned chunks = pool.num_chunks(count, kPartitionGrain);
  BOOSTER_CHECK(chunk_counts.size() > chunks);
  std::unique_ptr<std::uint32_t[]> owned;
  std::uint32_t* tmp = nullptr;
  if (scratch.empty()) {
    owned = std::make_unique_for_overwrite<std::uint32_t[]>(count);
    tmp = owned.get();
  } else {
    BOOSTER_CHECK(scratch.size() >= end);
    BOOSTER_CHECK_MSG(scratch.data() != src.data() &&
                          scratch.data() != dst.data(),
                      "partition scratch must not alias its source or "
                      "destination");
    tmp = scratch.data() + begin;
  }
  // The calling thread's table storage keeps its capacity, so warm
  // partitions allocate nothing. The chunks read it through `side_table`
  // (naming the thread_local there would give each worker its own).
  static thread_local std::vector<std::uint8_t> sides;
  fill_split_sides(split, data, sides);
  const std::uint8_t* side_table = sides.data();
  const BinIndex* col = data.column(split.field).data();

  // Pass 1: each chunk [b, e) of the span into tmp's matching range.
  pool.parallel_for(begin, end, kPartitionGrain,
                    [&](std::uint64_t b, std::uint64_t e, unsigned c) {
                      chunk_counts[c] =
                          partition_chunk(src.data() + b, e - b, col,
                                          side_table, tmp + (b - begin));
                    });

  // Exclusive prefix over the chunk counts -> each chunk's left write base;
  // chunk_counts[chunks] is the realized left total.
  std::uint64_t total_left = 0;
  for (unsigned c = 0; c < chunks; ++c) {
    const std::uint64_t chunk_left = chunk_counts[c];
    chunk_counts[c] = total_left;
    total_left += chunk_left;
  }
  chunk_counts[chunks] = total_left;
  BOOSTER_CHECK_MSG(total_left == n_left,
                    "partition disagrees with the split's bucket counts");

  // Pass 2: chunk c's lefts start at begin + left_prefix[c]; its rights
  // start after all lefts, offset by the rights that precede the chunk.
  // Chunks are placed in chunk order, so the partition is stable.
  pool.parallel_for(begin, end, kPartitionGrain,
                    [&](std::uint64_t b, std::uint64_t e, unsigned c) {
                      const std::uint64_t lefts_before = chunk_counts[c];
                      place_partitioned_chunk(
                          tmp + (b - begin), e - b,
                          chunk_counts[c + 1] - lefts_before,
                          dst.data() + begin + lefts_before,
                          dst.data() + begin + n_left + (b - begin) -
                              lefts_before);
                    });
}

std::uint64_t order_leaf_spans(std::span<LeafSpan> leaves, std::uint64_t rows) {
  // Per-shard spans may be empty (begin == end); ordering by (begin, end)
  // puts an empty span before the non-empty one sharing its begin.
  std::sort(leaves.begin(), leaves.end(),
            [](const LeafSpan& a, const LeafSpan& b) {
              return a.begin != b.begin ? a.begin < b.begin : a.end < b.end;
            });
  std::uint64_t next = 0;
  std::uint64_t hops = 0;
  for (const LeafSpan& leaf : leaves) {
    BOOSTER_CHECK_MSG(leaf.begin == next && leaf.end >= leaf.begin,
                      "leaf spans do not tile the arena");
    next = leaf.end;
    hops += static_cast<std::uint64_t>(leaf.depth) * (leaf.end - leaf.begin);
  }
  BOOSTER_CHECK_MSG(next == rows, "leaf spans do not tile the arena");
  return hops;
}

void scatter_leaf_deltas(std::span<const LeafSpan> leaves,
                         std::span<const std::uint32_t> arena,
                         std::uint64_t b, std::uint64_t e,
                         std::uint64_t row_base, std::span<float> delta) {
  // The leaves hold distinct rows, so e - b writes, each inside [b, e),
  // cover every row of the range exactly once. A span out of row order
  // breaks the binary search and fails one of the two.
  std::uint64_t written = 0;
  bool outside = false;
  for (const LeafSpan& leaf : leaves) {
    const auto span = arena.subspan(leaf.begin, leaf.end - leaf.begin);
    const auto lo = std::lower_bound(span.begin(), span.end(), b);
    const auto hi = std::lower_bound(lo, span.end(), e);
    const float d = leaf.delta;
    for (auto it = lo; it != hi; ++it) {
      outside |= *it - b >= e - b;
      delta[*it - row_base] = d;
    }
    written += static_cast<std::uint64_t>(hi - lo);
  }
  BOOSTER_CHECK_MSG(!outside && written == e - b,
                    "leaf spans do not ascend in row id");
}

}  // namespace booster::gbdt

#include "gbdt/hotpath.h"

#include <algorithm>
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

  pool.for_chunks(0, rows.size(), kHistogramGrain,
                  [&](std::uint64_t b, std::uint64_t e, unsigned c) {
                    Histogram& h = c == 0 ? out : partials[c - 1];
                    h.build(data, rows.subspan(b, e - b), gradients);
                  });

  for (auto& p : partials) {
    out.add(p);
    hist_pool.release(std::move(p));
  }
}

void partition_to(std::span<const std::uint32_t> src,
                  std::span<std::uint32_t> dst, std::uint64_t begin,
                  std::uint64_t end, std::uint64_t n_left,
                  const BinnedDataset& data, const SplitInfo& split,
                  util::ThreadPool& pool,
                  std::span<std::uint64_t> chunk_counts) {
  BOOSTER_CHECK(begin <= end && end <= src.size());
  BOOSTER_CHECK(dst.size() >= end);
  const std::uint64_t count = end - begin;
  BOOSTER_CHECK(n_left <= count);
  if (count == 0) return;
  const auto& col = data.column(split.field);

  const unsigned chunks = pool.num_chunks(count, kPartitionGrain);
  BOOSTER_CHECK(chunk_counts.size() >= chunks);

  if (chunks <= 1) {
    // Serial fast path: one fused pass with both sides written forward
    // (rights start at the position n_left fixes in advance).
    std::uint64_t left_w = begin;
    std::uint64_t right_w = begin + n_left;
    for (std::uint64_t i = begin; i < end; ++i) {
      const std::uint32_t row = src[i];
      if (split_goes_left(split, col[row])) {
        // A left overflow stays inside [begin, end) (it bleeds into the
        // right region) and is caught by the final check; a right overflow
        // would write past `end`, so it must be checked before the write.
        dst[left_w++] = row;
      } else {
        BOOSTER_CHECK_MSG(right_w < end,
                          "partition disagrees with the split's bucket counts");
        dst[right_w++] = row;
      }
    }
    BOOSTER_CHECK_MSG(left_w == begin + n_left && right_w == end,
                      "partition disagrees with the split's bucket counts");
    return;
  }

  // Pass 1: per-chunk left counts (the parallel path still needs per-chunk
  // prefix offsets, not just the total).
  pool.for_chunks(begin, end, kPartitionGrain,
                  [&](std::uint64_t b, std::uint64_t e, unsigned c) {
                    std::uint64_t chunk_left = 0;
                    for (std::uint64_t i = b; i < e; ++i) {
                      chunk_left += split_goes_left(split, col[src[i]]);
                    }
                    chunk_counts[c] = chunk_left;
                  });

  // Exclusive prefix over chunk counts -> each chunk's left write base.
  std::uint64_t total_left = 0;
  for (unsigned c = 0; c < chunks; ++c) {
    const std::uint64_t chunk_left = chunk_counts[c];
    chunk_counts[c] = total_left;
    total_left += chunk_left;
  }
  BOOSTER_CHECK_MSG(total_left == n_left,
                    "partition disagrees with the split's bucket counts");

  // Pass 2: scatter -- chunk c's lefts start at begin + left_prefix[c]; its
  // rights start after all lefts, offset by the rights that precede the
  // chunk. Chunk-local writes preserve order, so the partition is stable.
  pool.for_chunks(begin, end, kPartitionGrain,
                  [&](std::uint64_t b, std::uint64_t e, unsigned c) {
                    std::uint64_t left_w = begin + chunk_counts[c];
                    std::uint64_t right_w =
                        begin + total_left + (b - begin) - chunk_counts[c];
                    for (std::uint64_t i = b; i < e; ++i) {
                      const std::uint32_t row = src[i];
                      if (split_goes_left(split, col[row])) {
                        dst[left_w++] = row;
                      } else {
                        dst[right_w++] = row;
                      }
                    }
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
                         const std::vector<std::uint32_t> (&arenas)[2],
                         std::uint64_t b, std::uint64_t e,
                         std::uint64_t row_base, std::span<float> delta) {
  // First leaf ending after b; spans are in position order, so their ends
  // are non-decreasing.
  auto it = std::partition_point(
      leaves.begin(), leaves.end(),
      [b](const LeafSpan& leaf) { return leaf.end <= b; });
  for (; it != leaves.end() && it->begin < e; ++it) {
    const std::uint32_t* rows = arenas[it->buf].data();
    const float d = it->delta;
    const std::uint64_t end = std::min(it->end, e);
    for (std::uint64_t i = std::max(it->begin, b); i < end; ++i) {
      delta[rows[i] - row_base] = d;
    }
  }
}

}  // namespace booster::gbdt

// Parallel kernels of the training hot path (paper steps 1, 3 and 5),
// shared between Trainer, ShardGroup and the equivalence tests / benches:
//   * step 1: multi-threaded histogram build -- per-chunk partial
//     histograms drawn from a HistogramPool, reduced in chunk order (so the
//     result is deterministic for a fixed thread count);
//   * step 3: stable partition of a node's span of the row arena by a split
//     predicate, in place: a branch-free, table-driven pass writes each
//     chunk's rows into the matching range of a persistent scratch arena,
//     then ordered copies place both sides back into the node's span -- no
//     per-node row-vector allocations;
//   * step 5: each record's leaf is read off the leaf spans the partitions
//     left in the arena, instead of re-traversing the tree just grown.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "gbdt/binning.h"
#include "gbdt/histogram.h"
#include "gbdt/split.h"
#include "util/thread_pool.h"

namespace booster::gbdt {

/// Minimum rows per chunk before the kernels go parallel; below this the
/// fork/join overhead dominates the work.
inline constexpr std::uint64_t kHistogramGrain = 1024;
inline constexpr std::uint64_t kPartitionGrain = 4096;

/// Accumulates the gradient statistics of `rows` into `out` using up to
/// pool.num_threads() chunks. Chunk 0 builds directly into `out`; the other
/// chunks build into partial histograms acquired from `hist_pool` and are
/// added back in chunk order, then released. With one chunk this is exactly
/// Histogram::build. `partials_scratch` is caller-persistent storage for
/// the per-chunk partials (cleared and refilled here; its capacity and the
/// pooled buffers make repeated parallel builds allocation-free).
void build_histogram_parallel(Histogram& out, const BinnedDataset& data,
                              std::span<const std::uint32_t> rows,
                              std::span<const GradientPair> gradients,
                              util::ThreadPool& pool,
                              HistogramPool& hist_pool,
                              std::vector<Histogram>& partials_scratch);

/// Routing decision of one split predicate for a record's bin -- the same
/// routes_left rule Tree::goes_left applies during traversal.
inline bool split_goes_left(const SplitInfo& split, BinIndex bin) {
  return routes_left(split.kind, split.threshold_bin, split.default_left, bin);
}

/// Fills the step-3 side table of `split`: sides[bin] = 1 when a record
/// whose split.field holds `bin` routes left, else 0, for every bin of the
/// field. The table is built from split_goes_left, so the predicate keeps
/// its single definition; the partition kernel looks sides up instead of
/// branching on the predicate. Reuses the vector's capacity.
void fill_split_sides(const SplitInfo& split, const BinnedDataset& data,
                      std::vector<std::uint8_t>& sides);

/// Pass 1 of the step-3 kernel for one chunk of rows src[0, count): writes
/// every row, branch-free, into tmp[0, count) -- rows routed left forward
/// from tmp[0], rows routed right backward from tmp[count - 1] -- and
/// returns the number routed left. `col` is the split field's bin column
/// and `sides` its fill_split_sides table. Every write stays inside
/// tmp[0, count); tmp must not overlap src.
std::uint64_t partition_chunk(const std::uint32_t* src, std::uint64_t count,
                              const BinIndex* col, const std::uint8_t* sides,
                              std::uint32_t* tmp);

/// Pass 2 for one chunk that partition_chunk wrote into tmp[0, count) with
/// `lefts` rows routed left: copies the lefts to left_dst and the rights to
/// right_dst, both in their input order. Neither destination may overlap
/// tmp.
void place_partitioned_chunk(const std::uint32_t* tmp, std::uint64_t count,
                             std::uint64_t lefts, std::uint32_t* left_dst,
                             std::uint32_t* right_dst);

/// Stable partition of src[begin, end) by `split` into dst[begin, end):
/// rows routed left end up in dst[begin, begin + n_left) and rows routed
/// right in dst[begin + n_left, end), each preserving their relative order
/// (so results are identical to the scalar two-vector reference regardless
/// of thread count). dst may alias src: the trainers partition each node in
/// place inside its own span of their row arena.
///
/// The kernel runs in two passes over up to pool.num_threads() chunks of
/// [begin, end): pass 1 (partition_chunk) writes each chunk into its own
/// range of `scratch`; an exclusive prefix of the per-chunk left counts
/// then gives every chunk its write bases, and pass 2
/// (place_partitioned_chunk) copies both sides into dst. `n_left` is the
/// exact left-row count, which the caller already has for free: it is the
/// split's left-bucket histogram count (counts are exact integers in a
/// double, see BinStats::count_u64). The function aborts if the realized
/// partition disagrees with n_left -- checked between the passes, before
/// anything outside the scratch is written.
///
/// dst needs size >= end; `chunk_counts` needs pool.num_threads() + 1
/// entries. `scratch` needs size >= end (positions [begin, end) are used)
/// and must overlap neither src nor dst; when it is empty an uninitialised
/// buffer of end - begin rows is allocated for the call.
void partition_to(std::span<const std::uint32_t> src,
                  std::span<std::uint32_t> dst, std::uint64_t begin,
                  std::uint64_t end, std::uint64_t n_left,
                  const BinnedDataset& data, const SplitInfo& split,
                  util::ThreadPool& pool,
                  std::span<std::uint64_t> chunk_counts,
                  std::span<std::uint32_t> scratch = {});

/// One leaf of the tree being grown, where its records sit once the tree
/// is complete: positions [begin, end) of the row arena. A leaf's span is
/// never overwritten later in the same tree -- later partitions write only
/// inside the spans of nodes that are not leaves, which are disjoint from
/// every leaf's -- and the leaf spans of one tree tile the arena positions
/// [0, rows) exactly, because every split divides its parent's span into
/// two adjacent child spans.
struct LeafSpan {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  /// static_cast<float>(leaf weight): the value the blocked traversal adds
  /// to the record's float prediction.
  float delta = 0.0f;
  std::int32_t tree_node = 0;
  std::int32_t depth = 0;
};

/// Sorts `leaves` into position order, checks that they tile [0, rows)
/// exactly, and returns the step-5 record hops sum(depth x span rows) --
/// the same integer the traversal of the tree over those rows counts.
std::uint64_t order_leaf_spans(std::span<LeafSpan> leaves, std::uint64_t rows);

/// Writes each leaf's delta to its records for arena positions [b, e):
/// delta[arena[i] - row_base] = leaf.delta. `leaves` must be in position
/// order (order_leaf_spans). Every record is written exactly once, so
/// disjoint [b, e) ranges may run concurrently.
void scatter_leaf_deltas(std::span<const LeafSpan> leaves,
                         std::span<const std::uint32_t> arena,
                         std::uint64_t b, std::uint64_t e,
                         std::uint64_t row_base, std::span<float> delta);

}  // namespace booster::gbdt

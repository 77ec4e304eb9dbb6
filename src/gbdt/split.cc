#include "gbdt/split.h"

#include <algorithm>
#include <vector>

#include "util/check.h"
#include "util/simd.h"
#include "util/thread_pool.h"

namespace booster::gbdt {

double leaf_weight(const BinStats& totals, double lambda) {
  return -totals.g / (totals.h + lambda);
}

double bucket_score(const BinStats& totals, double lambda) {
  return totals.g * totals.g / (totals.h + lambda);
}

void SplitFinder::consider(std::uint32_t field, PredicateKind kind,
                           std::uint16_t threshold_bin,
                           const BinStats& left_no_missing,
                           const BinStats& missing, const BinStats& totals,
                           std::optional<SplitInfo>& best) const {
  const double parent_score = bucket_score(totals, cfg_.lambda);
  for (const bool missing_left : {false, true}) {
    BinStats left = left_no_missing;
    if (missing_left) left += missing;
    BinStats right = totals;
    right -= left;
    if (left.h < cfg_.min_child_weight || right.h < cfg_.min_child_weight) {
      continue;
    }
    if (left.count <= 0.0 || right.count <= 0.0) continue;
    const double gain = 0.5 * (bucket_score(left, cfg_.lambda) +
                               bucket_score(right, cfg_.lambda) - parent_score) -
                        cfg_.gamma;
    if (gain < cfg_.min_split_gain) continue;
    if (!best || gain > best->gain) {
      SplitInfo info;
      info.field = field;
      info.kind = kind;
      info.threshold_bin = threshold_bin;
      info.default_left = missing_left;
      info.gain = gain;
      info.left = left;
      info.right = right;
      best = info;
    }
  }
}

void SplitFinder::scan_numeric(std::uint32_t field,
                               std::span<const BinStats> bins,
                               const BinStats& totals,
                               std::optional<SplitInfo>& best) const {
  // bins[0] is the missing bin; value bins are 1..k. The split point starts
  // left of all bins and moves right one bin at a time, accumulating the
  // left bucket (paper Fig 3). The last boundary (everything left) is not a
  // split, so we stop one bin early.
  // The left-bucket accumulation runs through the SIMD prefix-sum kernel
  // over the value bins' {count, g, h, pad} lanes (a BinStats is exactly
  // four contiguous doubles), into a per-thread scratch that warms up once
  // and then recycles. Every level adds the lanes in bin order, as this
  // loop's serial replay in scan_bin_range does, so the prefixes -- and
  // therefore every candidate gain -- are bit-identical at every dispatch
  // level.
  static_assert(sizeof(BinStats) == 4 * sizeof(double),
                "prefix_sum4 streams BinStats as raw 4-double lanes");
  const BinStats& missing = bins[0];
  if (bins.size() < 3) return;  // no candidate boundary
  const std::size_t candidates = bins.size() - 2;
  static thread_local std::vector<BinStats> prefix;
  if (prefix.size() < candidates) prefix.resize(candidates);
  util::simd::kernels().prefix_sum4(
      reinterpret_cast<const double*>(bins.data() + 1), candidates,
      reinterpret_cast<double*>(prefix.data()));
  for (std::size_t b = 1; b + 1 < bins.size(); ++b) {
    consider(field, PredicateKind::kNumericLE, static_cast<std::uint16_t>(b),
             prefix[b - 1], missing, totals, best);
  }
}

void SplitFinder::scan_categorical(std::uint32_t field,
                                   std::span<const BinStats> bins,
                                   const BinStats& totals,
                                   std::optional<SplitInfo>& best) const {
  // One-hot semantics: each category c yields the predicate "category == c".
  // The left bucket is exactly the category's "yes" bin; the "no" side is
  // reconstructed as totals - yes (- missing, handled by consider()).
  const BinStats& missing = bins[0];
  for (std::size_t b = 1; b < bins.size(); ++b) {
    consider(field, PredicateKind::kCategoryEqual,
             static_cast<std::uint16_t>(b), bins[b], missing, totals, best);
  }
}

void SplitFinder::scan_fields(const Histogram& hist, const BinnedDataset& data,
                              const BinStats& totals,
                              std::optional<SplitInfo>& best,
                              std::uint64_t& scanned) const {
  for (std::uint32_t f = 0; f < hist.num_fields(); ++f) {
    const auto bins = hist.field(f);
    if (bins.size() <= 1) continue;
    if (data.field_bins(f).kind == FieldKind::kNumeric) {
      scan_numeric(f, bins, totals, best);
    } else {
      scan_categorical(f, bins, totals, best);
    }
    scanned += bins.size();
  }
}

void SplitFinder::scan_bin_range(const Histogram& hist,
                                 const BinnedDataset& data,
                                 const BinStats& totals, std::uint64_t begin,
                                 std::uint64_t end,
                                 std::optional<SplitInfo>& best,
                                 std::uint64_t& scanned) const {
  std::uint64_t field_offset = 0;
  for (std::uint32_t f = 0; f < hist.num_fields(); ++f) {
    const auto bins = hist.field(f);
    const std::uint64_t field_begin = field_offset;
    const std::uint64_t field_end = field_begin + bins.size();
    field_offset = field_end;
    if (field_end <= begin) continue;
    if (field_begin >= end) break;  // fields are laid out in order
    if (bins.size() <= 1) continue;
    // Local bin range [lo, hi) of this field covered by the chunk.
    const std::size_t lo = std::max(begin, field_begin) - field_begin;
    const std::size_t hi = std::min(end, field_end) - field_begin;
    scanned += hi - lo;

    const BinStats& missing = bins[0];
    if (data.field_bins(f).kind == FieldKind::kNumeric) {
      // Serial candidates are b in [1, size-1) with left = sum bins[1..b].
      // Replay the prefix up to the chunk's first candidate with the exact
      // additions the serial scan performs, then continue in place.
      const std::size_t first = std::max<std::size_t>(lo, 1);
      BinStats left;
      for (std::size_t b = 1; b < first; ++b) left += bins[b];
      for (std::size_t b = first; b < hi && b + 1 < bins.size(); ++b) {
        left += bins[b];
        consider(f, PredicateKind::kNumericLE, static_cast<std::uint16_t>(b),
                 left, missing, totals, best);
      }
    } else {
      // Categorical candidates are independent: b in [1, size).
      for (std::size_t b = std::max<std::size_t>(lo, 1); b < hi; ++b) {
        consider(f, PredicateKind::kCategoryEqual,
                 static_cast<std::uint16_t>(b), bins[b], missing, totals,
                 best);
      }
    }
  }
}

std::optional<SplitInfo> SplitFinder::find_best(
    const Histogram& hist, const BinnedDataset& data,
    std::uint64_t* bins_scanned) const {
  return find_best(hist, data, /*pool=*/nullptr, bins_scanned);
}

std::optional<SplitInfo> SplitFinder::find_best(
    const Histogram& hist, const BinnedDataset& data, util::ThreadPool* pool,
    std::uint64_t* bins_scanned) const {
  const BinStats totals = hist.totals();
  const std::uint64_t total_bins = hist.total_bins();
  // Threaded scans chunk the global bin index space, so chunks stay
  // balanced whatever the fields' bin counts (one huge categorical field,
  // or only 2-3 fields, would leave field chunks idle).
  const unsigned chunks =
      pool != nullptr ? pool->num_chunks(total_bins, kSplitScanBinGrain) : 1;
  if (chunks <= 1) {
    std::optional<SplitInfo> best;
    std::uint64_t scanned = 0;
    scan_fields(hist, data, totals, best, scanned);
    if (bins_scanned != nullptr) *bins_scanned = scanned;
    return best;
  }

  // Per-chunk results live in the calling thread's storage, which keeps its
  // capacity (chunks never exceed the pool's thread count), so warm
  // threaded scans allocate nothing. The workers reach it through these
  // references -- naming a thread_local inside the chunk body would give
  // each worker its own. Each chunk keeps its running best in a local and
  // stores it once: the entries share cache lines, and a store per
  // improvement made the chunks contend for them.
  static thread_local std::vector<std::optional<SplitInfo>> best_storage;
  static thread_local std::vector<std::uint64_t> scanned_storage;
  std::vector<std::optional<SplitInfo>>& chunk_best = best_storage;
  std::vector<std::uint64_t>& chunk_scanned = scanned_storage;
  chunk_best.resize(chunks);
  chunk_scanned.resize(chunks);
  pool->parallel_for(0, total_bins, kSplitScanBinGrain,
                     [&](std::uint64_t begin, std::uint64_t end, unsigned c) {
                       std::optional<SplitInfo> best;
                       std::uint64_t scanned = 0;
                       scan_bin_range(hist, data, totals, begin, end, best,
                                      scanned);
                       chunk_best[c] = best;
                       chunk_scanned[c] = scanned;
                     });

  // Merge in chunk order with strict > : keeps the earliest maximum, which
  // is exactly the serial scan's tie-breaking (bins scan in order within
  // each chunk, and chunks cover them in order).
  std::optional<SplitInfo> best;
  std::uint64_t scanned = 0;
  for (unsigned c = 0; c < chunks; ++c) {
    scanned += chunk_scanned[c];
    if (chunk_best[c] && (!best || chunk_best[c]->gain > best->gain)) {
      best = chunk_best[c];
    }
  }
  if (bins_scanned != nullptr) *bins_scanned = scanned;
  return best;
}

}  // namespace booster::gbdt

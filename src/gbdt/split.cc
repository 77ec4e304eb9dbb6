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
  // over the value bins' {count, g, h} triples (a BinStats is exactly three
  // contiguous doubles), into a per-thread scratch that warms up once and
  // then recycles. Wide kernel levels may reassociate the additions, but
  // every operand is exact on the quantized grid, so the prefixes -- and
  // therefore every candidate gain -- are bit-identical to this loop's
  // serial replay in scan_bin_range at every dispatch level.
  static_assert(sizeof(BinStats) == 3 * sizeof(double),
                "prefix_sum3 streams BinStats as raw double triples");
  const BinStats& missing = bins[0];
  if (bins.size() < 3) return;  // no candidate boundary
  const std::size_t candidates = bins.size() - 2;
  static thread_local std::vector<BinStats> prefix;
  if (prefix.size() < candidates) prefix.resize(candidates);
  util::simd::kernels().prefix_sum3(
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
                              const BinStats& totals, std::uint32_t begin,
                              std::uint32_t end,
                              std::optional<SplitInfo>& best,
                              std::uint64_t& scanned) const {
  for (std::uint32_t f = begin; f < end; ++f) {
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
  const std::uint32_t num_fields = hist.num_fields();
  const BinStats totals = hist.totals();
  unsigned chunks =
      pool != nullptr ? pool->num_chunks(num_fields, kSplitScanGrain) : 1;

  // Field chunks are balanced only when no single field dwarfs a fair
  // per-thread share of the bins; one dominating categorical field
  // (ROADMAP "chunk by bins") would serialize the scan into its chunk --
  // or, with only 2-3 fields, prevent field-parallelism entirely. Switch
  // to bin-granular chunks in that case (checked before the field-chunk
  // fallback so few-field/huge-field histograms still parallelize). Both
  // paths are serial-identical, so which one runs never changes the
  // result.
  bool by_bins = false;
  std::uint64_t total_bins = 0;
  if (pool != nullptr) {
    total_bins = hist.total_bins();
    std::uint64_t max_field_bins = 0;
    for (std::uint32_t f = 0; f < num_fields; ++f) {
      max_field_bins = std::max<std::uint64_t>(max_field_bins,
                                               hist.field(f).size());
    }
    const unsigned threads = std::max(1u, pool->num_threads());
    const unsigned bin_chunks =
        pool->num_chunks(total_bins, kSplitScanBinGrain);
    const bool dominated = max_field_bins > 2 * total_bins / threads;
    if (dominated && bin_chunks > 1) {
      by_bins = true;
      chunks = bin_chunks;
    }
  }

  if (chunks <= 1) {
    std::optional<SplitInfo> best;
    std::uint64_t scanned = 0;
    scan_fields(hist, data, totals, 0, num_fields, best, scanned);
    if (bins_scanned != nullptr) *bins_scanned = scanned;
    return best;
  }

  // Per-chunk results live in the calling thread's storage, which keeps its
  // capacity (chunks never exceed the pool's thread count), so warm
  // threaded scans allocate nothing. The workers reach it through these
  // references -- naming a thread_local inside the chunk body would give
  // each worker its own.
  static thread_local std::vector<std::optional<SplitInfo>> best_storage;
  static thread_local std::vector<std::uint64_t> scanned_storage;
  std::vector<std::optional<SplitInfo>>& chunk_best = best_storage;
  std::vector<std::uint64_t>& chunk_scanned = scanned_storage;
  chunk_best.assign(chunks, std::nullopt);
  chunk_scanned.assign(chunks, 0);
  if (by_bins) {
    pool->parallel_for(0, total_bins, kSplitScanBinGrain,
                       [&](std::uint64_t begin, std::uint64_t end,
                           unsigned c) {
                         scan_bin_range(hist, data, totals, begin, end,
                                        chunk_best[c], chunk_scanned[c]);
                       });
  } else {
    pool->parallel_for(
        0, num_fields, kSplitScanGrain,
        [&](std::uint64_t begin, std::uint64_t end, unsigned c) {
          scan_fields(hist, data, totals, static_cast<std::uint32_t>(begin),
                      static_cast<std::uint32_t>(end), chunk_best[c],
                      chunk_scanned[c]);
        });
  }

  // Merge in chunk order with strict > : keeps the earliest maximum, which
  // is exactly the serial scan's tie-breaking (fields -- or bins -- scan
  // in order within each chunk, and chunks cover them in order).
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

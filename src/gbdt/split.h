// Split selection (paper step 2): scans every bin of every field of a node
// histogram as a candidate split point, evaluating the XGBoost gain
//
//   gain = 1/2 [ GL^2/(HL+lambda) + GR^2/(HR+lambda) - G^2/(H+lambda) ] - gamma
//
// Numeric fields are scanned left-to-right with cumulative left/right
// buckets (paper Fig 3); categorical fields evaluate one-hot predicates
// ("category == c" vs rest) using only the per-category "yes" sums with the
// complement reconstructed by subtraction. Records with missing values are
// tried in both the left and right subtree and the better option is kept
// (the learned default direction).
#pragma once

#include <cstdint>
#include <optional>

#include "gbdt/histogram.h"

namespace booster::util {
class ThreadPool;
}

namespace booster::gbdt {

/// Minimum bins per chunk of the threaded split scan, which chunks the
/// histogram's global bin index space (see SplitFinder::find_best).
inline constexpr std::uint64_t kSplitScanBinGrain = 128;

struct SplitConfig {
  double lambda = 1.0;           // L2 weight regularization
  double gamma = 0.0;            // per-leaf complexity penalty
  double min_child_weight = 1.0; // minimum sum of h per child
  double min_split_gain = 1e-6;  // numerical floor on accepted gains
};

/// How a node predicate routes records.
enum class PredicateKind : std::uint8_t {
  kNumericLE,     // go left if bin <= threshold_bin (value <= upper bound)
  kCategoryEqual, // go left if category bin == threshold_bin
};

struct SplitInfo {
  std::uint32_t field = 0;
  PredicateKind kind = PredicateKind::kNumericLE;
  /// Numeric: the highest value-bin index routed left.
  /// Categorical: the matching category bin index.
  std::uint16_t threshold_bin = 0;
  /// Where missing-value (bin 0) records go.
  bool default_left = false;
  double gain = 0.0;
  /// Gradient totals of the left child (right = node totals - left).
  BinStats left;
  BinStats right;
};

/// The routing rule every consumer of a split predicate must agree on:
/// bin 0 (missing) follows the learned default; numeric predicates route
/// left when bin <= threshold; categorical when bin == threshold. Shared
/// by step-3 partitioning (hotpath.h) and step-5 traversal
/// (Tree::goes_left) so the two can never drift apart.
inline bool routes_left(PredicateKind kind, std::uint16_t threshold_bin,
                        bool default_left, BinIndex bin) {
  if (bin == 0) return default_left;  // missing value: learned default
  return kind == PredicateKind::kNumericLE ? bin <= threshold_bin
                                           : bin == threshold_bin;
}

/// Leaf weight for totals (G, H): w* = -G / (H + lambda).
double leaf_weight(const BinStats& totals, double lambda);

/// Structure score contribution of one bucket: G^2 / (H + lambda).
double bucket_score(const BinStats& totals, double lambda);

class SplitFinder {
 public:
  explicit SplitFinder(SplitConfig cfg = {}) : cfg_(cfg) {}

  const SplitConfig& config() const { return cfg_; }

  /// Scans all bins of all fields; returns the best admissible split or
  /// nullopt if no split improves the objective by more than gamma.
  /// `bins_scanned` (optional) receives the number of candidate bins
  /// evaluated -- the quantity step 2's host cost is proportional to.
  std::optional<SplitInfo> find_best(const Histogram& hist,
                                     const BinnedDataset& data,
                                     std::uint64_t* bins_scanned = nullptr) const;

  /// Threaded variant: the scan runs in parallel chunks over `pool`
  /// (nullptr, a 1-thread pool or a histogram under two chunks' worth of
  /// bins falls back to the serial scan). Chunks cover contiguous ranges of
  /// the global bin index space, so they stay balanced whatever the
  /// fields' bin counts; a chunk entering a numeric field mid-way first
  /// replays the field's left-prefix accumulation up to its start bin --
  /// the same additions in the same order, so candidate gains stay
  /// bit-identical to the serial scan. Per-chunk bests merge in chunk
  /// order keeping the first maximum -- the serial first-max-wins
  /// tie-breaking -- so the result equals the serial scan's at every
  /// thread count.
  std::optional<SplitInfo> find_best(const Histogram& hist,
                                     const BinnedDataset& data,
                                     util::ThreadPool* pool,
                                     std::uint64_t* bins_scanned = nullptr) const;

 private:
  /// Serial scan of every field, in field order.
  void scan_fields(const Histogram& hist, const BinnedDataset& data,
                   const BinStats& totals, std::optional<SplitInfo>& best,
                   std::uint64_t& scanned) const;

  /// Serial scan of the global bin index range [begin, end) -- the
  /// per-chunk body of the bin-granular scan. Fields overlapping the range
  /// are visited in field order; numeric fields entered mid-way replay
  /// their left-prefix first (see find_best). `scanned` counts the covered
  /// bins of fields with more than one bin, so per-chunk counts sum to the
  /// serial scan's total.
  void scan_bin_range(const Histogram& hist, const BinnedDataset& data,
                      const BinStats& totals, std::uint64_t begin,
                      std::uint64_t end, std::optional<SplitInfo>& best,
                      std::uint64_t& scanned) const;

  void scan_numeric(std::uint32_t field, std::span<const BinStats> bins,
                    const BinStats& totals, std::optional<SplitInfo>& best) const;
  void scan_categorical(std::uint32_t field, std::span<const BinStats> bins,
                        const BinStats& totals,
                        std::optional<SplitInfo>& best) const;

  /// Evaluates one candidate (left bucket vs totals-left) with the missing
  /// bin tried on both sides; updates `best` if admissible and better.
  void consider(std::uint32_t field, PredicateKind kind,
                std::uint16_t threshold_bin, const BinStats& left_no_missing,
                const BinStats& missing, const BinStats& totals,
                std::optional<SplitInfo>& best) const;

  SplitConfig cfg_;
};

}  // namespace booster::gbdt

// Gradient-statistics histograms (paper step 1). One histogram holds, for
// every field, a per-bin accumulator of {count, G, H}. Supports the two key
// optimizations the paper bakes into its baseline:
//   * one-hot "yes-only" counting: categorical bins are per-category; the
//     complement ("no") sums are reconstructed from the node totals;
//   * smaller-child subtraction: parent - child computed bin-wise.
//
// Storage is a single flat BinStats buffer with per-field offsets (not a
// vector of per-field vectors): one allocation per histogram, contiguous
// subtraction/reduction, and O(1) bin addressing as offsets[f] + bin. The
// hot build path is a single row-major pass over BinnedDataset's packed
// row-major bin matrix -- each record touches its F bin bytes contiguously
// instead of being gathered once per field.
//
// Bin layout: every bin is one 32-byte, 32-byte-aligned lane of four
// doubles {count, g, h, pad}, with pad always +0.0. Booster updates a bin
// with one read-modify-write of the whole bin entry in its SRAM; the
// software form of that access is one aligned 256-bit load-add-store of
// the lane {1, qg, qh, 0} per record-field (util::simd's scatter_bins), in
// place of three scalar read-modify-writes. The pad lane costs a third
// more bytes per histogram and buys the single access. Every histogram op
// (build, add, subtract, clear, the split scan's prefix) treats the four
// doubles uniformly, so pad stays +0.0 by construction (0 + 0 and 0 - 0
// are +0.0); the ipc codec writes count, g and h by name and never puts
// the pad on the wire.
//
// Accumulation is *exactly* order-insensitive: every gradient contribution
// is snapped to a fixed power-of-two quantum before it enters a bin (see
// quantize_stat), so bin values are always integer multiples of the quantum
// and IEEE addition/subtraction of them is exact -- associative and
// commutative, like the integer counts. Chunked parallel builds, sibling
// subtraction, and per-shard histogram merges (Histogram::add on rank 0 of
// gbdt::DistributedTrainer) therefore produce bit-identical bins for *any*
// chunking, shard split, and merge order. Distributed-histogram GBDT only
// works if the merge operator has exactly this property.
#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "gbdt/binning.h"
#include "gbdt/loss.h"
#include "util/aligned.h"
#include "util/check.h"

namespace booster::gbdt {

/// Gradient-statistic quantum: every per-record g/h contribution is rounded
/// to the nearest multiple of 2^-24 before accumulation. Multiples of a
/// power-of-two quantum are closed under IEEE +/- while the running sum
/// stays below 2^53 * quantum = 2^29 in magnitude (kStatSumCapacity), and
/// within that range every such addition is *exact* -- so histogram sums
/// are independent of accumulation order, bit for bit. The rounding error
/// per record is <= 2^-25 (~3e-8), far below the fp32 gradient noise.
///
/// The capacity bound is *enforced*, not just documented: totals() aborts
/// when a node's |G| or H leaves the exact range (H is a sum of
/// non-negative h, so the node total bounds every bin and every prefix sum
/// of h; G can cancel across bins, so its check is necessary-but-not-
/// sufficient -- a workload that trips either check needs gradient
/// normalization or a larger quantum, not silent last-ULP divergence).
/// At 2^29 capacity even the 50M-record nominal workloads keep an order
/// of magnitude of headroom for |g| <= 1-style losses.
inline constexpr double kStatQuantum = 5.9604644775390625e-08;   // 2^-24
inline constexpr double kStatInvQuantum = 16777216.0;            // 2^24
inline constexpr double kStatSumCapacity = 536870912.0;          // 2^29

/// Snaps a gradient statistic (or any accumulated metric term, e.g. the
/// per-record training loss) to the quantum grid. Idempotent: a quantized
/// value round-trips unchanged, so double-quantizing is harmless. Uses the
/// default round-to-nearest mode; deterministic across call sites.
inline double quantize_stat(double x) {
  return std::nearbyint(x * kStatInvQuantum) * kStatQuantum;
}

/// One histogram bin: record count plus summed gradient statistics, padded
/// to one 32-byte lane (see the bin layout above). The g/h fields only
/// ever hold multiples of kStatQuantum (see above), which is what makes
/// every merge/subtract below exact.
struct alignas(32) BinStats {
  double count = 0.0;
  double g = 0.0;
  double h = 0.0;
  /// Always +0.0: fills the lane so a bin update is one vector access.
  double pad = 0.0;

  void add(const GradientPair& gp) {
    count += 1.0;
    g += quantize_stat(gp.g);
    h += quantize_stat(gp.h);
  }
  BinStats& operator+=(const BinStats& o) {
    count += o.count;
    g += o.g;
    h += o.h;
    return *this;
  }
  BinStats& operator-=(const BinStats& o) {
    count -= o.count;
    g -= o.g;
    h -= o.h;
    return *this;
  }

  /// Record count as an integer. Counts are exact in a double up to 2^53
  /// (each update adds 1.0; subtraction of integer-valued doubles is
  /// exact), so anything non-integral or negative is a logic error --
  /// checked here instead of silently narrowed at the call sites.
  std::uint64_t count_u64() const {
    BOOSTER_CHECK_MSG(count >= 0.0 && count <= 9007199254740992.0 &&
                          count == std::floor(count),
                      "BinStats.count is not an exact non-negative integer");
    return static_cast<std::uint64_t>(count);
  }
};

/// Histogram over all fields of a binned dataset for one tree node.
class Histogram {
 public:
  Histogram() = default;

  /// Allocates zeroed bins shaped like `data`'s fields.
  explicit Histogram(const BinnedDataset& data);

  /// Allocates zeroed bins with an explicit per-field bin count -- the
  /// shape-only constructor ipc::HistogramCodec decodes into (the wire
  /// carries the shape, not the dataset).
  explicit Histogram(std::span<const std::uint32_t> bins_per_field);

  /// Accumulates the gradient statistics of the records in `rows` with one
  /// row-major pass: per record, the F bin indices are read contiguously
  /// from the dataset's packed row-major matrix. This is the exact work
  /// step 1 performs (one bin update per field per record), in the memory
  /// order the paper's row-major layout prescribes, each update one
  /// read-modify-write of the bin's lane. `gradients` starts at row
  /// `row_base` (every row in `rows` is >= row_base), so a holder of a
  /// contiguous row range indexes its own pairs from its first row.
  void build(const BinnedDataset& data, std::span<const std::uint32_t> rows,
             std::span<const GradientPair> gradients,
             std::uint32_t row_base = 0);

  /// The seed's column-major gather kernel: one full pass over `rows` per
  /// field, reading the per-field columns. It accumulates in a different
  /// order than build(), but quantized accumulation is exact, so the two
  /// kernels produce bit-identical bins. Kept as the scalar reference for
  /// equivalence tests and as the baseline leg of bench_train_hotpath.
  void build_reference(const BinnedDataset& data,
                       std::span<const std::uint32_t> rows,
                       std::span<const GradientPair> gradients);

  /// Sets *this = parent - sibling (the smaller-child trick, paper §II-A).
  void subtract_from(const Histogram& parent, const Histogram& sibling);

  /// In-place smaller-child subtraction: *this -= sibling. Lets the parent
  /// histogram's buffer be reused as the larger child's without a copy.
  void subtract(const Histogram& sibling);

  /// Bin-wise accumulation: *this += other. The reduction step of the
  /// parallel build (per-thread partial histograms summed in chunk order)
  /// and the per-shard merge operator of the training engine. Exact and
  /// order-insensitive: bins hold quantum multiples (see quantize_stat).
  void add(const Histogram& other);

  void clear();

  std::uint32_t num_fields() const {
    return offsets_.empty()
               ? 0
               : static_cast<std::uint32_t>(offsets_.size() - 1);
  }
  std::span<const BinStats> field(std::uint32_t f) const {
    return {bins_.data() + offsets_[f], offsets_[f + 1] - offsets_[f]};
  }
  std::span<BinStats> mutable_field(std::uint32_t f) {
    return {bins_.data() + offsets_[f], offsets_[f + 1] - offsets_[f]};
  }

  bool same_shape(const Histogram& o) const { return offsets_ == o.offsets_; }

  /// Node totals (count/G/H over all records), taken from field 0 -- every
  /// record contributes exactly one bin per field, so any field's bin sum
  /// equals the node totals. This invariant is property-tested.
  BinStats totals() const;

  std::uint64_t total_bins() const { return bins_.size(); }

  /// True when the flat buffer starts on an `alignment`-byte boundary.
  /// The 64-byte-aligned allocator below guarantees this for every
  /// histogram; HistogramPool::acquire asserts it so the SIMD kernels'
  /// aligned-start assumption can never silently rot.
  bool aligned_to(std::size_t alignment) const {
    return reinterpret_cast<std::uintptr_t>(bins_.data()) % alignment == 0;
  }

  /// 64-byte-aligned flat buffer: the SIMD add/subtract/clear kernels
  /// stream bins_ as one contiguous double array (4 per bin), a
  /// cacheline-aligned start keeps the widest (AVX-512) accesses from
  /// straddling lines, and every bin lane lands on a 32-byte boundary for
  /// the build's aligned lane updates.
  using Buffer = std::vector<BinStats, util::AlignedAllocator<BinStats, 64>>;

 private:
  /// Flat per-bin stats; field f occupies [offsets_[f], offsets_[f+1]).
  Buffer bins_;
  /// Field start offsets into bins_, plus a final total-bins sentinel
  /// (size num_fields + 1; empty for a default-constructed histogram).
  std::vector<std::uint32_t> offsets_;
};

/// Recycles node histograms across the tree frontier and across trees so
/// steady-state training performs zero histogram allocations: acquire()
/// pops a cleared buffer from the free list (allocating only when the list
/// is empty -- counted), release() returns a buffer for reuse.
class HistogramPool {
 public:
  HistogramPool() = default;
  explicit HistogramPool(const BinnedDataset& data) { configure(data); }

  /// Sets the shape histograms are created with; drops pooled buffers of
  /// any previous shape.
  void configure(const BinnedDataset& data);

  /// A cleared histogram of the configured shape.
  Histogram acquire();

  /// A histogram of the configured shape whose bins hold whatever the
  /// buffer's last user left (pad lanes still +0.0), for callers that
  /// overwrite every bin before reading one: a swap target, a decode
  /// destination. Saves the clear acquire() would spend on it.
  Histogram take();

  /// Returns a histogram's buffer to the free list. Shape must match.
  void release(Histogram&& h);

  /// Fresh buffer constructions (pool misses). Flat after warm-up: the
  /// steady-state-allocation-free property is asserted on this counter.
  std::uint64_t allocations() const { return allocations_; }
  /// Total acquire() calls (one per node histogram ever requested).
  std::uint64_t acquires() const { return acquires_; }
  std::size_t available() const { return free_.size(); }

 private:
  Histogram proto_;  // zeroed template of the configured shape
  std::vector<Histogram> free_;
  std::uint64_t allocations_ = 0;
  std::uint64_t acquires_ = 0;
};

}  // namespace booster::gbdt

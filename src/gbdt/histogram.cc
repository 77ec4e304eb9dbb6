#include "gbdt/histogram.h"

#include <algorithm>
#include <type_traits>
#include <utility>

#include "util/check.h"
#include "util/simd.h"

namespace booster::gbdt {

namespace {

// The SIMD kernels stream BinStats buffers as raw double arrays of 4-double
// lanes {count, g, h, pad}: exactly the four members, no padding beyond the
// pad member, each lane on a 32-byte boundary. Every kernel op is
// elementwise, so all four members are handled uniformly and exactly.
static_assert(std::is_standard_layout_v<BinStats> &&
                  sizeof(BinStats) == 4 * sizeof(double) &&
                  alignof(BinStats) == 32,
              "BinStats must be one 32-byte lane of four doubles");
static_assert(sizeof(GradientPair) == 2 * sizeof(float),
              "quantize_gather assumes packed {g, h} float pairs");
static_assert(sizeof(BinIndex) == sizeof(std::uint16_t),
              "scatter_bins reads the row-major matrix as uint16 bins");

double* flat(Histogram::Buffer& bins) {
  return reinterpret_cast<double*>(bins.data());
}
const double* flat(const Histogram::Buffer& bins) {
  return reinterpret_cast<const double*>(bins.data());
}

/// Rows whose quantized {g, h} are staged per block before the scatter
/// pass; sized so the staging buffers live comfortably in L1.
constexpr std::size_t kBuildBlock = 256;

}  // namespace

Histogram::Histogram(const BinnedDataset& data) {
  const std::uint32_t num_fields = data.num_fields();
  offsets_.resize(num_fields + 1);
  std::uint32_t total = 0;
  for (std::uint32_t f = 0; f < num_fields; ++f) {
    offsets_[f] = total;
    total += data.field_bins(f).num_bins;
  }
  offsets_[num_fields] = total;
  bins_.assign(total, BinStats{});
}

Histogram::Histogram(std::span<const std::uint32_t> bins_per_field) {
  offsets_.resize(bins_per_field.size() + 1);
  std::uint32_t total = 0;
  for (std::size_t f = 0; f < bins_per_field.size(); ++f) {
    offsets_[f] = total;
    total += bins_per_field[f];
  }
  offsets_[bins_per_field.size()] = total;
  bins_.assign(total, BinStats{});
}

void Histogram::build(const BinnedDataset& data,
                      std::span<const std::uint32_t> rows,
                      std::span<const GradientPair> gradients,
                      std::uint32_t row_base) {
  BOOSTER_CHECK(num_fields() == data.num_fields());
  data.ensure_row_major();  // no-op after the first (pre-fan-out) call
  const BinIndex* row_major = data.row_major_bins();
  const std::size_t num_fields = data.num_fields();
  double* bins = flat(bins_);
  const std::uint32_t* offsets = offsets_.data();
  const auto& ker = util::simd::kernels();
  const float* pairs = reinterpret_cast<const float*>(gradients.data());
  const std::uint32_t* row_ptr = rows.data();
  const std::size_t total = rows.size();
  alignas(64) double qg[kBuildBlock];
  alignas(64) double qh[kBuildBlock];
  for (std::size_t base = 0; base < total; base += kBuildBlock) {
    const std::size_t m = std::min(kBuildBlock, total - base);
    // Stage 1 (vector): gather the block's {g, h} pairs and snap them to
    // the quantum grid in SIMD lanes. Quantization is idempotent, so
    // callers holding already-quantized pairs pay nothing; the bin updates
    // below are then exact additions in any order -- see quantize_stat in
    // the header.
    ker.quantize_gather(pairs, row_ptr + base, m, row_base, kStatInvQuantum,
                        kStatQuantum, qg, qh);
#ifndef NDEBUG
    for (std::size_t j = 0; j < m; ++j) {
      BOOSTER_DCHECK(row_ptr[base + j] >= row_base &&
                     row_ptr[base + j] - row_base < gradients.size());
      const BinIndex* record =
          row_major + static_cast<std::size_t>(row_ptr[base + j]) * num_fields;
      for (std::size_t f = 0; f < num_fields; ++f) {
        BOOSTER_DCHECK(offsets[f] + record[f] < offsets[f + 1]);
      }
    }
#endif
    // Stage 2: one {1, qg, qh, 0} lane update per record-field -- a single
    // vector read-modify-write of the bin at the wide levels.
    ker.scatter_bins(bins, offsets, row_major, num_fields, row_ptr + base, m,
                     qg, qh);
  }
}

void Histogram::build_reference(const BinnedDataset& data,
                                std::span<const std::uint32_t> rows,
                                std::span<const GradientPair> gradients) {
  BOOSTER_CHECK(num_fields() == data.num_fields());
  for (std::uint32_t f = 0; f < data.num_fields(); ++f) {
    const auto bins = mutable_field(f);
    const auto& col = data.column(f);
    for (const std::uint32_t r : rows) {
      BOOSTER_DCHECK(col[r] < bins.size());
      bins[col[r]].add(gradients[r]);
    }
  }
}

void Histogram::subtract_from(const Histogram& parent,
                              const Histogram& sibling) {
  BOOSTER_CHECK(parent.same_shape(sibling));
  offsets_ = parent.offsets_;
  bins_.resize(parent.bins_.size());
  util::simd::kernels().diff(flat(bins_), flat(parent.bins_),
                             flat(sibling.bins_), 4 * bins_.size());
}

void Histogram::subtract(const Histogram& sibling) {
  BOOSTER_CHECK(same_shape(sibling));
  util::simd::kernels().sub(flat(bins_), flat(sibling.bins_),
                            4 * bins_.size());
}

void Histogram::add(const Histogram& other) {
  BOOSTER_CHECK(same_shape(other));
  util::simd::kernels().add(flat(bins_), flat(other.bins_),
                            4 * bins_.size());
}

void Histogram::clear() {
  util::simd::kernels().zero(flat(bins_), 4 * bins_.size());
}

BinStats Histogram::totals() const {
  BinStats t;
  if (num_fields() == 0) return t;
  for (const auto& b : field(0)) t += b;
  // Exactness guard (see kStatSumCapacity): the order-insensitivity of
  // quantized accumulation only holds while sums stay in the exact range.
  // totals() runs once per tree node in both trainers, so a workload that
  // outgrows the capacity fails loudly here instead of silently losing
  // the bit-identity contract.
  BOOSTER_CHECK_MSG(std::abs(t.g) <= kStatSumCapacity &&
                        t.h <= kStatSumCapacity,
                    "histogram G/H totals exceed the quantized-exact "
                    "capacity (2^29); normalize gradients or enlarge "
                    "kStatQuantum");
  return t;
}

void HistogramPool::configure(const BinnedDataset& data) {
  proto_ = Histogram(data);
  free_.clear();
  allocations_ = 0;
  acquires_ = 0;
}

Histogram HistogramPool::acquire() {
  ++acquires_;
  Histogram h;
  if (free_.empty()) {
    ++allocations_;
    h = proto_;  // copy: the one place a fresh buffer is constructed
  } else {
    h = std::move(free_.back());
    free_.pop_back();
    h.clear();
  }
  BOOSTER_CHECK_MSG(h.aligned_to(64),
                    "histogram buffer lost its 64-byte alignment");
  return h;
}

Histogram HistogramPool::take() {
  if (free_.empty()) return acquire();  // a fresh buffer is zeroed anyway
  ++acquires_;
  Histogram h = std::move(free_.back());
  free_.pop_back();
  BOOSTER_CHECK_MSG(h.aligned_to(64),
                    "histogram buffer lost its 64-byte alignment");
  return h;
}

void HistogramPool::release(Histogram&& h) {
  BOOSTER_CHECK(h.same_shape(proto_));
  free_.push_back(std::move(h));
}

}  // namespace booster::gbdt

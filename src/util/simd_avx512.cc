// AVX-512 kernel table. This TU (alone) is compiled with -mavx512f; without
// the flag the __AVX512F__ guard reduces it to a nullptr stub. Anonymous
// namespace for every body -- see simd_avx2.cc for the linkage rationale.
// Keep a * b + c two roundings in every kernel body: see simd.h.
#pragma GCC optimize("fp-contract=off")

#include "util/simd.h"

#if defined(__AVX512F__)

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>

namespace booster::util::simd {

namespace {

#include "util/simd_body.inl"

// Elementwise double ops: one full 512-bit vector (8 doubles) per
// iteration plus a masked tail, so even odd-length buffers never fall back
// to scalar stores.

void avx512_add(double* dst, const double* src, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_pd(dst + i, _mm512_add_pd(_mm512_loadu_pd(dst + i),
                                            _mm512_loadu_pd(src + i)));
  }
  if (i < n) {
    const __mmask8 m = static_cast<__mmask8>((1u << (n - i)) - 1u);
    const __m512d a = _mm512_maskz_loadu_pd(m, dst + i);
    const __m512d b = _mm512_maskz_loadu_pd(m, src + i);
    _mm512_mask_storeu_pd(dst + i, m, _mm512_add_pd(a, b));
  }
}

void avx512_sub(double* dst, const double* src, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_pd(dst + i, _mm512_sub_pd(_mm512_loadu_pd(dst + i),
                                            _mm512_loadu_pd(src + i)));
  }
  if (i < n) {
    const __mmask8 m = static_cast<__mmask8>((1u << (n - i)) - 1u);
    const __m512d a = _mm512_maskz_loadu_pd(m, dst + i);
    const __m512d b = _mm512_maskz_loadu_pd(m, src + i);
    _mm512_mask_storeu_pd(dst + i, m, _mm512_sub_pd(a, b));
  }
}

void avx512_diff(double* dst, const double* a, const double* b,
                 std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_pd(dst + i, _mm512_sub_pd(_mm512_loadu_pd(a + i),
                                            _mm512_loadu_pd(b + i)));
  }
  if (i < n) {
    const __mmask8 m = static_cast<__mmask8>((1u << (n - i)) - 1u);
    const __m512d av = _mm512_maskz_loadu_pd(m, a + i);
    const __m512d bv = _mm512_maskz_loadu_pd(m, b + i);
    _mm512_mask_storeu_pd(dst + i, m, _mm512_sub_pd(av, bv));
  }
}

void avx512_zero(double* dst, std::size_t n) {
  const __m512d z = _mm512_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) _mm512_storeu_pd(dst + i, z);
  if (i < n) {
    const __mmask8 m = static_cast<__mmask8>((1u << (n - i)) - 1u);
    _mm512_mask_storeu_pd(dst + i, m, z);
  }
}

void avx512_quantize_gather(const float* pairs, const std::uint32_t* rows,
                            std::size_t n, std::uint32_t row_base,
                            double inv_quantum, double quantum, double* qg,
                            double* qh) {
  const __m256i base = _mm256_set1_epi32(static_cast<int>(row_base));
  const __m512d inv = _mm512_set1_pd(inv_quantum);
  const __m512d quant = _mm512_set1_pd(quantum);
  // roundscale with scale 0, MXCSR rounding mode, exceptions suppressed --
  // exactly nearbyint, lane-wise.
  constexpr int kRound = _MM_FROUND_CUR_DIRECTION | _MM_FROUND_NO_EXC;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i idx = _mm256_sub_epi32(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(rows + i)), base);
    // 8-byte gathers fetch each record's whole {g, h} pair; the low 32 bits
    // of each lane are g's float bits, the high 32 are h's.
    const __m512i p64 = _mm512_i32gather_epi64(idx, pairs, /*scale=*/8);
    const __m256 g8 = _mm256_castsi256_ps(_mm512_cvtepi64_epi32(p64));
    const __m256 h8 =
        _mm256_castsi256_ps(_mm512_cvtepi64_epi32(_mm512_srli_epi64(p64, 32)));
    const __m512d gq = _mm512_mul_pd(
        _mm512_roundscale_pd(_mm512_mul_pd(_mm512_cvtps_pd(g8), inv), kRound),
        quant);
    const __m512d hq = _mm512_mul_pd(
        _mm512_roundscale_pd(_mm512_mul_pd(_mm512_cvtps_pd(h8), inv), kRound),
        quant);
    _mm512_storeu_pd(qg + i, gq);
    _mm512_storeu_pd(qh + i, hq);
  }
  generic_quantize_gather(pairs, rows + i, n - i, row_base, inv_quantum,
                          quantum, qg + i, qh + i);
}

/// The halves of a 16-lane vector as two 8-lane index vectors.
inline __m256i low8(__m512i v) { return _mm512_castsi512_si256(v); }
inline __m256i high8(__m512i v) { return _mm512_extracti64x4_epi64(v, 1); }
inline __m512i join8(__m256i lo, __m256i hi) {
  return _mm512_inserti64x4(_mm512_castsi256_si512(lo), hi, 1);
}

/// Per-lane bin addressing of one 16-lane group of a traversal tile: the
/// byte offset of each lane's 32-bit bin pair in its column (two 8-lane
/// 64-bit halves) and the shift that brings the lane's own bin down.
struct BinLanes {
  __m512i offset_lo;
  __m512i offset_hi;
  __m512i shift;
};

/// Lanes [16 * group, 16 * group + 16) of a tile of `count` records from
/// first_record. Lane j reads record first_record + min(j, count - 1):
/// lanes past a short tile repeat the last record, so every read stays in
/// the call. Lane j >= 1 loads the 32-bit pair that ends at its bin
/// (records r - 1 and r, shift 16), lane 0 the pair that starts at it
/// (records r and r + 1, shift 0; count >= 2) -- never past the call's
/// last record (the over-read rule, simd.h).
inline BinLanes bin_lanes(std::uint64_t first_record, std::size_t count,
                          unsigned group) {
  alignas(64) std::uint64_t offset[16];
  alignas(64) std::uint32_t shift[16];
  for (unsigned i = 0; i < 16; ++i) {
    const std::uint64_t lane =
        std::min<std::uint64_t>(16 * group + i, count - 1);
    offset[i] = 2 * (first_record + lane) - (lane > 0 ? 2 : 0);
    shift[i] = lane > 0 ? 16 : 0;
  }
  return {_mm512_load_si512(offset), _mm512_load_si512(offset + 8),
          _mm512_load_si512(shift)};
}

/// One fixed-depth step of 16 lanes: node = child[2 * node + goes_left],
/// with node_goes_left computed lane-wise on mask registers.
inline __m512i traverse_step(const FlatTreeView& tree,
                             const std::uint16_t* const* columns,
                             const BinLanes& at, __m512i node) {
  // Node words: the field in the low 32 bits, the predicate in the high.
  const __m512i word_lo =
      _mm512_i32gather_epi64(low8(node), tree.node, /*scale=*/8);
  const __m512i word_hi =
      _mm512_i32gather_epi64(high8(node), tree.node, /*scale=*/8);
  // Column bases by field, then one 32-bit gather at each absolute
  // address, shifted down to the lane's own 16 bits.
  const __m512i addr_lo = _mm512_add_epi64(
      _mm512_i32gather_epi64(_mm512_cvtepi64_epi32(word_lo), columns, 8),
      at.offset_lo);
  const __m512i addr_hi = _mm512_add_epi64(
      _mm512_i32gather_epi64(_mm512_cvtepi64_epi32(word_hi), columns, 8),
      at.offset_hi);
  const __m512i low16 = _mm512_set1_epi32(0xffff);
  const __m512i bins = _mm512_and_si512(
      _mm512_srlv_epi32(
          join8(_mm512_i64gather_epi32(addr_lo, nullptr, /*scale=*/1),
                _mm512_i64gather_epi32(addr_hi, nullptr, /*scale=*/1)),
          at.shift),
      low16);
  const __m512i predicate =
      join8(_mm512_cvtepi64_epi32(_mm512_srli_epi64(word_lo, 32)),
            _mm512_cvtepi64_epi32(_mm512_srli_epi64(word_hi, 32)));
  const __m512i threshold = _mm512_and_si512(predicate, low16);
  const __mmask16 missing =
      _mm512_cmpeq_epi32_mask(bins, _mm512_setzero_si512());
  const __mmask16 categorical = _mm512_test_epi32_mask(
      predicate, _mm512_set1_epi32(static_cast<int>(kNodeCategorical << 16)));
  const __mmask16 default_left = _mm512_test_epi32_mask(
      predicate, _mm512_set1_epi32(static_cast<int>(kNodeDefaultLeft << 16)));
  const __mmask16 by_value = static_cast<__mmask16>(
      (categorical & _mm512_cmpeq_epi32_mask(bins, threshold)) |
      (~categorical & _mm512_cmple_epu32_mask(bins, threshold)));
  const __mmask16 left = static_cast<__mmask16>(
      (missing & default_left) | (~missing & by_value));
  const __m512i twice = _mm512_add_epi32(node, node);
  return _mm512_i32gather_epi32(
      _mm512_mask_add_epi32(twice, left, twice, _mm512_set1_epi32(1)),
      tree.child, /*scale=*/4);
}

/// traverse_block over `Groups` 16-lane groups: each step advances every
/// group, so the groups' dependent gather chains (node word, column base,
/// bin, child) overlap.
template <unsigned Groups>
void traverse_groups(const FlatTreeView& tree,
                     const std::uint16_t* const* columns,
                     std::uint64_t first_record, std::size_t count,
                     double* weights) {
  BinLanes at[Groups];
  __m512i node[Groups];
  for (unsigned g = 0; g < Groups; ++g) {
    at[g] = bin_lanes(first_record, count, g);
    node[g] = _mm512_setzero_si512();
  }
  for (std::uint32_t step = 0; step < tree.depth; ++step) {
    for (unsigned g = 0; g < Groups; ++g) {
      node[g] = traverse_step(tree, columns, at[g], node[g]);
    }
  }
  for (unsigned g = 0; g < Groups; ++g) {
    for (unsigned half = 0; half < 2; ++half) {
      const std::size_t begin = 16 * g + 8 * half;
      if (begin >= count) return;
      const std::size_t n = count - begin < 8 ? count - begin : 8;
      const __m512d w = _mm512_i32gather_pd(
          half == 0 ? low8(node[g]) : high8(node[g]), tree.weight, 8);
      _mm512_mask_storeu_pd(weights + begin,
                            static_cast<__mmask8>((1u << n) - 1u), w);
    }
  }
}

void avx512_traverse_block(const FlatTreeView& tree,
                           const std::uint16_t* const* columns,
                           std::uint64_t first_record, std::size_t count,
                           double* weights) {
  if (count < 2) {
    generic_traverse_block(tree, columns, first_record, count, weights);
  } else if (count <= 16) {
    traverse_groups<1>(tree, columns, first_record, count, weights);
  } else {
    traverse_groups<2>(tree, columns, first_record, count, weights);
  }
}

const Kernels kAvx512Table = {
    Level::kAvx512,    avx512_add,       avx512_sub,
    avx512_diff,       avx512_zero,      avx512_quantize_gather,
    wide_scatter_bins, wide_prefix_sum4, avx512_traverse_block,
    logistic_refresh_lanes<8>,
    /*predict_tile=*/32,
};

}  // namespace

namespace detail {
const Kernels* avx512_kernel_table() { return &kAvx512Table; }
}  // namespace detail

}  // namespace booster::util::simd

#else  // !defined(__AVX512F__)

namespace booster::util::simd::detail {
const Kernels* avx512_kernel_table() { return nullptr; }
}  // namespace booster::util::simd::detail

#endif

// AVX-512 kernel table. This TU (alone) is compiled with -mavx512f; without
// the flag the __AVX512F__ guard reduces it to a nullptr stub. Anonymous
// namespace for every body -- see simd_avx2.cc for the linkage rationale.
// Keep a * b + c two roundings in every kernel body: see simd.h.
#pragma GCC optimize("fp-contract=off")

#include "util/simd.h"

#if defined(__AVX512F__)

#include <immintrin.h>

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

const Kernels kAvx512Table = {
    Level::kAvx512,    avx512_add,       avx512_sub,
    avx512_diff,       avx512_zero,      avx512_quantize_gather,
    wide_scatter_bins, wide_prefix_sum4, generic_traverse_block,
    logistic_refresh_lanes<8>,
    /*predict_tile=*/16,
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

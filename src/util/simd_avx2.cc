// AVX2 kernel table. This TU (alone) is compiled with -mavx2 (see the
// top-level CMakeLists); when the toolchain lacks the flag the __AVX2__
// guard reduces it to a nullptr stub and dispatch stays scalar. Every
// helper lives in the anonymous namespace so no -mavx2-compiled body can
// leak into other TUs through linker folding.
// Keep a * b + c two roundings in every kernel body: see simd.h.
#pragma GCC optimize("fp-contract=off")

#include "util/simd.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>

namespace booster::util::simd {

namespace {

#include "util/simd_body.inl"

// Elementwise double ops, 8 doubles (two 256-bit vectors) per iteration.
// Unaligned loads: the histogram buffers are 64-byte aligned (and loadu on
// an aligned address costs the same), but the kernels must also serve
// arbitrary spans.

void avx2_add(double* dst, const double* src, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256d a0 = _mm256_loadu_pd(dst + i);
    const __m256d a1 = _mm256_loadu_pd(dst + i + 4);
    const __m256d b0 = _mm256_loadu_pd(src + i);
    const __m256d b1 = _mm256_loadu_pd(src + i + 4);
    _mm256_storeu_pd(dst + i, _mm256_add_pd(a0, b0));
    _mm256_storeu_pd(dst + i + 4, _mm256_add_pd(a1, b1));
  }
  for (; i < n; ++i) dst[i] += src[i];
}

void avx2_sub(double* dst, const double* src, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256d a0 = _mm256_loadu_pd(dst + i);
    const __m256d a1 = _mm256_loadu_pd(dst + i + 4);
    const __m256d b0 = _mm256_loadu_pd(src + i);
    const __m256d b1 = _mm256_loadu_pd(src + i + 4);
    _mm256_storeu_pd(dst + i, _mm256_sub_pd(a0, b0));
    _mm256_storeu_pd(dst + i + 4, _mm256_sub_pd(a1, b1));
  }
  for (; i < n; ++i) dst[i] -= src[i];
}

void avx2_diff(double* dst, const double* a, const double* b, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256d a0 = _mm256_loadu_pd(a + i);
    const __m256d a1 = _mm256_loadu_pd(a + i + 4);
    const __m256d b0 = _mm256_loadu_pd(b + i);
    const __m256d b1 = _mm256_loadu_pd(b + i + 4);
    _mm256_storeu_pd(dst + i, _mm256_sub_pd(a0, b0));
    _mm256_storeu_pd(dst + i + 4, _mm256_sub_pd(a1, b1));
  }
  for (; i < n; ++i) dst[i] = a[i] - b[i];
}

void avx2_zero(double* dst, std::size_t n) {
  const __m256d z = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_pd(dst + i, z);
    _mm256_storeu_pd(dst + i + 4, z);
  }
  for (; i < n; ++i) dst[i] = 0.0;
}

void avx2_quantize_gather(const float* pairs, const std::uint32_t* rows,
                          std::size_t n, std::uint32_t row_base,
                          double inv_quantum, double quantum, double* qg,
                          double* qh) {
  const __m128i base = _mm_set1_epi32(static_cast<int>(row_base));
  const __m256d inv = _mm256_set1_pd(inv_quantum);
  const __m256d quant = _mm256_set1_pd(quantum);
  // Lane selectors for deinterleaving a gathered [g h g h ...] float
  // vector into g lanes (even) and h lanes (odd).
  const __m256i even = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
  const __m256i odd = _mm256_setr_epi32(1, 3, 5, 7, 0, 0, 0, 0);
  constexpr int kRound = _MM_FROUND_CUR_DIRECTION | _MM_FROUND_NO_EXC;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128i idx = _mm_sub_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(rows + i)), base);
    // One 8-byte gather per record fetches its whole {g, h} pair -- exactly
    // the bytes the scalar loop reads, no overread at the array tail.
    const __m256i p64 = _mm256_i32gather_epi64(
        reinterpret_cast<const long long*>(pairs), idx, /*scale=*/8);
    const __m256 interleaved = _mm256_castsi256_ps(p64);
    const __m128 g4 =
        _mm256_castps256_ps128(_mm256_permutevar8x32_ps(interleaved, even));
    const __m128 h4 =
        _mm256_castps256_ps128(_mm256_permutevar8x32_ps(interleaved, odd));
    // nearbyint(x * inv) * quant, elementwise -- the same three operations
    // (exact float->double widen, multiply, current-mode round, multiply)
    // as gbdt::quantize_stat, hence bit-identical.
    const __m256d gq = _mm256_mul_pd(
        _mm256_round_pd(_mm256_mul_pd(_mm256_cvtps_pd(g4), inv), kRound),
        quant);
    const __m256d hq = _mm256_mul_pd(
        _mm256_round_pd(_mm256_mul_pd(_mm256_cvtps_pd(h4), inv), kRound),
        quant);
    _mm256_storeu_pd(qg + i, gq);
    _mm256_storeu_pd(qh + i, hq);
  }
  generic_quantize_gather(pairs, rows + i, n - i, row_base, inv_quantum,
                          quantum, qg + i, qh + i);
}

const Kernels kAvx2Table = {
    Level::kAvx2,      avx2_add,         avx2_sub,
    avx2_diff,         avx2_zero,        avx2_quantize_gather,
    wide_scatter_bins, wide_prefix_sum4, generic_traverse_block,
    logistic_refresh_lanes<4>,
    /*predict_tile=*/16,
};

}  // namespace

namespace detail {
const Kernels* avx2_kernel_table() { return &kAvx2Table; }
}  // namespace detail

}  // namespace booster::util::simd

#else  // !defined(__AVX2__)

namespace booster::util::simd::detail {
const Kernels* avx2_kernel_table() { return nullptr; }
}  // namespace booster::util::simd::detail

#endif

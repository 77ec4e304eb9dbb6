// Keep a * b + c two roundings in every kernel body: see simd.h.
#pragma GCC optimize("fp-contract=off")

#include "util/simd.h"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace booster::util::simd {

namespace {

#include "util/simd_body.inl"

const Kernels kScalarTable = {
    Level::kScalar,       generic_add,         generic_sub,
    generic_diff,         generic_zero,        generic_quantize_gather,
    generic_scatter_bins, generic_prefix_sum4, generic_traverse_block,
    logistic_refresh_lanes<1>,
    /*predict_tile=*/16,
};

const Kernels* table_or_null(Level level) {
  switch (level) {
    case Level::kScalar:
      return &kScalarTable;
    case Level::kAvx2:
      return detail::avx2_kernel_table();
    case Level::kAvx512:
      return detail::avx512_kernel_table();
  }
  return nullptr;
}

bool host_supports(Level level) {
  switch (level) {
    case Level::kScalar:
      return true;
#if defined(__x86_64__) || defined(__i386__)
    case Level::kAvx2:
      return __builtin_cpu_supports("avx2");
    case Level::kAvx512:
      return __builtin_cpu_supports("avx512f");
#else
    case Level::kAvx2:
    case Level::kAvx512:
      return false;
#endif
  }
  return false;
}

/// The active level, resolved once (env + cpuid) and mutable only through
/// set_active_for_testing. Relaxed is enough: the value is a plain config
/// byte, and test-time writes are documented as non-concurrent.
std::atomic<Level>& active_slot() {
  static std::atomic<Level> slot{resolve(detected(), std::getenv("BOOSTER_SIMD"))};
  return slot;
}

}  // namespace

const char* level_name(Level level) {
  switch (level) {
    case Level::kScalar:
      return "scalar";
    case Level::kAvx2:
      return "avx2";
    case Level::kAvx512:
      return "avx512";
  }
  return "unknown";
}

bool parse_level(const char* text, Level* out) {
  if (text == nullptr) return false;
  if (std::strcmp(text, "scalar") == 0) {
    *out = Level::kScalar;
  } else if (std::strcmp(text, "avx2") == 0) {
    *out = Level::kAvx2;
  } else if (std::strcmp(text, "avx512") == 0) {
    *out = Level::kAvx512;
  } else {
    return false;
  }
  return true;
}

Level compiled_max() {
  if (detail::avx512_kernel_table() != nullptr) return Level::kAvx512;
  if (detail::avx2_kernel_table() != nullptr) return Level::kAvx2;
  return Level::kScalar;
}

Level detected() {
  static const Level level = [] {
    for (const Level l : {Level::kAvx512, Level::kAvx2}) {
      if (table_or_null(l) != nullptr && host_supports(l)) return l;
    }
    return Level::kScalar;
  }();
  return level;
}

Level resolve(Level detected_level, const char* override_text) {
  if (override_text == nullptr || override_text[0] == '\0') {
    return detected_level;
  }
  Level requested;
  if (!parse_level(override_text, &requested)) {
    std::fprintf(stderr,
                 "BOOSTER_SIMD=%s is not scalar|avx2|avx512; using %s\n",
                 override_text, level_name(detected_level));
    return detected_level;
  }
  // An override may force a narrower path (CI honesty legs, debugging) but
  // can never promise lanes the host or binary lacks.
  return requested < detected_level ? requested : detected_level;
}

Level active() { return active_slot().load(std::memory_order_relaxed); }

void set_active_for_testing(Level level) {
  if (level > detected()) level = detected();
  active_slot().store(level, std::memory_order_relaxed);
}

double exp(double x) { return lane_exp<1>(Lanes<1>::D{x})[0]; }

double log(double x) { return lane_log<1>(Lanes<1>::D{x})[0]; }

LogisticTerms logistic_terms(float pred, float label, bool with_loss) {
  Lanes<1>::F g, h;
  const double loss = logistic_lanes<1>(Lanes<1>::D{pred},
                                        Lanes<1>::D{label}, &g, &h,
                                        with_loss)[0];
  return LogisticTerms{g[0], h[0], loss};
}

const Kernels& kernels() { return kernels(active()); }

const Kernels& kernels(Level level) {
  if (level > detected()) return kScalarTable;
  const Kernels* table = table_or_null(level);
  return table != nullptr ? *table : kScalarTable;
}

}  // namespace booster::util::simd

// Dependency-free SIMD layer with runtime CPU dispatch for the training and
// inference hot kernels. Three dispatch levels -- scalar, AVX2, AVX-512 --
// selected once per process from cpuid detection, clamped by the
// BOOSTER_SIMD environment variable (scalar|avx2|avx512), and overridable
// in-process for tests and benches.
//
// Every kernel is *elementwise-identical* to its scalar reference: the
// vector paths perform exactly the same IEEE operations on exactly the same
// operands, only more of them per instruction -- no reassociation, no FMA
// contraction, no reduced-precision shortcuts. Combined with the quantized
// gradient grid (gbdt::quantize_stat), this makes training and prediction
// outputs bit-identical at every dispatch level, which is what lets the
// whole equivalence-test edifice (threads, shards, processes, machines)
// assert EXPECT_EQ across ISAs instead of tolerances.
//
// Build scheme: the AVX2/AVX-512 kernel tables live in their own
// translation units (simd_avx2.cc / simd_avx512.cc) compiled with per-file
// -mavx2 / -mavx512f flags, so the rest of the binary carries no wide
// instructions and runs on any x86-64 (or non-x86) host; each wide TU keeps
// all of its helpers at internal linkage so the linker can never fold a
// wide-compiled body into the portable code path.
//
// No FMA anywhere: each of the three kernel TUs opens with
// `#pragma GCC optimize("fp-contract=off")`, because -mavx512f implies FMA
// and GCC contracts a * b + c by default in C++. A contracted multiply-add
// rounds once where the scalar level rounds twice, which would split the
// levels' bits; the pragma keeps that guarantee in the source, whatever
// flags a build adds.
#pragma once

#include <cstddef>
#include <cstdint>

namespace booster::util::simd {

/// Dispatch levels, in strictly increasing capability order.
enum class Level : std::uint8_t { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

/// Stable lowercase name ("scalar" / "avx2" / "avx512") -- the spelling the
/// BOOSTER_SIMD override, TrainResult.hot_path.simd, and every bench's
/// provenance header use.
const char* level_name(Level level);

/// Parses a level name (the BOOSTER_SIMD spellings). Returns false on
/// anything unrecognized.
bool parse_level(const char* text, Level* out);

/// Highest level whose kernel table was compiled into this binary (depends
/// on the toolchain understanding -mavx2/-mavx512f, not on the host CPU).
Level compiled_max();

/// Highest level this host can execute (cpuid) *and* this binary carries.
Level detected();

/// The level resolution rule: `detected` clamped by the BOOSTER_SIMD
/// override (an override can force a lower level, never raise one above
/// what the host supports; unrecognized values fall back to `detected`).
/// Pure -- exposed so tests can exercise the rule without env mutation.
Level resolve(Level detected, const char* override_text);

/// The process-wide active level: resolve(detected(), getenv("BOOSTER_SIMD")),
/// computed once on first use.
Level active();

/// Repoints active() (clamped to detected()) -- for tests and benches that
/// compare levels in one process. Not thread-safe against concurrent
/// kernel users; call between training runs only.
void set_active_for_testing(Level level);

/// RAII form of set_active_for_testing.
class ScopedLevelForTesting {
 public:
  explicit ScopedLevelForTesting(Level level) : prev_(active()) {
    set_active_for_testing(level);
  }
  ~ScopedLevelForTesting() { set_active_for_testing(prev_); }
  ScopedLevelForTesting(const ScopedLevelForTesting&) = delete;
  ScopedLevelForTesting& operator=(const ScopedLevelForTesting&) = delete;

 private:
  Level prev_;
};

/// Upper bound on Kernels::predict_tile and on traverse_block's count --
/// callers size their per-tile stack buffers with this.
inline constexpr std::size_t kMaxPredictTile = 32;

/// Predicate flags of a packed node (FlatTreeView::node, bits 48..).
inline constexpr std::uint32_t kNodeCategorical = 1;  // predicate: bin == thr
inline constexpr std::uint32_t kNodeDefaultLeft = 2;  // missing goes left

/// One node of a FlatTreeView in 64 bits: the field in the low word, the
/// threshold bin and the flags in the high word (threshold | flags << 16),
/// so one 64-bit load -- one gather lane -- fetches a node's predicate.
constexpr std::uint64_t pack_node(std::uint32_t field, std::uint16_t threshold,
                                  std::uint32_t flags) {
  return field | static_cast<std::uint64_t>(threshold | (flags << 16)) << 32;
}

/// The routes_left rule (gbdt/split.h) on a packed node's high word:
/// missing (bin 0) follows the learned default; categorical matches,
/// numeric thresholds. The scalar steps of traverse_block use this; the
/// wide steps compute it with lane compares.
constexpr bool node_goes_left(std::uint32_t predicate, std::uint32_t bin) {
  const std::uint32_t threshold = predicate & 0xffffu;
  const std::uint32_t flags = predicate >> 16;
  if (bin == 0) return (flags & kNodeDefaultLeft) != 0;
  return (flags & kNodeCategorical) != 0 ? bin == threshold
                                         : bin <= threshold;
}

/// SoA view of one decision tree's node table in fixed-depth form
/// (gbdt::FlatTree owns the arrays). Raw pointers keep the util layer free
/// of gbdt types.
///   * node[n]: pack_node(field, threshold, flags) of node n;
///   * child[2n + goes_left]: the node a record at n moves to -- right at
///     2n, left at 2n + 1. A leaf's pair points at the leaf itself, so a
///     record that reached it stays put;
///   * weight[n]: the leaf weight (read at leaves only);
///   * depth: the deepest leaf's depth. `depth` steps from the root bring
///     every record to its leaf, whatever the tree's shape.
/// A leaf's node word names a field the tree's splits use (its parent's),
/// so its idle steps load a bin the kernel may read; the root leaf of a
/// depth-0 tree takes no step at all.
struct FlatTreeView {
  const std::uint64_t* node = nullptr;
  const std::int32_t* child = nullptr;
  const double* weight = nullptr;
  std::uint32_t depth = 0;
};

/// One dispatch level's kernel table. All array kernels except
/// scatter_bins are elementwise and alignment-agnostic (the histogram
/// buffers they usually run on are 64-byte aligned, see util/aligned.h,
/// which the wide paths exploit).
///
///   kernel            | used by                      | scalar | wide
///   ------------------+------------------------------+--------+------------
///   add/sub/diff/zero | Histogram add/subtract/clear | loop   | 256/512-bit
///   quantize_gather   | Histogram::build stage 1     | loop   | gather+round
///   scatter_bins      | Histogram::build stage 2     | 3 adds | 1 lane RMW
///   prefix_sum4       | SplitFinder::scan_numeric    | 4 sums | 1 lane add
///   traverse_block    | FlatEnsemble tile loop       | 1 lane | AVX-512:
///                     | (serving, warm-start replay) | steps  | 16-lane gather
///                     |                              |        | steps; AVX2:
///                     |                              |        | scalar steps
///   logistic_refresh  | LogisticLoss::refresh        | 1 lane | 4/8 lanes
///                     | (step 5)                     | one shared body
struct Kernels {
  Level level = Level::kScalar;

  /// dst[i] += src[i].
  void (*add)(double* dst, const double* src, std::size_t n);
  /// dst[i] -= src[i].
  void (*sub)(double* dst, const double* src, std::size_t n);
  /// dst[i] = a[i] - b[i].
  void (*diff)(double* dst, const double* a, const double* b, std::size_t n);
  /// dst[i] = 0.
  void (*zero)(double* dst, std::size_t n);

  /// Batch gather-quantize of interleaved {g, h} float pairs onto the
  /// quantum grid: for i in [0, n), with j = rows[i] - row_base (every
  /// rows[i] >= row_base; `pairs` starts at row row_base's pair),
  ///   qg[i] = nearbyint(pairs[2 * j]     * inv_quantum) * quantum
  ///   qh[i] = nearbyint(pairs[2 * j + 1] * inv_quantum) * quantum
  /// computed with the same operations as gbdt::quantize_stat (round uses
  /// the current rounding mode on every path), so results are bit-identical
  /// to the scalar loop at every level.
  void (*quantize_gather)(const float* pairs, const std::uint32_t* rows,
                          std::size_t n, std::uint32_t row_base,
                          double inv_quantum, double quantum, double* qg,
                          double* qh);

  /// Histogram bin scatter, step 1's bin updates (stage 2 of
  /// gbdt::Histogram::build). `bins` holds 4-double lanes {count, g, h,
  /// pad} and starts on a 32-byte boundary. For i in [0, n) and every
  /// field f, with bin = row_major[rows[i] * num_fields + f], the lane at
  /// bins + 4 * (offsets[f] + bin) gets
  ///   {count, g, h, pad} += {1, qg[i], qh[i], 0}.
  /// Scalar: three scalar adds per update (pad untouched). Wide: one
  /// aligned 256-bit load-add-store per update. The additions are the same
  /// per lane; records that share a bin may update it in another order,
  /// which is exact on the quantized grid (2^-24-quantum multiples within
  /// kStatSumCapacity, integer counts) -- the same bits at every level.
  void (*scatter_bins)(double* bins, const std::uint32_t* offsets,
                       const std::uint16_t* row_major, std::size_t num_fields,
                       const std::uint32_t* rows, std::size_t n,
                       const double* qg, const double* qh);

  /// Inclusive prefix sum over `n` contiguous 4-double bin lanes:
  /// dst[4i + k] = sum_{j <= i} src[4j + k], added in index order at every
  /// level (one running 256-bit add per lane at the wide levels), so the
  /// results are bit-identical for any operands. The split scan's
  /// left-bucket accumulation (gbdt::SplitFinder::scan_numeric) runs
  /// through this on a histogram field's value bins.
  void (*prefix_sum4)(const double* src, std::size_t n, double* dst);

  /// Fixed-depth blocked traversal: records [first_record, first_record +
  /// count) of the columns (columns[f][r] is record r's bin of field f;
  /// 1 <= count <= kMaxPredictTile) all start at the root and take exactly
  /// tree.depth steps, node = child[2 * node + goes_left], with no branch
  /// on the tree's shape; weights[i] then receives the weight of record
  /// first_record + i's leaf. AVX-512 takes each step for a whole tile at
  /// once with gathers (node word, column base, bin, child), in groups of
  /// 16 lanes; a tile shorter than its groups repeats its last record in
  /// the spare lanes and drops their results. The scalar level takes the
  /// same steps one lane at a time; it is the reference, and the AVX2
  /// table runs it too (an 8-lane AVX2 step, whose 64-bit gathers fetch
  /// four lanes each, measured slower than 16 scalar lanes). Routing is
  /// integer compares and a weight copy, so the output is identical at
  /// every level by construction.
  /// Over-read rule: only bins of the call's own records are read, as
  /// the last of them may be the last element of its column. A 32-bit
  /// gather of a 16-bit bin reads two bins, so lane i >= 1 loads the pair
  /// that ends at its bin (records r - 1 and r, both in the call) and lane
  /// 0 the pair that starts at it (records r and r + 1); a one-record call
  /// runs the scalar steps.
  void (*traverse_block)(const FlatTreeView& tree,
                         const std::uint16_t* const* columns,
                         std::uint64_t first_record, std::size_t count,
                         double* weights);

  /// Step 5's logistic refresh of n rows (LogisticLoss::refresh). For i in
  /// [0, n):
  ///   preds[i] += deltas[i]                  (float add; skipped when
  ///                                           `deltas` is null)
  ///   p = 1 / (1 + exp(-(double)preds[i]))
  ///   grads[2i] = (float)(p - labels[i])
  ///   grads[2i + 1] = (float)max(p * (1 - p), 1e-16)
  /// and, when `with_loss`, returns sum_i round(v_i * inv_quantum) * quantum
  /// for the loss term v_i = -log(pc) (label 1), -log(1 - pc) (label 0), or
  /// -(y log(pc) + (1 - y) log(1 - pc)) (any other label), with pc = p
  /// clamped to [1e-15, 1 - 1e-15]; round is to nearest even, i.e.
  /// nearbyint under the default rounding mode. Returns 0 otherwise. The
  /// terms sit on the quantum grid, so the sum is exact in any order.
  /// exp and log are the in-repo functions below, the same IEEE operations
  /// at every level -- one body over 1, 4 or 8 lanes -- so every output is
  /// bit-identical across levels by construction.
  double (*logistic_refresh)(float* preds, const float* deltas,
                             const float* labels, std::size_t n,
                             float* grads, bool with_loss,
                             double inv_quantum, double quantum);

  /// Record-tile width the tile loop hands traverse_block at this level:
  /// 16 scalar lanes (scalar and AVX2), two 16-lane groups at AVX-512 --
  /// enough independent chains to overlap their load latency.
  unsigned predict_tile = 16;
};

/// The in-repo exp and log that logistic_refresh runs on, at the scalar
/// level (one lane of the kernel's body). They are built only from IEEE
/// + - * /, compares, selects and bit operations, never a contracted
/// multiply-add or an int64 -> double conversion, so every level computes
/// the same bits. exp: Cody-Waite reduction by ln 2, a degree-13 Taylor
/// polynomial, 2^k applied as two exact power-of-two factors. log:
/// fdlibm's reduction to [sqrt(2)/2, sqrt(2)) and its Lg1..Lg7 series.
/// Both handle +-0, subnormals and +-inf as the C library does, and give
/// NaN for a NaN (and log for a negative) argument.
/// Agreement with the C library is measured, not guaranteed: over seeded
/// sweeps both stay within 1 ulp of std::exp / std::log (test_loss), and
/// the step-5 outputs of every training run measured so far matched
/// glibc's bit for bit (CHANGES.md).
double exp(double x);
double log(double x);

/// One row of logistic_refresh at the scalar level, before quantization:
/// the float {g, h} pair and, when `with_loss`, the unrounded loss term
/// (0 otherwise). gbdt::LogisticLoss's per-row calls run through this, so
/// they follow the kernel's math bit for bit.
struct LogisticTerms {
  float g = 0.0f;
  float h = 0.0f;
  double loss = 0.0;
};
LogisticTerms logistic_terms(float pred, float label, bool with_loss);

/// Kernel table of the active level.
const Kernels& kernels();

/// Kernel table of a specific level; falls back to scalar when the level is
/// not compiled in or not supported by this host.
const Kernels& kernels(Level level);

namespace detail {
/// Defined in simd_avx2.cc / simd_avx512.cc: the level's table, or nullptr
/// when the toolchain could not compile that ISA (the TU then contains only
/// this stub, keeping the dispatch logic flag-free).
const Kernels* avx2_kernel_table();
const Kernels* avx512_kernel_table();
}  // namespace detail

}  // namespace booster::util::simd

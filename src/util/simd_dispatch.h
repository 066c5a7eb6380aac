#ifndef JURYOPT_UTIL_SIMD_DISPATCH_H_
#define JURYOPT_UTIL_SIMD_DISPATCH_H_

#include <cstddef>
#include <cstdint>

namespace jury::simd {

/// \brief Instruction-set level of the active kernel table.
///
/// The innermost numeric kernels of the JQ engine — the Poisson-binomial
/// batched candidate evaluation, the bucketed-key batched
/// convolve-positive-mass, and the batched remove/swap folds — are lifted
/// behind a function-pointer table selected once at startup:
///
///  * `kScalar` — the portable reference implementation. Every other level
///    is bit-identical to it (no FMA contraction, no reassociation: each
///    candidate's arithmetic runs the same operations in the same order,
///    only across SIMD lanes), so dispatch can never change a solver's
///    answer — the determinism contract the whole solver suite is built
///    on. This is also the only level guaranteed to exist.
///  * `kAvx2` — 4-wide AVX2 variants, compiled only when the toolchain
///    supports `-mavx2` (CMake option `JURYOPT_ENABLE_AVX2`) and selected
///    only when cpuid reports AVX2 at runtime.
///
/// Selection: the `JURYOPT_SIMD` environment variable (`scalar` | `avx2`,
/// case-insensitive) when set — an unavailable request falls back to
/// scalar, an unrecognized token logs one warning and falls back to
/// autodetection — otherwise the best level the CPU supports. The choice
/// is made once, on first use; `SetLevel` rebinds it for tests and
/// benchmarks.
enum class Level : int {
  kScalar = 0,
  kAvx2 = 1,
};

/// \brief The dispatched kernel table. All function pointers are non-null.
///
/// Contracts (each bit-identical to the scalar reference):
///  * `fused_step(a, b, p, acc, n)` —
///      `acc[j] += a * (1.0 - p[j]) + b * p[j]` for `j in [0, n)`.
///    The inner step of `PoissonBinomial::EvaluateBatch`: `a`/`b` are two
///    adjacent committed pmf entries hoisted to scalars, `p` the candidate
///    probabilities, `acc` the per-candidate cumulative accumulators.
///  * `convolve_mass(f, span, bs, qs, count, out)` —
///    for each candidate `(bs[j] >= 0, qs[j])` against the parity-compact
///    key pmf `f` (span + 1 slots, slot i holding key 2i - span; see
///    `BucketKeyDistribution`), `out[j]` = the positive mass
///    `0.5 * g[key 0] + sum_{key >= 1} g[key]` of the span + b
///    convolution `g[i] = f[i - b] * q + f[i] * (1 - q)` (slots outside
///    [0, span] read as zero), accumulated in the canonical four-chain
///    order of util/simd_kernels_inl.h — exactly
///    `{copy; copy.Convolve(b, q); copy.PositiveMass()}` on a
///    `BucketKeyDistribution`, term for term. `b == 0` candidates return
///    the committed mass verbatim.
///  * `remove_query(pmf, n, p, count, tail_k, cdf_k, tails, cdfs)` —
///    for each candidate probability `p[j]` (pre-clamped to [0, 1]),
///    queries of the n-1-trial distribution obtained by deconvolving one
///    Bernoulli(p[j]) trial out of the n-trial Poisson-binomial `pmf`
///    (n + 1 entries):
///      `tails[j] = Pr[X' >= tail_k]`, `cdfs[j] = Pr[X' <= cdf_k]`,
///    either output nullable. Bit-identical to `{copy; copy.RemoveTrial(p);
///    copy.TailAtLeast(tail_k); copy.CdfAtMost(cdf_k)}`: the same
///    regime-split recurrences (forward for p < 1/2, backward for
///    p >= 1/2, exact inverses for p in {0, 1}), the same per-entry
///    clamps, and the same cumulative summation orders (descending for
///    tails, ascending for cdfs, final min(., 1)).
///  * `deconvolve_mass(f, span, bs, qs, count, out)` —
///    the remove-side twin of `convolve_mass`: for each candidate
///    `(bs[j], qs[j])` with `0 <= bs[j] <= span` and, for `bs[j] >= 1`,
///    `qs[j] in [0.5, 1]`, `out[j]` = the positive mass of the
///    parity-compact key pmf `f` (span + 1 slots) with that worker
///    deconvolved out — exactly `{copy; copy.Deconvolve(b, q);
///    copy.PositiveMass()}` on a `BucketKeyDistribution`: the same
///    backward recurrence `g[i] = (f[i+b] - (1-q) g[i+b]) / q` over the
///    span - b + 1 result slots from the top down, then the canonical
///    mass sweep over the shrunk span. `b == 0` candidates return the
///    committed mass verbatim. The vector paths spread the recurrence
///    across descending lane-width blocks — legal because slots b apart
///    are the only dependence, so a block never reads its own writes
///    once b >= lane width; narrower buckets run the shared scalar body.
///  * `hash_lanes(data, num_strides, lanes)` —
///    the pool-snapshot checksum inner loop: for each 64-byte stride `s`
///    of `data` and each lane `l in [0, 8)`,
///      `lanes[l] = rotl64(lanes[l], 29) ^ word(s, l)`
///    where `word(s, l)` is the stride's l-th little-endian u64. Pure
///    integer arithmetic, so every level computes the identical lane
///    values; the vector levels just carry the eight lanes in wide
///    registers instead of a serial chain, which is what lets a checksum
///    verify run at memory bandwidth.
///  * `audit_pool_columns(quality, cost, norm_quality, log_odds, n)` —
///    returns nonzero iff any index violates the pool-snapshot column
///    invariants: `quality in [0, 1]`, `cost in [0, DBL_MAX]`,
///    `norm_quality == max(quality, 1 - quality)`, `log_odds` finite.
///    The comparisons double as NaN checks (NaN fails every ordered
///    compare). Only the zero/nonzero outcome is the contract; all
///    levels agree on it because the predicates are exact IEEE compares.
///  * `audit_monotone_u64(values, n)` —
///    returns nonzero iff `values[i + 1] < values[i]` (unsigned) for any
///    `i in [0, n)`; reads `n + 1` entries.
struct KernelTable {
  const char* name;
  void (*fused_step)(double a, double b, const double* p, double* acc,
                     std::size_t n);
  void (*convolve_mass)(const double* f, std::int64_t span,
                        const std::int64_t* bs, const double* qs,
                        std::size_t count, double* out);
  void (*remove_query)(const double* pmf, int n, const double* p,
                       std::size_t count, int tail_k, int cdf_k,
                       double* tails, double* cdfs);
  void (*deconvolve_mass)(const double* f, std::int64_t span,
                          const std::int64_t* bs, const double* qs,
                          std::size_t count, double* out);
  void (*hash_lanes)(const unsigned char* data, std::size_t num_strides,
                     std::uint64_t* lanes);
  std::uint64_t (*audit_pool_columns)(const double* quality,
                                      const double* cost,
                                      const double* norm_quality,
                                      const double* log_odds, std::size_t n);
  std::uint64_t (*audit_monotone_u64)(const std::uint64_t* values,
                                      std::size_t n);
};

/// The active kernel table (selected on first use; see `Level`).
const KernelTable& Kernels();

/// The level `Kernels()` currently points at.
Level ActiveLevel();

/// True when the AVX2 kernels are compiled in *and* the CPU reports AVX2.
bool Avx2Available();

/// Parses a `JURYOPT_SIMD` token (case-insensitive `scalar` | `avx2`) into
/// a level. Returns false on an unrecognized token, leaving `*out`
/// untouched. Exposed for tests; availability is not checked here.
bool ParseLevel(const char* token, Level* out);

/// Rebinds the active table. Returns false (leaving the scalar table
/// active) when `level` is unavailable on this build/CPU. Not synchronized
/// against in-flight kernel calls — a test/bench hook, to be called from
/// quiesced states only (kernels are bit-identical across levels, so a
/// racing reader still computes correct results; only its attribution
/// would be stale).
bool SetLevel(Level level);

const char* LevelName(Level level);

}  // namespace jury::simd

#endif  // JURYOPT_UTIL_SIMD_DISPATCH_H_

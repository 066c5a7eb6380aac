// AVX2 variants of the dispatched JQ kernels (see simd_dispatch.h). This
// is the only translation unit built with -mavx2 (CMake gates it behind
// JURYOPT_ENABLE_AVX2 + a compiler check, defining JURYOPT_HAVE_AVX2);
// the table below is reachable only after a runtime cpuid check.
//
// Bit-identity with the scalar table is a hard contract: every candidate's
// arithmetic runs the same IEEE operations in the same order — the vector
// paths only spread *independent candidates* across the 4 lanes (their
// accumulation chains never mix), and no FMA contraction can occur
// (-mavx2 does not enable FMA, and the kernels use explicit mul/add
// intrinsics). Candidates a vector path does not cover — b == 0 keys,
// degenerate p in {0, 1}, sub-block tails — run the shared scalar bodies
// from simd_kernels_inl.h.

#if defined(JURYOPT_HAVE_AVX2)

#include <immintrin.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/simd_dispatch.h"
#include "util/simd_kernels_inl.h"

namespace jury::simd {
namespace {

constexpr std::size_t kLanes = 4;

void FusedStepAvx2(double a, double b, const double* p, double* acc,
                   std::size_t n) {
  const __m256d va = _mm256_set1_pd(a);
  const __m256d vb = _mm256_set1_pd(b);
  const __m256d ones = _mm256_set1_pd(1.0);
  std::size_t j = 0;
  for (; j + kLanes <= n; j += kLanes) {
    const __m256d pj = _mm256_loadu_pd(p + j);
    // a*(1-p) + b*p with the scalar kernel's exact operation order.
    const __m256d term =
        _mm256_add_pd(_mm256_mul_pd(va, _mm256_sub_pd(ones, pj)),
                      _mm256_mul_pd(vb, pj));
    _mm256_storeu_pd(acc + j,
                     _mm256_add_pd(_mm256_loadu_pd(acc + j), term));
  }
  for (; j < n; ++j) {
    acc[j] += a * (1.0 - p[j]) + b * p[j];
  }
}

// ---------------------------------------------------------------------------
// convolve_mass: per candidate, the canonical four-chain interleaved mass
// (see simd_kernels_inl.h) with the four chains in one 4-lane accumulator
// — two contiguous unaligned loads per 4 positive slots, no gathers. The
// batch stages f once into a zero-padded scratch buffer so the per-slot
// bounds checks vanish (out-of-range slots read an exact 0.0, which is
// what the generic body's checks return), and the loop tail runs the
// shared scalar chain code — so every candidate reproduces the scalar
// kernel bit for bit.
// ---------------------------------------------------------------------------

/// Vector body of `ConvolveMassOnePadded`: lane r carries chain r.
double ConvolveMassOneAvx2(const double* center, std::int64_t s,
                           std::int64_t b, double q) {
  const double omq = 1.0 - q;
  const std::int64_t ns = s + b;
  const std::int64_t first = internal::FirstPositiveSlot(ns);
  const std::int64_t n = ns + 1 - first;  // positive slots
  const double* lo = center + first - b;
  const double* hi = center + first;
  const __m256d vq = _mm256_set1_pd(q);
  const __m256d vomq = _mm256_set1_pd(omq);
  __m256d vacc = _mm256_setzero_pd();
  std::int64_t m = 0;
  for (; m + 4 <= n; m += 4) {
    const __m256d t1 = _mm256_mul_pd(_mm256_loadu_pd(lo + m), vq);
    const __m256d t2 = _mm256_mul_pd(_mm256_loadu_pd(hi + m), vomq);
    vacc = _mm256_add_pd(vacc, _mm256_add_pd(t1, t2));
  }
  alignas(32) double chains[internal::kMassChains];
  _mm256_store_pd(chains, vacc);
  for (; m < n; ++m) {
    chains[m & 3] += lo[m] * q + hi[m] * omq;
  }
  return internal::ConvolvedHalfZero(center, ns, b, q) +
         internal::CombineMassChains(chains);
}

void ConvolveMassAvx2(const double* f, std::int64_t span,
                      const std::int64_t* bs, const double* qs,
                      std::size_t count, double* out) {
  internal::ConvolveMassBatch(f, span, bs, qs, count, out,
                              &ConvolveMassOneAvx2);
}

// ---------------------------------------------------------------------------
// deconvolve_mass: per candidate, the backward recurrence of
// `DeconvolveMassOneRow` in descending 4-lane blocks — legal whenever
// b >= 4, because a slot only depends on the slot b above it, so a block
// never reads its own writes; each lane runs the identical sub/mul/div
// sequence the scalar body runs on that slot. The mass sweep is the
// canonical four chains in one 4-lane accumulator (the structure of
// `ConvolveMassOneAvx2`, minus the convolution terms). Narrower buckets
// (b < 4) fall back to the shared scalar body.
// ---------------------------------------------------------------------------

/// `internal::CommittedMass` with the four chains in one 4-lane
/// accumulator: lane r still takes the positive slots with m % 4 == r in
/// ascending order, and the chains combine in the canonical scalar order.
double MassSweepAvx2(const double* row, std::int64_t ns) {
  const std::int64_t first = internal::FirstPositiveSlot(ns);
  const double* pos = row + first;
  const std::int64_t n = ns + 1 - first;  // positive slots
  __m256d vacc = _mm256_setzero_pd();
  std::int64_t m = 0;
  for (; m + 4 <= n; m += 4) {
    vacc = _mm256_add_pd(vacc, _mm256_loadu_pd(pos + m));
  }
  alignas(32) double chains[internal::kMassChains];
  _mm256_store_pd(chains, vacc);
  for (; m < n; ++m) chains[m & 3] += pos[m];
  return internal::HalfZeroKey(row, ns) + internal::CombineMassChains(chains);
}

/// Vector body of `DeconvolveMassOneRow`: same row geometry (top-b pad
/// zeroed by the batch), descending 4-lane blocks when b >= 4.
double DeconvolveMassOneAvx2(const double* f, std::int64_t s, std::int64_t b,
                             double q, double* row) {
  const double omq = 1.0 - q;
  const std::int64_t ns = s - b;
  constexpr std::int64_t kWidth = static_cast<std::int64_t>(kLanes);
  std::int64_t i = ns;
  if (b >= kWidth) {
    const __m256d vq = _mm256_set1_pd(q);
    const __m256d vomq = _mm256_set1_pd(omq);
    for (; i + 1 >= kWidth; i -= kWidth) {
      const std::int64_t lo = i - kWidth + 1;
      const __m256d vf = _mm256_loadu_pd(f + lo + b);
      const __m256d vr = _mm256_loadu_pd(row + lo + b);
      _mm256_storeu_pd(
          row + lo,
          _mm256_div_pd(_mm256_sub_pd(vf, _mm256_mul_pd(vomq, vr)), vq));
    }
  }
  for (; i >= 0; --i) {
    row[i] = (f[i + b] - omq * row[i + b]) / q;
  }
  return MassSweepAvx2(row, ns);
}

void DeconvolveMassAvx2(const double* f, std::int64_t span,
                        const std::int64_t* bs, const double* qs,
                        std::size_t count, double* out) {
  internal::DeconvolveMassBatch(f, span, bs, qs, count, out,
                                &DeconvolveMassOneAvx2);
}

// ---------------------------------------------------------------------------
// remove_query: candidates grouped by deconvolution regime (forward for
// p < 1/2, backward for p >= 1/2), each group in 4-lane blocks. The
// recurrence is vectorized *across candidates* (lane l carries its own
// unclamped recurrence value), with the clamped rows staged in a
// lane-interleaved buffer G[k * 4 + l]; the tail/cdf partial sums then run
// over G in the scalar summation orders (descending / ascending in k), one
// independent chain per lane.
// ---------------------------------------------------------------------------

struct RemoveScratch {
  std::vector<double> g;             // lane-interleaved rows, n * 4
  std::vector<std::size_t> forward;  // candidate slots, 0 < p < 1/2
  std::vector<std::size_t> backward; // candidate slots, 1/2 <= p < 1
};

RemoveScratch& Scratch() {
  static thread_local RemoveScratch scratch;
  return scratch;
}

/// One 4-lane block: `slots` are the candidate indices, `pad` lanes at the
/// end replicate a safe probability and have their outputs discarded.
void RemoveQueryBlockAvx2(const double* f, int n, const double* p,
                          const std::size_t* slots, std::size_t active,
                          bool forward_regime, int tail_k, int cdf_k,
                          double* tails, double* cdfs, double* g) {
  const std::size_t entries = static_cast<std::size_t>(n);
  alignas(32) double lane_p[kLanes];
  const double pad = forward_regime ? 0.25 : 0.75;  // div-safe, discarded
  for (std::size_t l = 0; l < kLanes; ++l) {
    lane_p[l] = l < active ? p[slots[l]] : pad;
  }
  const __m256d vp = _mm256_load_pd(lane_p);
  const __m256d ones = _mm256_set1_pd(1.0);
  const __m256d zeros = _mm256_setzero_pd();
  const __m256d vomp = _mm256_sub_pd(ones, vp);

  if (forward_regime) {
    // carry = (f[k] - p * carry) / (1 - p), stored clamped — RemoveTrial's
    // forward recurrence, lane-parallel.
    __m256d carry = zeros;
    for (std::size_t k = 0; k < entries; ++k) {
      carry = _mm256_div_pd(
          _mm256_sub_pd(_mm256_set1_pd(f[k]), _mm256_mul_pd(vp, carry)),
          vomp);
      _mm256_storeu_pd(
          g + k * kLanes,
          _mm256_min_pd(_mm256_max_pd(carry, zeros), ones));
    }
  } else {
    // carry = (f[k] - (1 - p) * carry) / p, k descending, row k-1 stored.
    __m256d carry = zeros;
    for (std::size_t k = entries; k > 0; --k) {
      carry = _mm256_div_pd(
          _mm256_sub_pd(_mm256_set1_pd(f[k]), _mm256_mul_pd(vomp, carry)),
          vp);
      _mm256_storeu_pd(
          g + (k - 1) * kLanes,
          _mm256_min_pd(_mm256_max_pd(carry, zeros), ones));
    }
  }

  alignas(32) double lane_out[kLanes];
  if (tails != nullptr) {
    if (tail_k <= 0) {
      for (std::size_t l = 0; l < active; ++l) tails[slots[l]] = 1.0;
    } else if (tail_k > n - 1) {
      for (std::size_t l = 0; l < active; ++l) tails[slots[l]] = 0.0;
    } else {
      __m256d acc = zeros;
      for (std::size_t k = entries; k > static_cast<std::size_t>(tail_k);
           --k) {
        acc = _mm256_add_pd(acc, _mm256_loadu_pd(g + (k - 1) * kLanes));
      }
      acc = _mm256_min_pd(acc, ones);
      _mm256_store_pd(lane_out, acc);
      for (std::size_t l = 0; l < active; ++l) tails[slots[l]] = lane_out[l];
    }
  }
  if (cdfs != nullptr) {
    if (cdf_k < 0) {
      for (std::size_t l = 0; l < active; ++l) cdfs[slots[l]] = 0.0;
    } else {
      const std::size_t kk =
          std::min(static_cast<std::size_t>(cdf_k), entries - 1);
      __m256d acc = zeros;
      for (std::size_t k = 0; k <= kk; ++k) {
        acc = _mm256_add_pd(acc, _mm256_loadu_pd(g + k * kLanes));
      }
      acc = _mm256_min_pd(acc, ones);
      _mm256_store_pd(lane_out, acc);
      for (std::size_t l = 0; l < active; ++l) cdfs[slots[l]] = lane_out[l];
    }
  }
}

void RemoveQueryAvx2(const double* pmf, int n, const double* p,
                     std::size_t count, int tail_k, int cdf_k, double* tails,
                     double* cdfs) {
  RemoveScratch& scratch = Scratch();
  scratch.g.resize(static_cast<std::size_t>(n) * kLanes);
  scratch.forward.clear();
  scratch.backward.clear();
  for (std::size_t j = 0; j < count; ++j) {
    const double pj = p[j];
    if (pj == 0.0 || pj == 1.0) {
      // Exact inverses: one shared scalar row (rare in real pools).
      static thread_local std::vector<double> row;
      row.resize(static_cast<std::size_t>(n));
      internal::RemoveTrialRow(pmf, n, pj, row.data());
      if (tails != nullptr) {
        tails[j] = internal::TailFromRow(row.data(),
                                         static_cast<std::size_t>(n), tail_k);
      }
      if (cdfs != nullptr) {
        cdfs[j] = internal::CdfFromRow(row.data(),
                                       static_cast<std::size_t>(n), cdf_k);
      }
    } else if (pj < 0.5) {
      scratch.forward.push_back(j);
    } else {
      scratch.backward.push_back(j);
    }
  }
  for (int regime = 0; regime < 2; ++regime) {
    const bool forward = regime == 0;
    const std::vector<std::size_t>& slots =
        forward ? scratch.forward : scratch.backward;
    for (std::size_t begin = 0; begin < slots.size(); begin += kLanes) {
      const std::size_t active = std::min(kLanes, slots.size() - begin);
      RemoveQueryBlockAvx2(pmf, n, p, slots.data() + begin, active, forward,
                           tail_k, cdf_k, tails, cdfs, scratch.g.data());
    }
  }
}

// rotl64 for 4 packed u64 (AVX2 has no vprolq; shift-shift-or).
inline __m256i Rotl29Avx2(__m256i v) {
  return _mm256_or_si256(_mm256_slli_epi64(v, 29), _mm256_srli_epi64(v, 35));
}

void HashLanesAvx2(const unsigned char* data, std::size_t num_strides,
                   std::uint64_t* lanes) {
  // The eight lanes ride in two 4-wide registers; each stride update is
  // the scalar recurrence `lane = rotl(lane, 29) ^ word` run on all
  // lanes at once — pure integer ops, identical values to the reference.
  __m256i lo = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(lanes));
  __m256i hi =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(lanes + 4));
  for (std::size_t s = 0; s < num_strides; ++s) {
    const __m256i* stride =
        reinterpret_cast<const __m256i*>(data + 64 * s);
    lo = _mm256_xor_si256(Rotl29Avx2(lo), _mm256_loadu_si256(stride));
    hi = _mm256_xor_si256(Rotl29Avx2(hi), _mm256_loadu_si256(stride + 1));
  }
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(lanes), lo);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(lanes + 4), hi);
}

std::uint64_t AuditPoolColumnsAvx2(const double* quality, const double* cost,
                                   const double* norm_quality,
                                   const double* log_odds, std::size_t n) {
  const __m256d zero = _mm256_set1_pd(0.0);
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d dmax = _mm256_set1_pd(std::numeric_limits<double>::max());
  const __m256d dmin = _mm256_set1_pd(std::numeric_limits<double>::lowest());
  __m256d viol = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    const __m256d q = _mm256_loadu_pd(quality + i);
    const __m256d c = _mm256_loadu_pd(cost + i);
    const __m256d nq = _mm256_loadu_pd(norm_quality + i);
    const __m256d lo = _mm256_loadu_pd(log_odds + i);
    // ok-masks use ordered compares, so NaN lanes come out not-ok.
    const __m256d q_ok = _mm256_and_pd(_mm256_cmp_pd(q, zero, _CMP_GE_OQ),
                                       _mm256_cmp_pd(q, one, _CMP_LE_OQ));
    const __m256d c_ok = _mm256_and_pd(_mm256_cmp_pd(c, zero, _CMP_GE_OQ),
                                       _mm256_cmp_pd(c, dmax, _CMP_LE_OQ));
    const __m256d nq_ok = _mm256_cmp_pd(
        nq, _mm256_max_pd(q, _mm256_sub_pd(one, q)), _CMP_EQ_OQ);
    const __m256d lo_ok = _mm256_and_pd(_mm256_cmp_pd(lo, dmin, _CMP_GE_OQ),
                                        _mm256_cmp_pd(lo, dmax, _CMP_LE_OQ));
    const __m256d all_ok =
        _mm256_and_pd(_mm256_and_pd(q_ok, c_ok), _mm256_and_pd(nq_ok, lo_ok));
    // A lane is a violation when its ok-mask is not all-ones.
    viol = _mm256_or_pd(
        viol, _mm256_xor_pd(all_ok, _mm256_castsi256_pd(
                                        _mm256_set1_epi64x(-1))));
  }
  std::uint64_t bad =
      static_cast<std::uint64_t>(_mm256_movemask_pd(viol) != 0);
  bad |= internal::AuditPoolColumnsRange(quality, cost, norm_quality,
                                         log_odds, i, n);
  return bad;
}

std::uint64_t AuditMonotoneU64Avx2(const std::uint64_t* values,
                                   std::size_t n) {
  // AVX2 only has signed 64-bit compares; flipping the sign bit of both
  // operands turns signed GT into unsigned GT.
  const __m256i sign = _mm256_set1_epi64x(
      static_cast<long long>(0x8000000000000000ull));
  __m256i viol = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    const __m256i prev = _mm256_xor_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(values + i)),
        sign);
    const __m256i next = _mm256_xor_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(values + i + 1)),
        sign);
    viol = _mm256_or_si256(viol, _mm256_cmpgt_epi64(prev, next));
  }
  std::uint64_t bad = static_cast<std::uint64_t>(
      _mm256_movemask_epi8(viol) != 0);
  bad |= internal::AuditMonotoneU64Range(values, i, n);
  return bad;
}

constexpr KernelTable kAvx2Table{
    "avx2",
    &FusedStepAvx2,
    &ConvolveMassAvx2,
    &RemoveQueryAvx2,
    &DeconvolveMassAvx2,
    &HashLanesAvx2,
    &AuditPoolColumnsAvx2,
    &AuditMonotoneU64Avx2,
};

}  // namespace

const KernelTable& Avx2Table() { return kAvx2Table; }

}  // namespace jury::simd

#endif  // JURYOPT_HAVE_AVX2

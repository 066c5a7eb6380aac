#ifndef JURYOPT_UTIL_SIMD_KERNELS_INL_H_
#define JURYOPT_UTIL_SIMD_KERNELS_INL_H_

// Shared per-candidate scalar bodies of the dispatched kernels (see
// simd_dispatch.h for the contracts). The scalar kernel table is a loop
// over these; the AVX2 table reuses them for candidates its vector paths
// do not cover (b == 0 keys, degenerate p in {0, 1}, sub-block tails), so
// every level agrees with the reference arithmetic by construction.

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

namespace jury::simd::internal {

// The key pmf stores one slot per live key: after folding buckets that sum
// to the span s, every reachable key has the parity of s, so slot i holds
// key 2i - s (s + 1 slots for keys [-s, s]). Positive keys are slots
// floor(s/2) + 1 .. s; key 0 is slot s/2 when s is even and is not stored
// when s is odd.
//
// The canonical positive-mass accumulation order: 0.5 * g[key 0] plus FOUR
// interleaved partial sums over the positive slots (chain r takes the m-th
// positive slot, m = 0, 1, ..., when m % 4 == r), combined as
// (c0 + c1) + (c2 + c3). Every mass consumer —
// `BucketKeyDistribution::PositiveMass`, the fused convolve/deconvolve
// folds, and both kernel tables — uses exactly this order; the AVX2
// kernels carry the four chains in one 4-lane accumulator, so every level
// matches the scalar reference bit for bit.
//
// This is the historical eight-chain order over all 2s + 1 keys (chain
// (key - 1) % 8, combined ((s0+s1)+(s2+s3)) + ((s4+s5)+(s6+s7))) with its
// all-zero chains dropped. Positive keys of the live parity fill chains
// {0, 2, 4, 6} when s is odd and {1, 3, 5, 7} when s is even, in the
// same ascending order as chains 0..3 here; the other four chains only
// ever add the off-parity keys' exact +0.0. A chain starts at +0.0 and is
// never -0.0, so ((a + 0) + (b + 0)) == a + b, and the odd-span key-0 term
// 0.5 * (+0.0) adds nothing either: the masses keep their bits.
inline constexpr std::size_t kMassChains = 4;

/// Combines the four chain sums in the canonical order.
inline double CombineMassChains(const double* c) {
  return (c[0] + c[1]) + (c[2] + c[3]);
}

/// Slot of the smallest positive key of a span-`s` pmf.
inline std::int64_t FirstPositiveSlot(std::int64_t s) { return s / 2 + 1; }

/// `0.5 * f[key 0]` of a span-`s` pmf; 0.0 when key 0 is off the live
/// parity (s odd), where the all-key layout held an exact +0.0.
inline double HalfZeroKey(const double* f, std::int64_t s) {
  return s % 2 == 0 ? 0.5 * f[s / 2] : 0.0;
}

/// Positive mass of the committed key pmf `f` (span s, s + 1 slots):
/// `BucketKeyDistribution::PositiveMass` verbatim.
inline double CommittedMass(const double* f, std::int64_t s) {
  const std::int64_t first = FirstPositiveSlot(s);
  const double* pos = f + first;
  const std::int64_t n = s + 1 - first;  // positive slots
  double ch[kMassChains] = {0.0, 0.0, 0.0, 0.0};
  std::int64_t m = 0;
  for (; m + 4 <= n; m += 4) {
    ch[0] += pos[m];
    ch[1] += pos[m + 1];
    ch[2] += pos[m + 2];
    ch[3] += pos[m + 3];
  }
  for (; m < n; ++m) ch[m & 3] += pos[m];
  return HalfZeroKey(f, s) + CombineMassChains(ch);
}

/// `0.5 * g[key 0]` of the convolution of span `ns` = s + b, where
/// g[i] = center[i - b] * q + center[i] * (1 - q); 0.0 when key 0 is off
/// the live parity (ns odd).
inline double ConvolvedHalfZero(const double* center, std::int64_t ns,
                                std::int64_t b, double q) {
  if (ns % 2 != 0) return 0.0;
  const std::int64_t z = ns / 2;
  return 0.5 * (center[z - b] * q + center[z] * (1.0 - q));
}

/// One candidate of `convolve_mass` over a *zero-padded* pmf: `center`
/// points at slot 0 of a buffer where every slot in [-b, s + b] is
/// readable (committed slots inside [0, s], exact 0.0 outside — the
/// padding stands in for the bounds checks; adding a zero term is
/// bit-neutral for the masses involved). The convolution with
/// {+b: q, -b: 1-q} has span ns = s + b and slots
///   g[i] = center[i - b] * q + center[i] * (1 - q),
/// and this returns its positive mass in the canonical order. Requires
/// `b >= 1`.
inline double ConvolveMassOnePadded(const double* center, std::int64_t s,
                                    std::int64_t b, double q) {
  const double omq = 1.0 - q;
  const std::int64_t ns = s + b;
  const std::int64_t first = FirstPositiveSlot(ns);
  const std::int64_t n = ns + 1 - first;  // positive slots
  const double* lo = center + first - b;
  const double* hi = center + first;
  double ch[kMassChains] = {0.0, 0.0, 0.0, 0.0};
  std::int64_t m = 0;
  for (; m + 4 <= n; m += 4) {
    ch[0] += lo[m] * q + hi[m] * omq;
    ch[1] += lo[m + 1] * q + hi[m + 1] * omq;
    ch[2] += lo[m + 2] * q + hi[m + 2] * omq;
    ch[3] += lo[m + 3] * q + hi[m + 3] * omq;
  }
  for (; m < n; ++m) ch[m & 3] += lo[m] * q + hi[m] * omq;
  return ConvolvedHalfZero(center, ns, b, q) + CombineMassChains(ch);
}

/// Bounds-checked variant for candidates whose bucket is too large to pad
/// for (b beyond the batch padding cap): identical operation sequence,
/// with out-of-range reads returning the same exact 0.0 the padding
/// holds, so the two variants agree bit for bit wherever both apply.
inline double ConvolveMassOneGeneric(const double* f, std::int64_t s,
                                     std::int64_t b, double q) {
  const double omq = 1.0 - q;
  const std::int64_t ns = s + b;
  const std::int64_t first = FirstPositiveSlot(ns);
  const auto at = [&](std::int64_t slot) {
    return (slot >= 0 && slot <= s) ? f[static_cast<std::size_t>(slot)]
                                    : 0.0;
  };
  double ch[kMassChains] = {0.0, 0.0, 0.0, 0.0};
  for (std::int64_t i = first; i <= ns; ++i) {
    ch[(i - first) & 3] += at(i - b) * q + at(i) * omq;
  }
  const double half_zero =
      ns % 2 == 0 ? 0.5 * (at(ns / 2 - b) * q + at(ns / 2) * omq) : 0.0;
  return half_zero + CombineMassChains(ch);
}

/// Shared batch driver for the `convolve_mass` kernels: computes the
/// padding cap, stages `f` once into a zero-padded thread-local buffer
/// (the candidate bodies read slots [-max_b, s + max_b]), resolves b == 0
/// candidates to the lazily-computed committed mass and over-cap
/// candidates to the bounds-checked generic body, and routes the rest
/// through `body(center, s, b, q)` — the only piece that differs between
/// dispatch levels. Keeping the geometry in one place is what keeps the
/// levels' bit-identity structural.
template <typename PerCandidate>
inline void ConvolveMassBatch(const double* f, std::int64_t span,
                              const std::int64_t* bs, const double* qs,
                              std::size_t count, double* out,
                              const PerCandidate& body) {
  const std::int64_t s = span;
  // Padding cap: past this a candidate's zero-padding would balloon the
  // buffer, so it takes the bounds-checked body (bit-identical anyway).
  const std::int64_t b_cap = 2 * s + 64;
  std::int64_t max_b = 0;
  for (std::size_t j = 0; j < count; ++j) {
    if (bs[j] >= 1 && bs[j] <= b_cap) max_b = std::max(max_b, bs[j]);
  }
  static thread_local std::vector<double> padded;
  const double* center = nullptr;
  if (max_b > 0) {
    const std::size_t pad = static_cast<std::size_t>(max_b);
    const std::size_t committed_len = static_cast<std::size_t>(s + 1);
    padded.assign(pad + committed_len + pad, 0.0);
    std::copy(f, f + committed_len, padded.data() + pad);
    center = padded.data() + pad;
  }
  bool have_committed = false;
  double committed_mass = 0.0;  // lazy: only b == 0 candidates need it
  for (std::size_t j = 0; j < count; ++j) {
    const std::int64_t b = bs[j];
    if (b == 0) {
      // Convolve(0, q) is an exact no-op: the committed mass verbatim.
      if (!have_committed) {
        committed_mass = CommittedMass(f, span);
        have_committed = true;
      }
      out[j] = committed_mass;
    } else if (b <= b_cap) {
      out[j] = body(center, s, b, qs[j]);
    } else {
      out[j] = ConvolveMassOneGeneric(f, s, b, qs[j]);
    }
  }
}

/// One candidate of `deconvolve_mass` over a zero-padded row buffer:
/// removes the worker `(b >= 1, q in [0.5, 1])` from the committed key pmf
/// `f` (span s, s + 1 slots) by the backward recurrence of
/// `BucketKeyDistribution::Deconvolve` and returns the positive mass of
/// the shrunk (span ns = s - b) result — `{copy; copy.Deconvolve(b, q);
/// copy.PositiveMass()}` bit for bit.
///
/// `row` must hold s + 1 slots with the top b (slots ns + 1 .. s) zeroed
/// by `DeconvolveMassBatch`. The recurrence reads
///   row[i] = (f[i + b] - (1 - q) * row[i + b]) / q
/// descending from i = ns: for the top b slots `row[i + b]` is the zeroed
/// pad, and subtracting `(1 - q) * 0.0` is an exact identity, so these
/// slots equal `Deconvolve`'s `f[i + b] / q` and the pad replaces its
/// split loop bit-neutrally. Slots exactly b apart are the row's only
/// dependence, which is what lets the vector bodies run descending
/// lane-width blocks (legal once b >= lane width) over the very same
/// element arithmetic.
inline double DeconvolveMassOneRow(const double* f, std::int64_t s,
                                   std::int64_t b, double q, double* row) {
  const double omq = 1.0 - q;
  const std::int64_t ns = s - b;
  for (std::int64_t i = ns; i >= 0; --i) {
    row[i] = (f[i + b] - omq * row[i + b]) / q;
  }
  return CommittedMass(row, ns);
}

/// Shared batch driver for the `deconvolve_mass` kernels: stages one
/// thread-local row buffer of span + 1 slots, zeroes each candidate's
/// top-b pad, resolves b == 0 candidates to the lazily-computed committed
/// mass (Deconvolve(0, q) is an exact no-op), and routes the rest through
/// `body(f, s, b, q, row)` — the only piece that differs between dispatch
/// levels. Candidates must satisfy `0 <= bs[j] <= span` (checked by the
/// `BucketKeyDistribution` wrappers).
template <typename PerCandidate>
inline void DeconvolveMassBatch(const double* f, std::int64_t span,
                                const std::int64_t* bs, const double* qs,
                                std::size_t count, double* out,
                                const PerCandidate& body) {
  static thread_local std::vector<double> row;
  row.resize(static_cast<std::size_t>(span + 1));
  bool have_committed = false;
  double committed_mass = 0.0;  // lazy: only b == 0 candidates need it
  for (std::size_t j = 0; j < count; ++j) {
    const std::int64_t b = bs[j];
    if (b == 0) {
      if (!have_committed) {
        committed_mass = CommittedMass(f, span);
        have_committed = true;
      }
      out[j] = committed_mass;
      continue;
    }
    const std::int64_t ns = span - b;
    std::fill(row.data() + ns + 1, row.data() + span + 1, 0.0);
    out[j] = body(f, span, b, qs[j], row.data());
  }
}

/// Writes the deconvolution of one Bernoulli(p) trial out of the n-trial
/// Poisson-binomial pmf `f` (n + 1 entries) into `g` (n entries):
/// `PoissonBinomial::RemoveTrial` verbatim — the same regime split, the
/// same unclamped recurrence carry with per-entry [0, 1] clamps on the
/// stored values, and the exact inverses for p in {0, 1}. `p` must be
/// pre-clamped to [0, 1] and `n >= 1`.
inline void RemoveTrialRow(const double* f, int n, double p, double* g) {
  const std::size_t m = static_cast<std::size_t>(n);
  if (p == 0.0) {
    for (std::size_t k = 0; k < m; ++k) g[k] = f[k];  // identity
  } else if (p == 1.0) {
    for (std::size_t k = 0; k < m; ++k) g[k] = f[k + 1];  // pure shift
  } else if (p < 0.5) {
    // Forward recurrence g[k] = (f[k] - p g[k-1]) / (1-p); the carried
    // value stays unclamped, the stored one is clamped — as RemoveTrial.
    double prev = 0.0;
    for (std::size_t k = 0; k < m; ++k) {
      prev = (f[k] - p * prev) / (1.0 - p);
      g[k] = std::min(std::max(prev, 0.0), 1.0);
    }
  } else {
    // Backward recurrence g[k-1] = (f[k] - (1-p) g[k]) / p.
    double next = 0.0;
    for (std::size_t k = m; k > 0; --k) {
      next = (f[k] - (1.0 - p) * next) / p;
      g[k - 1] = std::min(std::max(next, 0.0), 1.0);
    }
  }
}

/// `TailAtLeast(k)` over a raw pmf row of `entries` entries (trial count
/// entries - 1): the descending accumulation order and final min(., 1)
/// clamp of `PoissonBinomial::RefreshCumulative`.
inline double TailFromRow(const double* g, std::size_t entries, int k) {
  if (k <= 0) return 1.0;
  if (k > static_cast<int>(entries) - 1) return 0.0;
  double acc = 0.0;
  for (std::size_t i = entries; i > static_cast<std::size_t>(k); --i) {
    acc += g[i - 1];
  }
  return std::min(acc, 1.0);
}

/// `CdfAtMost(k)` over a raw pmf row: ascending accumulation, min(., 1).
inline double CdfFromRow(const double* g, std::size_t entries, int k) {
  if (k < 0) return 0.0;
  const std::size_t kk =
      std::min(static_cast<std::size_t>(k), entries - 1);
  double acc = 0.0;
  for (std::size_t i = 0; i <= kk; ++i) acc += g[i];
  return std::min(acc, 1.0);
}

/// `hash_lanes` reference body over a stride range: lane `l` absorbs the
/// l-th little-endian u64 of each 64-byte stride as
/// `lane = rotl(lane, 29) ^ word`. The vector tables run the same update
/// on the same stride/lane layout, so the lane values are identical at
/// every level (pure integer arithmetic).
inline void HashLanesRange(const unsigned char* data,
                           std::size_t stride_begin, std::size_t stride_end,
                           std::uint64_t* lanes) {
  for (std::size_t s = stride_begin; s < stride_end; ++s) {
    const unsigned char* stride = data + 64 * s;
    for (int l = 0; l < 8; ++l) {
      std::uint64_t word;
      std::memcpy(&word, stride + 8 * l, sizeof(word));
      lanes[l] = std::rotl(lanes[l], 29) ^ word;
    }
  }
}

/// `audit_pool_columns` reference body over an index range. Branch-free
/// accumulate; the ordered compares double as NaN checks, and
/// `max(q, 1 - q)` is exactly `NormalizedQuality(q)` for q in [0, 1].
inline std::uint64_t AuditPoolColumnsRange(const double* quality,
                                           const double* cost,
                                           const double* norm_quality,
                                           const double* log_odds,
                                           std::size_t begin,
                                           std::size_t end) {
  std::uint64_t bad = 0;
  for (std::size_t i = begin; i < end; ++i) {
    const double q = quality[i];
    const double c = cost[i];
    const double lo = log_odds[i];
    bad |= static_cast<std::uint64_t>(!(q >= 0.0 && q <= 1.0));
    bad |= static_cast<std::uint64_t>(
        !(c >= 0.0 && c <= std::numeric_limits<double>::max()));
    bad |= static_cast<std::uint64_t>(
        norm_quality[i] != std::max(q, 1.0 - q));
    bad |= static_cast<std::uint64_t>(
        !(lo >= std::numeric_limits<double>::lowest() &&
          lo <= std::numeric_limits<double>::max()));
  }
  return bad;
}

/// `audit_monotone_u64` reference body over a pair range: nonzero iff
/// `values[i + 1] < values[i]` for some `i in [begin, end)`.
inline std::uint64_t AuditMonotoneU64Range(const std::uint64_t* values,
                                           std::size_t begin,
                                           std::size_t end) {
  std::uint64_t bad = 0;
  for (std::size_t i = begin; i < end; ++i) {
    bad |= static_cast<std::uint64_t>(values[i + 1] < values[i]);
  }
  return bad;
}

}  // namespace jury::simd::internal

#endif  // JURYOPT_UTIL_SIMD_KERNELS_INL_H_

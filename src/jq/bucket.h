#ifndef JURYOPT_JQ_BUCKET_H_
#define JURYOPT_JQ_BUCKET_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "model/jury.h"
#include "util/result.h"

namespace jury {

/// \brief Tuning knobs for `EstimateJq` (Algorithm 1 + Algorithm 2).
struct BucketJqOptions {
  /// Total number of buckets the range [0, max phi(q_i)] is divided into
  /// (`numBuckets`); the paper's experiments default to 50 (§6.1.1) and its
  /// error analysis uses numBuckets = d*n with d >= 200 for the <1% bound.
  int num_buckets = 50;
  /// Upper bound `Validate` enforces on `num_buckets`: the deconvolution
  /// tables scale with the bucket count, so an unchecked request-supplied
  /// count is a remote OOM. A million buckets is ~5000x the paper's
  /// default and far past the <1% error regime.
  static constexpr int kMaxBuckets = 1'000'000;

  /// Enables the Algorithm-2 sign-settled early termination.
  bool enable_pruning = true;

  /// §4.4 escape hatch: when some normalized quality exceeds this cutoff,
  /// phi(q) is huge and JQ in (cutoff, 1], so `EstimateJq` just returns the
  /// max such quality. Set to 1.0 to disable (then qualities are clamped by
  /// `EffectiveQuality` before the log-odds transform).
  double high_quality_cutoff = 0.99;

  /// Range-checks the knobs (>= 1 bucket, a cutoff in (0, 1]); the one
  /// definition every entry that consumes bucket options calls
  /// (`OptjsOptions::Validate`, the api-layer objective factory).
  Status Validate() const;
};

/// \brief Instrumentation filled in by `EstimateJq`.
struct BucketJqStats {
  /// Bucket width delta = upper / num_buckets.
  double delta = 0.0;
  /// Additive error bound e^{n*delta/4} - 1 for this run (§4.4);
  /// 0 when the high-quality escape hatch fired.
  double error_bound = 0.0;
  /// Distinct (key, prob) pairs expanded across all iterations.
  std::size_t keys_expanded = 0;
  /// Pairs settled early by pruning (both signs).
  std::size_t keys_pruned = 0;
  /// True when the high-quality escape hatch was taken.
  bool high_quality_shortcut = false;
};

/// \brief Approximate `JQ(J, BV, alpha)` — Algorithm 1 ("EstimateJQ") with
/// the Algorithm 2 pruning — in O(num_buckets * n^2) time.
///
/// Steps, following §4.2–4.5:
///  1. Theorem 3: fold the prior in as a pseudo-worker of quality alpha.
///  2. §3.3: normalize qualities below 0.5 by the flip reinterpretation.
///  3. Map each phi(q_i) = ln(q_i/(1-q_i)) to its nearest bucket
///     b_i = ceil(phi(q_i)/delta - 1/2), delta = max_i phi(q_i)/num_buckets.
///  4. Iterate workers, maintaining a map from the bucketed decision
///     statistic `key = sum +-b_i` to the aggregated probability
///     `sum e^{u(V)}` over votings reaching that key (Eq. 7).
///  5. JQ-hat = sum over keys>0 of prob + half the prob at key 0.
///
/// Guarantees (proved in the paper, §4.4, and property-tested here):
///   JQ-hat <= JQ(J, BV, alpha)   and   JQ - JQ-hat < e^{n*delta/4} - 1.
///
/// Errors: InvalidArgument for empty juries / bad alpha / bad workers,
/// never OutOfRange (polynomial in n).
Result<double> EstimateJq(const Jury& jury, double alpha,
                          const BucketJqOptions& options = {},
                          BucketJqStats* stats = nullptr);

/// \brief The Algorithm-1 DP state as a standalone value: a dense
/// distribution over the bucketed decision-statistic key `sum_i ±b_i`,
/// supporting O(span) worker insertion (convolution with the two-point
/// distribution {+b: q, -b: 1-q}) and O(span) removal (deconvolution).
///
/// This is what makes the incremental BV/bucket evaluator's per-move cost
/// O(n) instead of O(n^2): a solver move touches one worker, so the key
/// distribution of the neighbouring jury is one (de)convolution away.
///
/// Every fold adds ±b to every key, so once the folded buckets sum to the
/// span s, every reachable key has the parity of s and the other parity
/// holds exact zeros. The pmf stores only the live parity: slot i holds
/// key 2i - s, s + 1 doubles for keys [-s, s]. Each stored value, and
/// each term of every mass, is what a zero-filled table over all 2s + 1
/// keys with a scatter `Convolve` would hold and sum, in the same order,
/// so masses are bit-identical to that layout (tests/jq_bucket_test.cc
/// pins it against a full-key reference).
class BucketKeyDistribution {
 public:
  BucketKeyDistribution() { Reset(); }

  /// Copies transfer only the distribution (pmf + span), not the scratch
  /// buffer: sessions copy the committed distribution once per staged move
  /// (`scratch_dist_ = dist_`), and dragging the convolution scratch along
  /// would double that copy for no benefit.
  BucketKeyDistribution(const BucketKeyDistribution& other)
      : pmf_(other.pmf_), span_(other.span_) {}
  BucketKeyDistribution& operator=(const BucketKeyDistribution& other) {
    pmf_ = other.pmf_;  // reuses capacity
    span_ = other.span_;
    return *this;
  }
  BucketKeyDistribution(BucketKeyDistribution&&) = default;
  BucketKeyDistribution& operator=(BucketKeyDistribution&&) = default;

  /// Back to the empty product: a point mass at key 0.
  void Reset();

  /// Folds in a worker with bucket `b >= 0` and normalized quality
  /// `q in [0.5, 1]`: the key moves +b with probability q and -b with
  /// probability 1-q. `b == 0` is an exact no-op (the two shifts coincide).
  /// Gathers slot i of the result as `f[i-b]*q + f[i]*(1-q)`.
  void Convolve(std::int64_t b, double q);

  /// Inverse of `Convolve` for a worker previously folded in. Runs the
  /// backward recurrence `g[j] = (f[j+b] - (1-q) g[j+2b]) / q` over keys,
  /// `g[i] = (f[i+b] - (1-q) g[i+b]) / q` over slots, from the top down;
  /// the homogeneous error gain (1-q)/q never exceeds 1 because
  /// normalization guarantees q >= 1/2, so roundoff does not amplify.
  void Deconvolve(std::int64_t b, double q);

  /// `sum_{key > 0} Pr[key] + 0.5 Pr[key = 0]` — JQ-hat before the
  /// min(., 1) clamp (steps 21-25 of Algorithm 1). Accumulated in the
  /// canonical four-chain interleaved order shared by every mass
  /// consumer (util/simd_kernels_inl.h), so the fused batch kernels —
  /// including the AVX2 variant, which carries the four chains in one
  /// 4-lane accumulator — are bit-identical to this.
  double PositiveMass() const;

  /// \brief Fused batched candidate evaluation — the greedy-scan kernel
  /// for the BV/bucket backend.
  ///
  /// For each candidate worker `(bs[j], qs[j])` (bucket >= 0, normalized
  /// quality), computes the positive mass of this distribution convolved
  /// with that candidate, without copying or mutating anything:
  ///
  ///   out[j] = {copy = *this; copy.Convolve(bs[j], qs[j]);
  ///             copy.PositiveMass()}
  ///
  /// bit-for-bit (the per-slot convolution terms and PositiveMass's
  /// canonical interleaved summation replicate the scalar pair's
  /// arithmetic exactly). Where the scalar pair runs three O(span) memory
  /// passes per candidate (copy the pmf, gather the convolution, re-read
  /// for the mass sweep), the fused kernel runs one read-only pass over
  /// the positive half of contiguous storage per candidate — no scratch
  /// copy, no allocation, no per-candidate dispatch. Runs on the
  /// runtime-dispatched `convolve_mass` kernel (util/simd_dispatch.h):
  /// scalar reference or AVX2, bit-identical either way.
  void ConvolvePositiveMassBatch(const std::int64_t* bs, const double* qs,
                                 std::size_t count, double* out) const;

  /// \brief Fused remove-candidate evaluation — the remove fold of the
  /// unified move scan for the BV/bucket backend.
  ///
  /// Positive mass of this distribution with a previously-folded worker
  /// `(b, q)` deconvolved out, without copying or mutating anything:
  ///
  ///   {copy = *this; copy.Deconvolve(b, q); copy.PositiveMass()}
  ///
  /// bit-for-bit, in one backward-recurrence pass over a reused row plus
  /// the ascending mass sweep — where the scalar pair pays a full
  /// distribution copy first. Same preconditions as `Deconvolve`.
  /// Runs on the runtime-dispatched `deconvolve_mass` kernel
  /// (util/simd_dispatch.h) with a single-candidate batch.
  double DeconvolvePositiveMass(std::int64_t b, double q) const;

  /// \brief Batched remove-candidate evaluation — the remove/swap fold of
  /// the unified move scan for the BV/bucket backend.
  ///
  /// `out[j] = DeconvolvePositiveMass(bs[j], qs[j])` for each previously
  /// folded candidate, bit for bit, in one dispatched kernel call: the
  /// row buffer and the b == 0 committed mass are staged once for the
  /// whole batch, and the vector levels run the backward recurrence in
  /// descending lane-width blocks (see the `deconvolve_mass` contract).
  /// Preconditions per candidate: `0 <= bs[j] <= span()` and, for
  /// `bs[j] >= 1`, `qs[j] in [0.5, 1]`.
  void DeconvolvePositiveMassBatch(const std::int64_t* bs, const double* qs,
                                   std::size_t count, double* out) const;

  /// Current half-width of the key support (sum of folded buckets).
  std::int64_t span() const { return span_; }

 private:
  std::vector<double> pmf_;  // size span_+1; slot i holds key 2i - span_
  /// Preallocated flat buffer the (de)convolutions write into before
  /// swapping with `pmf_`: per-move updates reuse its capacity instead of
  /// allocating a fresh vector per call.
  std::vector<double> scratch_;
  std::int64_t span_ = 0;
};

/// The §4.4 additive bound `e^{n*delta/4} - 1`.
double BucketErrorBound(int n, double delta);

/// Smallest per-worker bucket multiplier d such that the §4.4 bound with
/// upper <= `upper` stays below `max_error` (`numBuckets = d * n`).
int RequiredBucketMultiplier(double upper, double max_error);

}  // namespace jury

#endif  // JURYOPT_JQ_BUCKET_H_

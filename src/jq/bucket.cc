#include "jq/bucket.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "jq/prior_transform.h"
#include "model/prior.h"
#include "model/worker.h"
#include "util/check.h"
#include "util/math.h"
#include "util/status.h"
#include "util/simd_dispatch.h"
#include "util/simd_kernels_inl.h"

namespace jury {

Status BucketJqOptions::Validate() const {
  if (num_buckets < 1) {
    return Status::InvalidArgument("bucket.num_buckets must be >= 1");
  }
  if (num_buckets > kMaxBuckets) {
    // The deconvolution tables are sized by the bucket count, so a
    // request-supplied count must not become an unbounded allocation.
    return Status::InvalidArgument("bucket.num_buckets must be <= 1000000");
  }
  if (!(high_quality_cutoff > 0.0) || !(high_quality_cutoff <= 1.0)) {
    return Status::InvalidArgument(
        "bucket.high_quality_cutoff must lie in (0, 1]");
  }
  return Status::OK();
}

namespace {

/// Sorted (bucket, quality) pair; workers are processed in decreasing bucket
/// order so the Algorithm-2 suffix bound settles keys as early as possible.
struct BucketedWorker {
  std::int64_t bucket = 0;
  double quality = 0.5;
};

/// Key-space size (2*span+1) above which the flat array would be
/// unreasonably large; `EstimateJq` falls back to the hash-map sweep. It
/// stays in key units although the dense sweep stores one slot per two
/// keys: moving it would move juries between the hash map's
/// iteration-order sums and the dense sweep's ascending ones, which
/// changes low-order bits of JQ-hat.
constexpr std::int64_t kDenseKeySpanLimit = 1 << 24;

/// Accumulates the final sweep (steps 21-25 of Algorithm 1): probability at
/// positive keys counts fully, probability at key zero counts half (the
/// symmetric tie case of Fig. 3).
class JqAccumulator {
 public:
  void AddSettledPositive(double prob) { jq_ += prob; }
  void AddFinal(std::int64_t key, double prob) {
    if (key > 0) {
      jq_ += prob;
    } else if (key == 0) {
      jq_ += 0.5 * prob;
    }
  }
  double value() const { return jq_; }

 private:
  double jq_ = 0.0;
};

/// Writes `nxt[j] = cur[j-c]*q + cur[j+d]*(1-q)` for every slot j in
/// [from, to], with both sources inside the live range. Returns the
/// number of nonzero entries written when `kCount`, else 0.
template <bool kCount>
std::size_t GatherBoth(const double* __restrict cur, double* __restrict nxt,
                       std::int64_t from, std::int64_t to, std::int64_t c,
                       std::int64_t d, double q) {
  const double down = 1.0 - q;
  std::size_t nonzero = 0;
  for (std::int64_t j = from; j <= to; ++j) {
    const double v = cur[j - c] * q + cur[j + d] * down;
    nxt[j] = v;
    if constexpr (kCount) nonzero += v > 0.0;
  }
  return nonzero;
}

/// `nxt[j] = cur[j + shift] * weight` for every slot j in [from, to]: the
/// window's edges, where only one source is live.
template <bool kCount>
std::size_t GatherOne(const double* __restrict cur, double* __restrict nxt,
                      std::int64_t from, std::int64_t to, std::int64_t shift,
                      double weight) {
  std::size_t nonzero = 0;
  for (std::int64_t j = from; j <= to; ++j) {
    const double v = cur[j + shift] * weight;
    nxt[j] = v;
    if constexpr (kCount) nonzero += v > 0.0;
  }
  return nonzero;
}

/// One Algorithm-1 pass over the dense (flat array) key representation.
///
/// Every step adds ±b_i to every key, so after i steps each reachable key
/// has the parity p of the prefix bucket sum P_i; the other parity holds
/// exact zeros. The buffers store only the live parity: key k sits in
/// slot j = (k - p)/2. A step with bucket b moves key 2j + p to
/// 2j + p ± b, which in the next parity's slots is j + c up and j - d
/// down, with c = floor((p + b)/2) and d = b - c. So the step gathers
/// `nxt[j] = cur[j-c]*q + cur[j+d]*(1-q)` over the live slot window,
/// where a source outside the support or settled by Algorithm 2 reads as
/// zero (b = 0 gives c = d = 0, the identity step).
///
/// Reported JQ bits depend on this equalling a zero-fill-then-scatter
/// sweep over all keys bit for bit, and it does. A scatter adds `prob*q`
/// from key k-b before `prob*(1-q)` from key k+b into a zeroed entry and
/// skips zero sources, and `0.0 + x == x`, so a one-source edge value is
/// the scatter's too. An off-parity key's sources are off-parity, so it
/// stays an exact zero, and skipping it drops no term: every `> 0.0`
/// test, and with it both `BucketJqStats` counters, sees the same values.
/// That needs unfused multiply-adds, which the top-level CMakeLists.txt
/// pins with -ffp-contract=off; -ffast-math would break it too. Settled
/// positive keys join the JQ sum step by step in ascending key order, and
/// the final sweep runs ascending, for the same reason.
///
/// Workers arrive sorted by decreasing bucket. After i steps every key
/// lies in [-P_i, P_i], and under pruning step i expands only keys in
/// [-R_i, R_i] (R_i = aggregate[i]), rounded inward to the live parity,
/// so it writes within ±(min(P_i, R_i) + b_i). With w the widest such
/// half-width, at most span/2 + max bucket, the buffers hold slots
/// [-(w/2 + 1), w/2 + 1]: at most w + 3 doubles each, where one entry
/// per key would take 2w + 1.
///
/// `kCount` fills the stats counters. Counting stops the gather loops
/// from vectorizing (about 2x slower), so only callers with stats pay it.
template <bool kCount>
double RunDenseWindowed(const std::vector<BucketedWorker>& ws,
                        const std::vector<std::int64_t>& aggregate,
                        bool pruning, BucketJqStats* stats) {
  std::int64_t width = 0;
  std::int64_t prefix = 0;
  for (std::size_t i = 0; i < ws.size(); ++i) {
    const std::int64_t reach =
        pruning ? std::min(prefix, aggregate[i]) : prefix;
    width = std::max(width, reach + ws[i].bucket);
    prefix += ws[i].bucket;
  }
  // Only entries inside the current support [lo, hi] are ever read, and
  // each step writes its whole new support, so neither buffer is
  // zero-filled: a fill would add a write pass over both per call.
  const std::int64_t half = width / 2 + 1;
  const std::size_t size = static_cast<std::size_t>(2 * half + 1);
  const auto cur_buf = std::make_unique_for_overwrite<double[]>(size);
  const auto nxt_buf = std::make_unique_for_overwrite<double[]>(size);
  double* cur = cur_buf.get() + half;  // cur[j] holds key 2j + parity
  double* nxt = nxt_buf.get() + half;
  cur[0] = 1.0;
  std::int64_t parity = 0;
  std::int64_t lo = 0;  // support, in slots
  std::int64_t hi = 0;
  // Nonzero entries of `cur`: the keys this step expands. Counted while
  // the previous step wrote them, so stats cost no extra sweep.
  std::size_t nonzero = 1;

  JqAccumulator acc;
  for (std::size_t i = 0; i < ws.size(); ++i) {
    const std::int64_t b = ws[i].bucket;
    const double q = ws[i].quality;
    if constexpr (kCount) stats->keys_expanded += nonzero;
    // Live source slots [from, to]; outside it, Algorithm 2 has settled
    // the sign: positive keys join the JQ sum, negative keys are dropped.
    std::int64_t from = lo;
    std::int64_t to = hi;
    if (pruning) {
      // Keys of the live parity in [-R_i, R_i] are slots [-h, h - parity].
      const std::int64_t h = (aggregate[i] + parity) / 2;
      from = std::max(lo, -h);
      to = std::min(hi, h - parity);
      if constexpr (kCount) {
        for (std::int64_t j = lo; j < from && j <= hi; ++j) {
          stats->keys_pruned += cur[j] > 0.0;
        }
      }
      for (std::int64_t j = std::max(lo, h - parity + 1); j <= hi; ++j) {
        if (cur[j] > 0.0) {
          acc.AddSettledPositive(cur[j]);
          if constexpr (kCount) ++stats->keys_pruned;
        }
      }
    }
    if (from > to) return acc.value();  // every key has settled
    // New support [from - d, to + c]. Source j-c is live for
    // j >= from + c, source j+d for j <= to - d.
    const std::int64_t c = (parity + b) / 2;
    const std::int64_t d = b - c;
    const std::int64_t up_from = from + c;
    const std::int64_t down_to = to - d;
    nonzero = 0;
    if (up_from <= down_to) {
      nonzero += GatherOne<kCount>(cur, nxt, from - d, up_from - 1, d,
                                   1.0 - q);
      nonzero += GatherBoth<kCount>(cur, nxt, up_from, down_to, c, d, q);
      nonzero += GatherOne<kCount>(cur, nxt, down_to + 1, to + c, -c, q);
    } else {
      nonzero += GatherOne<kCount>(cur, nxt, from - d, down_to, d, 1.0 - q);
      std::fill(nxt + down_to + 1, nxt + up_from, 0.0);
      nonzero += GatherOne<kCount>(cur, nxt, up_from, to + c, -c, q);
    }
    lo = from - d;
    hi = to + c;
    parity = (parity + b) & 1;
    std::swap(cur, nxt);
  }
  for (std::int64_t j = std::max<std::int64_t>(lo, 0); j <= hi; ++j) {
    if (cur[j] > 0.0) acc.AddFinal(2 * j + parity, cur[j]);
  }
  return acc.value();
}

double RunDense(const std::vector<BucketedWorker>& ws,
                const std::vector<std::int64_t>& aggregate, bool pruning,
                BucketJqStats* stats) {
  return stats != nullptr
             ? RunDenseWindowed<true>(ws, aggregate, pruning, stats)
             : RunDenseWindowed<false>(ws, aggregate, pruning, nullptr);
}

/// One Algorithm-1 pass over a hash map keyed by the integer bucket key:
/// the fallback for key spaces too large for the flat array.
double RunSparse(const std::vector<BucketedWorker>& ws,
                 const std::vector<std::int64_t>& aggregate, bool pruning,
                 BucketJqStats* stats) {
  std::unordered_map<std::int64_t, double> cur;
  std::unordered_map<std::int64_t, double> nxt;
  cur.emplace(0, 1.0);

  JqAccumulator acc;
  for (std::size_t i = 0; i < ws.size(); ++i) {
    nxt.clear();
    nxt.reserve(cur.size() * 2);
    const std::int64_t b = ws[i].bucket;
    const double q = ws[i].quality;
    const std::int64_t remaining = aggregate[i];
    for (const auto& [key, prob] : cur) {
      if (stats != nullptr) ++stats->keys_expanded;
      if (pruning) {
        if (key > 0 && key - remaining > 0) {
          acc.AddSettledPositive(prob);
          if (stats != nullptr) ++stats->keys_pruned;
          continue;
        }
        if (key < 0 && key + remaining < 0) {
          if (stats != nullptr) ++stats->keys_pruned;
          continue;
        }
      }
      nxt[key + b] += prob * q;          // v_i = 0
      nxt[key - b] += prob * (1.0 - q);  // v_i = 1
    }
    cur.swap(nxt);
  }
  for (const auto& [key, prob] : cur) acc.AddFinal(key, prob);
  return acc.value();
}

}  // namespace

void BucketKeyDistribution::Reset() {
  pmf_.assign(1, 1.0);
  span_ = 0;
}

void BucketKeyDistribution::Convolve(std::int64_t b, double q) {
  JURY_CHECK_GE(b, 0);
  if (b == 0) return;  // +0 and -0 coincide: exact identity
  const std::int64_t s = span_;
  const std::int64_t ns = s + b;
  // Key 2i - ns of the result gathers key 2i - ns - b (slot i - b) moved
  // up and key 2i - ns + b (slot i) moved down: g[i] = f[i-b]*q +
  // f[i]*(1-q), with one-source loops where the other slot lies outside
  // [0, s]. Every slot is written, so only the gap between the two
  // one-source ranges (b > s + 1) is zero-filled; `resize` reuses the
  // scratch capacity once the session has seen its largest span.
  scratch_.resize(static_cast<std::size_t>(ns + 1));
  const double* f = pmf_.data();
  double* g = scratch_.data();
  if (b <= s) {
    GatherOne<false>(f, g, 0, b - 1, 0, 1.0 - q);
    GatherBoth<false>(f, g, b, s, b, 0, q);
    GatherOne<false>(f, g, s + 1, ns, -b, q);
  } else {
    GatherOne<false>(f, g, 0, s, 0, 1.0 - q);
    std::fill(g + s + 1, g + b, 0.0);
    GatherOne<false>(f, g, b, ns, -b, q);
  }
  pmf_.swap(scratch_);
  span_ = ns;
}

void BucketKeyDistribution::Deconvolve(std::int64_t b, double q) {
  JURY_CHECK_GE(b, 0);
  if (b == 0) return;
  JURY_CHECK_GE(span_, b);
  JURY_CHECK(q >= 0.5 && q <= 1.0)
      << "Deconvolve requires a normalized quality, got " << q;
  const std::int64_t ns = span_ - b;
  // Descending slots only read slots written earlier in the pass, so a
  // resize without zeroing suffices.
  scratch_.resize(static_cast<std::size_t>(ns + 1));
  const double* f = pmf_.data();
  double* g = scratch_.data();
  const double omq = 1.0 - q;
  // The top b slots have no slot b above them; `f - omq * 0.0 == f`
  // exactly, so dividing alone is the recurrence's value there. Split
  // off, the rest of the loop is branch-free.
  const std::int64_t below_top = std::max<std::int64_t>(ns - b, -1);
  std::int64_t i = ns;
  for (; i > below_top; --i) g[i] = f[i + b] / q;
  for (; i >= 0; --i) g[i] = (f[i + b] - omq * g[i + b]) / q;
  pmf_.swap(scratch_);
  span_ = ns;
}

double BucketKeyDistribution::PositiveMass() const {
  // The canonical four-chain order (simd_kernels_inl.h) that every mass
  // consumer shares, so the fused batch kernels at every dispatch level
  // are bit-identical to this function.
  return simd::internal::CommittedMass(pmf_.data(), span_);
}

void BucketKeyDistribution::ConvolvePositiveMassBatch(const std::int64_t* bs,
                                                      const double* qs,
                                                      std::size_t count,
                                                      double* out) const {
  // Slots outside [0, span_] read as zero, which the kernel's zero-padded
  // staging encodes branch-free. Slot i of the convolution is
  // g[i] = f[i-b]*q + f[i]*(1-q), built in exactly that order by
  // Convolve's gather, and PositiveMass sums 0.5*g[key 0] plus the four
  // canonical chains — the dispatched `convolve_mass` kernel (scalar
  // reference or AVX2; see simd_dispatch.h) replicates this term for
  // term, so the fused result is bit-identical to the scalar
  // copy-convolve-sweep at every level.
  for (std::size_t j = 0; j < count; ++j) {
    JURY_CHECK_GE(bs[j], 0);
  }
  simd::Kernels().convolve_mass(pmf_.data(), span_, bs, qs, count, out);
}

double BucketKeyDistribution::DeconvolvePositiveMass(std::int64_t b,
                                                     double q) const {
  double out = 0.0;
  DeconvolvePositiveMassBatch(&b, &q, 1, &out);
  return out;
}

void BucketKeyDistribution::DeconvolvePositiveMassBatch(const std::int64_t* bs,
                                                        const double* qs,
                                                        std::size_t count,
                                                        double* out) const {
  // Fused {copy; Deconvolve(b, q); PositiveMass()} per candidate: the same
  // backward recurrence over one reused row (no full-distribution copy),
  // then the same canonical mass sweep — bit-identical to the scalar pair
  // at every dispatch level (scalar reference or AVX2; see the
  // `deconvolve_mass` contract in util/simd_dispatch.h).
  for (std::size_t j = 0; j < count; ++j) {
    JURY_CHECK_GE(bs[j], 0);
    JURY_CHECK_GE(span_, bs[j]);
    if (bs[j] > 0) {
      JURY_CHECK(qs[j] >= 0.5 && qs[j] <= 1.0)
          << "DeconvolvePositiveMass requires a normalized quality, got "
          << qs[j];
    }
  }
  simd::Kernels().deconvolve_mass(pmf_.data(), span_, bs, qs, count, out);
}

double BucketErrorBound(int n, double delta) {
  JURY_CHECK_GE(n, 0);
  JURY_CHECK_GE(delta, 0.0);
  return std::exp(static_cast<double>(n) * delta / 4.0) - 1.0;
}

int RequiredBucketMultiplier(double upper, double max_error) {
  JURY_CHECK_GT(max_error, 0.0);
  JURY_CHECK_GT(upper, 0.0);
  // With numBuckets = d*n: delta = upper/(d*n), so the bound is
  // e^{upper/(4d)} - 1 < max_error  <=>  d > upper / (4 ln(1+max_error)).
  const double d = upper / (4.0 * std::log1p(max_error));
  return std::max(1, static_cast<int>(std::ceil(d)));
}

Result<double> EstimateJq(const Jury& jury, double alpha,
                          const BucketJqOptions& options,
                          BucketJqStats* stats) {
  JURY_RETURN_NOT_OK(jury.Validate());
  JURY_RETURN_NOT_OK(ValidateAlpha(alpha));
  if (jury.empty()) {
    return Status::InvalidArgument("EstimateJq requires a non-empty jury");
  }
  if (options.num_buckets <= 0) {
    return Status::InvalidArgument("num_buckets must be positive");
  }
  if (stats != nullptr) *stats = BucketJqStats{};

  // Theorem 3: the prior is one more juror; §3.3: flip low-quality jurors.
  const Jury with_prior = ApplyPrior(jury, alpha);
  const Jury normalized = Normalize(with_prior).jury;
  const std::vector<double> qs = normalized.qualities();
  const int n = static_cast<int>(qs.size());

  // §4.4 escape hatch: a near-perfect juror alone pins JQ into (cutoff, 1].
  if (options.high_quality_cutoff < 1.0) {
    double best = 0.0;
    bool fired = false;
    for (double q : qs) {
      if (q > options.high_quality_cutoff) {
        fired = true;
        best = std::max(best, q);
      }
    }
    if (fired) {
      if (stats != nullptr) {
        stats->high_quality_shortcut = true;
        stats->error_bound = 1.0 - best;
      }
      return best;
    }
  }

  // Bucket assignment (GetBucketArray): nearest bucket of phi(q_i) on the
  // grid of `num_buckets` intervals covering [0, upper].
  std::vector<double> phis(qs.size());
  double upper = 0.0;
  for (std::size_t i = 0; i < qs.size(); ++i) {
    phis[i] = LogOdds(EffectiveQuality(qs[i]));
    upper = std::max(upper, phis[i]);
  }
  if (upper <= 0.0) {
    // Every juror (and the prior) has quality exactly 0.5: R(V) = 0 for all
    // votings, so JQ = 0.5 exactly.
    return 0.5;
  }
  const double delta = upper / static_cast<double>(options.num_buckets);

  std::vector<BucketedWorker> ws(qs.size());
  for (std::size_t i = 0; i < qs.size(); ++i) {
    ws[i].bucket =
        static_cast<std::int64_t>(std::ceil(phis[i] / delta - 0.5));
    ws[i].quality = qs[i];
  }
  // Sort in decreasing bucket order (steps 2-3 of Algorithm 1) so pruning
  // sees the big contributors first.
  std::sort(ws.begin(), ws.end(), [](const auto& a, const auto& b) {
    return a.bucket > b.bucket;
  });

  // AggregateBucket: aggregate[i] = b[i] + b[i+1] + ... + b[n-1].
  std::vector<std::int64_t> aggregate(ws.size(), 0);
  std::int64_t suffix = 0;
  for (std::size_t i = ws.size(); i > 0; --i) {
    suffix += ws[i - 1].bucket;
    aggregate[i - 1] = suffix;
  }
  const std::int64_t span = suffix;

  if (stats != nullptr) {
    stats->delta = delta;
    stats->error_bound = BucketErrorBound(n, delta);
  }

  const double jq_hat =
      2 * span + 1 <= kDenseKeySpanLimit
          ? RunDense(ws, aggregate, options.enable_pruning, stats)
          : RunSparse(ws, aggregate, options.enable_pruning, stats);
  // Guard against floating-point drift just above 1.
  return std::min(jq_hat, 1.0);
}

}  // namespace jury

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
/// unreasonably large; `EstimateJq` falls back to the hash-map sweep.
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

/// Writes `nxt[s] = cur[s-b]*q + cur[s+b]*(1-q)` for every s in
/// [from, to], with both sources inside the live range. Returns the
/// number of nonzero entries written when `kCount`, else 0.
template <bool kCount>
std::size_t GatherBoth(const double* __restrict cur, double* __restrict nxt,
                       std::int64_t from, std::int64_t to, std::int64_t b,
                       double q) {
  const double down = 1.0 - q;
  std::size_t nonzero = 0;
  for (std::int64_t s = from; s <= to; ++s) {
    const double v = cur[s - b] * q + cur[s + b] * down;
    nxt[s] = v;
    if constexpr (kCount) nonzero += v > 0.0;
  }
  return nonzero;
}

/// `nxt[s] = cur[s + shift] * weight` for every s in [from, to]: the
/// window's edges, where only one source is live.
template <bool kCount>
std::size_t GatherOne(const double* __restrict cur, double* __restrict nxt,
                      std::int64_t from, std::int64_t to, std::int64_t shift,
                      double weight) {
  std::size_t nonzero = 0;
  for (std::int64_t s = from; s <= to; ++s) {
    const double v = cur[s + shift] * weight;
    nxt[s] = v;
    if constexpr (kCount) nonzero += v > 0.0;
  }
  return nonzero;
}

/// One Algorithm-1 pass over the dense (flat array) key representation.
///
/// Each step gathers the next distribution over the live key window only:
/// `nxt[s] = cur[s-b]*q + cur[s+b]*(1-q)`, where a source outside the
/// support or settled by Algorithm 2 reads as zero. Reported JQ bits
/// depend on this equalling a zero-fill-then-scatter sweep bit for bit,
/// and it does: a scatter adds `prob*q` from source s-b before
/// `prob*(1-q)` from source s+b into a zeroed entry and skips zero
/// sources, and `0.0 + x == x`. That needs unfused multiply-adds, so this
/// file must not be built with -mfma or -ffast-math. Settled positive
/// keys join the JQ sum step by step in ascending key order, and the
/// final sweep runs ascending, for the same reason.
///
/// Workers arrive sorted by decreasing bucket. After i steps every key
/// lies in [-P_i, P_i] (P_i the prefix bucket sum), and under pruning
/// step i expands only keys in [-R_i, R_i] (R_i = aggregate[i]), so it
/// writes within ±(min(P_i, R_i) + b_i). The buffers are sized by the
/// widest such window, at most span/2 + max bucket, instead of 2*span+1.
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
  const std::size_t size = static_cast<std::size_t>(2 * width + 1);
  const auto cur_buf = std::make_unique_for_overwrite<double[]>(size);
  const auto nxt_buf = std::make_unique_for_overwrite<double[]>(size);
  double* cur = cur_buf.get() + width;  // cur[key], key in [-width, width]
  double* nxt = nxt_buf.get() + width;
  cur[0] = 1.0;
  std::int64_t lo = 0;
  std::int64_t hi = 0;
  // Nonzero entries of `cur`: the keys this step expands. Counted while
  // the previous step wrote them, so stats cost no extra sweep.
  std::size_t nonzero = 1;

  JqAccumulator acc;
  for (std::size_t i = 0; i < ws.size(); ++i) {
    const std::int64_t b = ws[i].bucket;
    const double q = ws[i].quality;
    const std::int64_t remaining = aggregate[i];
    if constexpr (kCount) stats->keys_expanded += nonzero;
    // Live sources [from, to]; outside it, Algorithm 2 has settled the
    // sign: positive keys join the JQ sum, negative keys are dropped.
    std::int64_t from = lo;
    std::int64_t to = hi;
    if (pruning) {
      from = std::max(lo, -remaining);
      to = std::min(hi, remaining);
      if constexpr (kCount) {
        for (std::int64_t key = lo; key < from && key <= hi; ++key) {
          stats->keys_pruned += cur[key] > 0.0;
        }
      }
      for (std::int64_t key = std::max(lo, remaining + 1); key <= hi; ++key) {
        if (cur[key] > 0.0) {
          acc.AddSettledPositive(cur[key]);
          if constexpr (kCount) ++stats->keys_pruned;
        }
      }
    }
    if (from > to) return acc.value();  // every key has settled
    // New support [from - b, to + b]. Source s-b is live for
    // s >= from + b, source s+b for s <= to - b.
    const std::int64_t up_from = from + b;
    const std::int64_t down_to = to - b;
    nonzero = 0;
    if (up_from <= down_to) {
      nonzero += GatherOne<kCount>(cur, nxt, from - b, up_from - 1, b,
                                   1.0 - q);
      nonzero += GatherBoth<kCount>(cur, nxt, up_from, down_to, b, q);
      nonzero += GatherOne<kCount>(cur, nxt, down_to + 1, to + b, -b, q);
    } else {
      nonzero += GatherOne<kCount>(cur, nxt, from - b, down_to, b, 1.0 - q);
      std::fill(nxt + down_to + 1, nxt + up_from, 0.0);
      nonzero += GatherOne<kCount>(cur, nxt, up_from, to + b, -b, q);
    }
    lo = from - b;
    hi = to + b;
    std::swap(cur, nxt);
  }
  for (std::int64_t key = std::max<std::int64_t>(lo, 0); key <= hi; ++key) {
    if (cur[key] > 0.0) acc.AddFinal(key, cur[key]);
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
  const std::int64_t new_span = span_ + b;
  // `assign` reuses the scratch buffer's capacity: per-move convolutions
  // stop allocating once the session has seen its largest span.
  scratch_.assign(static_cast<std::size_t>(2 * new_span + 1), 0.0);
  for (std::int64_t key = -span_; key <= span_; ++key) {
    const double prob = pmf_[static_cast<std::size_t>(key + span_)];
    if (prob == 0.0) continue;
    scratch_[static_cast<std::size_t>(key + b + new_span)] += prob * q;
    scratch_[static_cast<std::size_t>(key - b + new_span)] +=
        prob * (1.0 - q);
  }
  pmf_.swap(scratch_);
  span_ = new_span;
}

void BucketKeyDistribution::Deconvolve(std::int64_t b, double q) {
  JURY_CHECK_GE(b, 0);
  if (b == 0) return;
  JURY_CHECK_GE(span_, b);
  JURY_CHECK(q >= 0.5 && q <= 1.0)
      << "Deconvolve requires a normalized quality, got " << q;
  const std::int64_t ns = span_ - b;
  // Every entry is written exactly once (descending j only reads entries
  // written earlier in the pass), so a resize without zeroing suffices.
  scratch_.resize(static_cast<std::size_t>(2 * ns + 1));
  for (std::int64_t j = ns; j >= -ns; --j) {
    const double above =
        (j + 2 * b <= ns) ? scratch_[static_cast<std::size_t>(j + 2 * b + ns)]
                          : 0.0;
    scratch_[static_cast<std::size_t>(j + ns)] =
        (pmf_[static_cast<std::size_t>(j + b + span_)] - (1.0 - q) * above) /
        q;
  }
  pmf_.swap(scratch_);
  span_ = ns;
}

double BucketKeyDistribution::PositiveMass() const {
  // Canonical interleaved accumulation (simd_kernels_inl.h): 0.5 * g[0]
  // plus eight interleaved partial sums over the positive keys. One fixed
  // order shared by every mass consumer — the fused batch kernels at
  // every dispatch level sum in exactly this order, which is what lets
  // the AVX2 variant carry the eight chains in two 4-lane accumulators
  // and still be bit-identical to this function.
  return simd::internal::CommittedMass(pmf_.data(), span_);
}

void BucketKeyDistribution::ConvolvePositiveMassBatch(const std::int64_t* bs,
                                                      const double* qs,
                                                      std::size_t count,
                                                      double* out) const {
  // Keys outside [-span_, span_] read as zero, which the kernel's
  // segmented/masked loops encode branch-free. For new key s the convolved
  // entry is g[s] = f[s-b]*q + f[s+b]*(1-q), built in exactly that order
  // by Convolve's ascending scatter, and PositiveMass accumulates 0.5*g[0]
  // then g[1..new_span] ascending — the dispatched `convolve_mass` kernel
  // (scalar reference or AVX2; see simd_dispatch.h) replicates this term
  // for term, so the fused result is bit-identical to the scalar
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

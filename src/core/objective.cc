#include "core/objective.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/jsp.h"
#include "jq/closed_form.h"
#include "jq/exact.h"
#include "model/prior.h"
#include "model/worker_pool_view.h"
#include "util/check.h"
#include "util/math.h"
#include "util/poisson_binomial.h"
#include "util/stats_registry.h"

namespace jury {
namespace {

/// §3.3 flip reinterpretation for a single quality; shared with the
/// columnar `WorkerPoolView`, whose `norm_quality()` column precomputes
/// exactly this value (see model/worker.h).
double NormalizeQuality(double q) { return NormalizedQuality(q); }

/// The qualities of `members` (view indices), in member order.
std::vector<double> QualitiesOf(const WorkerPoolView& view,
                                std::span<const std::size_t> members) {
  const std::span<const double> quality = view.quality();
  std::vector<double> qs;
  qs.reserve(members.size());
  for (std::size_t i : members) qs.push_back(quality[i]);
  return qs;
}

// ---------------------------------------------------------------------------
// Full-recompute session: the `--no-incremental` reference path. Scores every
// staged move by calling `Evaluate` on the moved member list, so it is the
// old stateless behavior verbatim (and counts as full evaluations through
// `Evaluate` itself).
// ---------------------------------------------------------------------------
class FullRecomputeEvaluator final : public IncrementalJqEvaluator {
 public:
  FullRecomputeEvaluator(const JqObjective* objective,
                         const WorkerPoolView& view, double alpha)
      : IncrementalJqEvaluator(objective, view, alpha),
        objective_(objective) {}

 protected:
  double ComputeAdd(std::size_t in) override {
    return objective_->Evaluate(view(), MembersWith(kNoIndex, in), alpha());
  }
  double ComputeRemove(std::size_t out_pos) override {
    return objective_->Evaluate(view(), MembersWith(out_pos, kNoIndex),
                                alpha());
  }
  double ComputeSwap(std::size_t out_pos, std::size_t in) override {
    return objective_->Evaluate(view(), MembersWith(out_pos, in), alpha());
  }
  void AdoptStaged() override {}
  /// No cached state: committing a pre-scored add is free.
  void ApplyAdd(std::size_t) override {}

 public:
  std::unique_ptr<IncrementalJqEvaluator> Clone() const override {
    return std::make_unique<FullRecomputeEvaluator>(*this);
  }

 private:
  const JqObjective* objective_;
};

// ---------------------------------------------------------------------------
// MV session: two conditional Poisson-binomial pmfs (zero-votes given t=0 and
// given t=1) updated by AddTrial/RemoveTrial — O(n) per staged move instead
// of the O(n^2) DP rebuild of `MajorityJq`.
// ---------------------------------------------------------------------------
class IncrementalMajorityEvaluator final : public IncrementalJqEvaluator {
 public:
  IncrementalMajorityEvaluator(const JqObjective* objective,
                               const WorkerPoolView& view, double alpha)
      : IncrementalJqEvaluator(objective, view, alpha) {}

 protected:
  double ComputeAdd(std::size_t in) override {
    LoadScratch();
    AddToScratch(view().quality()[in]);
    CountIncrementalEvaluation();
    return ScratchScore();
  }
  double ComputeRemove(std::size_t out_pos) override {
    LoadScratch();
    RemoveFromScratch(MemberQuality(out_pos));
    CountIncrementalEvaluation();
    return ScratchScore();
  }
  double ComputeSwap(std::size_t out_pos, std::size_t in) override {
    LoadScratch();
    RemoveFromScratch(MemberQuality(out_pos));
    AddToScratch(view().quality()[in]);
    CountIncrementalEvaluation();
    return ScratchScore();
  }
  void AdoptStaged() override {
    zeros_t0_ = std::move(scratch_t0_);
    zeros_t1_ = std::move(scratch_t1_);
  }
  void ApplyAdd(std::size_t in) override {
    // Same convolution the scratch path runs, minus the scratch copies.
    const double q = view().quality()[in];
    zeros_t0_.AddTrial(q);
    zeros_t1_.AddTrial(1.0 - q);
  }

 public:
  std::unique_ptr<IncrementalJqEvaluator> Clone() const override {
    return std::make_unique<IncrementalMajorityEvaluator>(*this);
  }

  /// Batched add scan: both conditional pmfs are queried through
  /// `PoissonBinomial::EvaluateBatch`, whose fused SoA loops replace the
  /// per-candidate scratch copy + convolution + cumulative rebuild of the
  /// scalar path while reproducing its arithmetic bit for bit. Candidate
  /// probabilities come straight from the view's quality column.
  void ScoreAddBatch(const std::size_t* pool_indices, std::size_t count,
                     double* scores) override {
    Rollback();
    if (count == 0) return;
    const std::span<const double> quality = view().quality();
    batch_q0_.resize(count);
    batch_q1_.resize(count);
    for (std::size_t j = 0; j < count; ++j) {
      const double q = quality[pool_indices[j]];
      batch_q0_[j] = q;
      batch_q1_[j] = 1.0 - q;
    }
    // Query both committed pmfs with the candidate probabilities
    // (conditioned on t = 0 / t = 1) and blend the MV score, exactly as
    // `ScratchScore`.
    const int n_new = zeros_t0_.size() + 1;
    const int zeros_needed = n_new / 2 + 1;
    batch_tail_.resize(count);
    batch_cdf_.resize(count);
    RunKernelPass([&] {
      zeros_t0_.EvaluateBatch(batch_q0_.data(), count, zeros_needed, 0,
                              batch_tail_.data(), nullptr);
      zeros_t1_.EvaluateBatch(batch_q1_.data(), count, 0, zeros_needed - 1,
                              nullptr, batch_cdf_.data());
      BlendScores(count, scores);
    });
    CountIncrementalEvaluations(count);
  }

  /// Batched remove scan: for each member position, the tail/cdf pair of
  /// the committed pmfs with that member's trial deconvolved out, through
  /// `PoissonBinomial::EvaluateRemoveBatch` — the remove fold of the
  /// unified scan, bit-identical to {copy; RemoveTrial; queries}.
  void ScoreRemoveBatch(const std::size_t* member_positions,
                        std::size_t count, double* scores) override {
    Rollback();
    if (count == 0) return;
    const int n = zeros_t0_.size();
    if (n <= 1) {
      // Removing the only member leaves the empty jury.
      const double empty = EmptyJuryJq(alpha());
      for (std::size_t j = 0; j < count; ++j) scores[j] = empty;
      CountIncrementalEvaluations(count);
      return;
    }
    const int zeros_needed = (n - 1) / 2 + 1;
    batch_q0_.resize(count);
    batch_q1_.resize(count);
    batch_tail_.resize(count);
    batch_cdf_.resize(count);
    for (std::size_t j = 0; j < count; ++j) {
      const double q = MemberQuality(member_positions[j]);
      batch_q0_[j] = q;
      batch_q1_[j] = 1.0 - q;
    }
    RunKernelPass([&] {
      zeros_t0_.EvaluateRemoveBatch(batch_q0_.data(), count, zeros_needed, -1,
                                    batch_tail_.data(), nullptr);
      zeros_t1_.EvaluateRemoveBatch(batch_q1_.data(), count, 0,
                                    zeros_needed - 1, nullptr,
                                    batch_cdf_.data());
      BlendScores(count, scores);
    });
    CountIncrementalEvaluations(count);
  }

  /// Batched swap scan: the outgoing member's trial is deconvolved once
  /// into the scratch pmfs, then every swap-in candidate is scored through
  /// the same fused `EvaluateBatch` kernel the add scan runs — one remove
  /// fold amortized over the whole partner scan.
  void ScoreSwapBatch(std::size_t out_position,
                      const std::size_t* pool_indices, std::size_t count,
                      double* scores) override {
    Rollback();
    if (count == 0) return;
    const double q_out = MemberQuality(out_position);
    scratch_t0_ = zeros_t0_;
    scratch_t1_ = zeros_t1_;
    scratch_t0_.RemoveTrial(q_out);
    scratch_t1_.RemoveTrial(1.0 - q_out);
    const int n = scratch_t0_.size() + 1;  // == committed size
    const int zeros_needed = n / 2 + 1;
    const std::span<const double> quality = view().quality();
    batch_q0_.resize(count);
    batch_q1_.resize(count);
    batch_tail_.resize(count);
    batch_cdf_.resize(count);
    for (std::size_t j = 0; j < count; ++j) {
      const double q = quality[pool_indices[j]];
      batch_q0_[j] = q;
      batch_q1_[j] = 1.0 - q;
    }
    RunKernelPass([&] {
      scratch_t0_.EvaluateBatch(batch_q0_.data(), count, zeros_needed, 0,
                                batch_tail_.data(), nullptr);
      scratch_t1_.EvaluateBatch(batch_q1_.data(), count, 0, zeros_needed - 1,
                                nullptr, batch_cdf_.data());
      BlendScores(count, scores);
    });
    CountIncrementalEvaluations(count);
  }

 private:
  double MemberQuality(std::size_t pos) const {
    return view().quality()[members()[pos]];
  }

  /// MV score of each staged candidate from its tail/cdf pair.
  void BlendScores(std::size_t count, double* scores) const {
    const double a = alpha();
    for (std::size_t j = 0; j < count; ++j) {
      scores[j] = a * batch_tail_[j] + (1.0 - a) * batch_cdf_[j];
    }
  }

  void LoadScratch() {
    scratch_t0_ = zeros_t0_;
    scratch_t1_ = zeros_t1_;
  }
  void AddToScratch(double q) {
    scratch_t0_.AddTrial(q);
    scratch_t1_.AddTrial(1.0 - q);
  }
  void RemoveFromScratch(double q) {
    scratch_t0_.RemoveTrial(q);
    scratch_t1_.RemoveTrial(1.0 - q);
  }
  double ScratchScore() const {
    const int n = scratch_t0_.size();
    if (n == 0) return EmptyJuryJq(alpha());
    // MV returns 0 iff zeros >= floor(n/2) + 1, as in `MajorityJq`.
    const int zeros_needed = n / 2 + 1;
    return alpha() * scratch_t0_.TailAtLeast(zeros_needed) +
           (1.0 - alpha()) * scratch_t1_.CdfAtMost(zeros_needed - 1);
  }

  PoissonBinomial zeros_t0_{std::vector<double>{}};
  PoissonBinomial zeros_t1_{std::vector<double>{}};
  PoissonBinomial scratch_t0_{std::vector<double>{}};
  PoissonBinomial scratch_t1_{std::vector<double>{}};

  // Reusable SoA staging for `ScoreAddBatch` (capacity persists across
  // greedy rounds; cloned along with the session, which is harmless).
  std::vector<double> batch_q0_, batch_q1_, batch_tail_, batch_cdf_;
};

// ---------------------------------------------------------------------------
// Exact-BV session: caches the enumeration state — per-voting decision
// statistic R(V) and the conditional probabilities Pr(V|t) — so a staged
// move re-folds the 2^n table in O(2^n) instead of re-enumerating in
// O(n 2^n). Falls back to `ExactJqBv` beyond the cache size cap.
// ---------------------------------------------------------------------------
class IncrementalExactBvEvaluator final : public IncrementalJqEvaluator {
 public:
  IncrementalExactBvEvaluator(const JqObjective* objective,
                              const WorkerPoolView& view, double alpha)
      : IncrementalJqEvaluator(objective, view, alpha),
        prior_stat_(LogOdds(EffectiveQuality(alpha))) {
    FoldMembers({}, &state_);  // empty product
  }

  /// Above this member count the 2^n cache is not maintained (arrays of
  /// 3 * 2^n doubles); moves are scored by full enumeration instead.
  static constexpr std::size_t kMaxCachedMembers = 20;

 protected:
  double ComputeAdd(std::size_t in) override {
    const std::size_t new_n = size() + 1;
    if (new_n > kMaxCachedMembers) return FullScore(kNoIndex, in);
    const double q = view().quality()[in];
    if (!state_.valid) {
      FoldMembers(QualitiesWith(kNoIndex, kNoIndex), &scratch_);
      ExtendInPlace(&scratch_, q);
    } else {
      ExtendFrom(state_, q, &scratch_);
    }
    CountIncrementalEvaluation();
    return Sweep(scratch_);
  }
  double ComputeRemove(std::size_t out_pos) override {
    if (size() - 1 > kMaxCachedMembers) return FullScore(out_pos, kNoIndex);
    FoldMembers(QualitiesWith(out_pos, kNoIndex), &scratch_);
    CountIncrementalEvaluation();
    return Sweep(scratch_);
  }
  double ComputeSwap(std::size_t out_pos, std::size_t in) override {
    if (size() > kMaxCachedMembers) return FullScore(out_pos, in);
    FoldMembers(QualitiesWith(out_pos, in), &scratch_);
    CountIncrementalEvaluation();
    return Sweep(scratch_);
  }
  void AdoptStaged() override { state_ = std::move(scratch_); }
  void DiscardStaged() override { scratch_.valid = false; }
  void ApplyAdd(std::size_t in) override {
    scratch_.valid = false;
    if (size() > kMaxCachedMembers || !state_.valid) {
      // Past the cache cap (or with no cached table) the next scoring
      // rebuilds from the member list anyway.
      state_.valid = false;
      return;
    }
    ExtendInPlace(&state_, view().quality()[in]);
  }

 public:
  std::unique_ptr<IncrementalJqEvaluator> Clone() const override {
    return std::make_unique<IncrementalExactBvEvaluator>(*this);
  }

 private:
  struct EnumState {
    std::vector<double> r;   // decision statistic, prior excluded
    std::vector<double> p0;  // Pr(V | t = 0)
    std::vector<double> p1;  // Pr(V | t = 1)
    bool valid = false;
  };

  /// Builds the enumeration table by folding qualities one at a time;
  /// total work sum_j 2^j = O(2^n).
  static void FoldMembers(const std::vector<double>& qs, EnumState* out) {
    out->r.assign(1, 0.0);
    out->p0.assign(1, 1.0);
    out->p1.assign(1, 1.0);
    for (double q : qs) ExtendInPlace(out, q);
    out->valid = true;
  }

  static void ExtendInPlace(EnumState* state, double q) {
    const std::size_t m = state->r.size();
    const double phi = LogOdds(EffectiveQuality(q));
    state->r.resize(2 * m);
    state->p0.resize(2 * m);
    state->p1.resize(2 * m);
    for (std::size_t mask = 0; mask < m; ++mask) {
      // High half: the new worker votes 1; low half: votes 0.
      state->r[m + mask] = state->r[mask] - phi;
      state->p0[m + mask] = state->p0[mask] * (1.0 - q);
      state->p1[m + mask] = state->p1[mask] * q;
      state->r[mask] += phi;
      state->p0[mask] *= q;
      state->p1[mask] *= (1.0 - q);
    }
  }

  static void ExtendFrom(const EnumState& base, double q, EnumState* out) {
    *out = base;
    ExtendInPlace(out, q);
  }

  double Sweep(const EnumState& state) const {
    double jq = 0.0;
    for (std::size_t mask = 0; mask < state.r.size(); ++mask) {
      // BV answers 0 iff the prior-weighted statistic is >= 0 (Theorem 1).
      if (prior_stat_ + state.r[mask] >= 0.0) {
        jq += alpha() * state.p0[mask];
      } else {
        jq += (1.0 - alpha()) * state.p1[mask];
      }
    }
    return jq;
  }

  double FullScore(std::size_t out_pos, std::size_t in) {
    scratch_.valid = false;
    const std::vector<double> qs = QualitiesWith(out_pos, in);
    CountFullEvaluation();
    if (qs.empty()) return EmptyJuryJq(alpha());
    return ExactJqBv(Jury::FromQualities(qs), alpha()).value();
  }

  double prior_stat_;
  EnumState state_;
  EnumState scratch_;
};

// ---------------------------------------------------------------------------
// BV/bucket session: keeps the Algorithm-1 key distribution of the committed
// jury (plus the Theorem-3 prior pseudo-worker) and scores moves by O(span)
// convolution/deconvolution. The bucket grid is pinned to the jury's maximum
// log-odds, exactly as `EstimateJq` derives it, so the state is rebuilt
// whenever a move changes that maximum (or enters/leaves the §4.4 shortcut
// and all-q=0.5 special cases).
// ---------------------------------------------------------------------------
class IncrementalBucketBvEvaluator final : public IncrementalJqEvaluator {
 public:
  IncrementalBucketBvEvaluator(const JqObjective* objective,
                               const WorkerPoolView& view, double alpha,
                               const BucketJqOptions& options)
      : IncrementalJqEvaluator(objective, view, alpha), options_(options) {
    JURY_CHECK_GT(options_.num_buckets, 0);
    if (!IsUninformativeAlpha(alpha)) {
      has_prior_ = true;
      prior_q_ = NormalizeQuality(alpha);
      prior_phi_ = LogOdds(EffectiveQuality(prior_q_));
    }
  }

  /// Key-span guard: past this the dense delta state would be larger than
  /// the one-shot estimator's own dense limit; score via `EstimateJq`.
  /// It stays in key units although the session pmf stores one slot per
  /// two keys: moving it would move juries between the session and the
  /// one-shot `EstimateJq` path, which changes `evaluations` counters.
  static constexpr std::int64_t kMaxIncrementalSpan = std::int64_t{1} << 22;

 protected:
  double ComputeAdd(std::size_t in) override { return Score(kNoIndex, in); }
  double ComputeRemove(std::size_t out_pos) override {
    return Score(out_pos, kNoIndex);
  }
  double ComputeSwap(std::size_t out_pos, std::size_t in) override {
    return Score(out_pos, in);
  }

  void AdoptStaged() override {
    if (!scratch_regular_) {
      dist_valid_ = false;
      return;
    }
    // `members()` already reflects the move; mirror it in the buckets.
    dist_ = std::move(scratch_dist_);
    if (scratch_rebuilt_ || grid_upper_ != scratch_upper_) {
      grid_upper_ = scratch_upper_;
      RefreshBuckets();
    } else if (staged_out_ != kNoIndex && staged_has_in_) {
      bucket_[staged_out_] = staged_in_bucket_;
    } else if (staged_out_ != kNoIndex) {
      bucket_.erase(bucket_.begin() + static_cast<std::ptrdiff_t>(staged_out_));
    } else if (staged_has_in_) {
      bucket_.push_back(staged_in_bucket_);
    }
    dist_valid_ = true;
  }

  void ApplyAdd(std::size_t in) override {
    // The in-place mirror of `Score(kNoIndex, in)` + `AdoptStaged`: same
    // grid/special-case decisions, same convolution, but applied to the
    // committed key distribution directly — no scratch copy and no
    // `PositiveMass` sweep, since the score is already known. `in` is
    // already the last member.
    const double max_q = CommittedMaxQuality();
    if (options_.high_quality_cutoff < 1.0 &&
        max_q > options_.high_quality_cutoff) {
      dist_valid_ = false;  // §4.4 shortcut mode: no key state to maintain
      return;
    }
    const double upper = LogOdds(EffectiveQuality(max_q));
    if (upper <= 0.0) {
      dist_valid_ = false;  // all-exactly-0.5 mode
      return;
    }
    const double delta = upper / static_cast<double>(options_.num_buckets);
    if (dist_valid_ && upper == grid_upper_) {
      const std::int64_t b = BucketFromPhi(view().log_odds()[in], delta);
      if (dist_.span() + b <= kMaxIncrementalSpan) {
        dist_.Convolve(b, view().norm_quality()[in]);
        bucket_.push_back(b);
        return;
      }
    }
    // Grid moved or no cached state: rebuild on the new grid (counts as a
    // full evaluation, exactly like the Score rebuild path).
    const std::int64_t span = FoldJury(kNoIndex, kNoIndex, delta, &dist_);
    CountFullEvaluation();
    if (span > kMaxIncrementalSpan) {
      dist_valid_ = false;
      return;
    }
    grid_upper_ = upper;
    RefreshBuckets();
    dist_valid_ = true;
  }

 public:
  std::unique_ptr<IncrementalJqEvaluator> Clone() const override {
    return std::make_unique<IncrementalBucketBvEvaluator>(*this);
  }

  /// Batched add scan: candidates that stay on the committed grid are
  /// scored through the fused `ConvolvePositiveMassBatch` kernel (one
  /// read-only pass over the committed key distribution per candidate —
  /// no scratch copy, no scatter); candidates that fire a special case
  /// (§4.4 shortcut, all-0.5, grid move, span overflow, no cached state)
  /// fall back to the scalar `ScoreAdd` path, which handles — and counts
  /// — them exactly as before. Scores are bit-identical to the scalar
  /// scan: both read normalized qualities and log-odds from the view's
  /// columns.
  void ScoreAddBatch(const std::size_t* pool_indices, std::size_t count,
                     double* scores) override {
    Rollback();
    if (count == 0) return;
    const std::span<const double> norm = view().norm_quality();
    const std::span<const double> phi = view().log_odds();
    const double committed_max = CommittedMaxQuality();
    batch_bs_.clear();
    batch_qs_.clear();
    batch_slot_.clear();
    std::size_t fast_or_special = 0;
    for (std::size_t j = 0; j < count; ++j) {
      const std::size_t idx = pool_indices[j];
      if (!StageAddCandidate(j, norm[idx], phi[idx], committed_max, scores,
                             &fast_or_special)) {
        // Grid move / invalid cache / oversized span: the scalar path owns
        // these (including their full-evaluation accounting).
        scores[j] = ScoreAdd(idx);
        Rollback();
      }
    }
    FlushConvolveBatch(dist_, scores, fast_or_special);
  }

  /// Batched remove scan: members whose removal keeps the committed grid
  /// are staged and scored through the fused `DeconvolvePositiveMassBatch`
  /// kernel — the whole scan's backward-recurrence folds in one dispatched
  /// call (scalar reference or AVX2), with the row buffer staged
  /// once for the batch instead of per member. Removing the grid-defining
  /// (max log-odds) member falls back to the scalar path, which owns the
  /// rebuild and its full-evaluation accounting. Scores and evaluation
  /// counters are bit-identical to the per-member scalar loop.
  void ScoreRemoveBatch(const std::size_t* member_positions,
                        std::size_t count, double* scores) override {
    Rollback();
    if (count == 0) return;
    const std::span<const double> norm = view().norm_quality();
    batch_bs_.clear();
    batch_qs_.clear();
    batch_slot_.clear();
    std::size_t fast_or_special = 0;
    for (std::size_t j = 0; j < count; ++j) {
      const std::size_t pos = member_positions[j];
      if (size() <= 1) {
        scores[j] = EmptyJuryJq(alpha());  // removal empties the jury
        ++fast_or_special;
        continue;
      }
      const double max_q = MaxQualityWithout(pos);
      if (options_.high_quality_cutoff < 1.0 &&
          max_q > options_.high_quality_cutoff) {
        scores[j] = max_q;  // §4.4 escape hatch
        ++fast_or_special;
        continue;
      }
      const double upper = LogOdds(EffectiveQuality(max_q));
      if (upper <= 0.0) {
        scores[j] = 0.5;  // everyone exactly at 0.5
        ++fast_or_special;
        continue;
      }
      if (dist_valid_ && upper == grid_upper_) {
        batch_bs_.push_back(bucket_[pos]);
        batch_qs_.push_back(norm[members()[pos]]);
        batch_slot_.push_back(j);
        ++fast_or_special;
        continue;
      }
      scores[j] = ScoreRemove(pos);
      Rollback();
    }
    FlushDeconvolveBatch(scores, fast_or_special);
  }

  /// Batched swap scan: the outgoing member is deconvolved *once* into a
  /// shared scratch distribution, then every same-grid swap-in partner is
  /// scored through the fused `ConvolvePositiveMassBatch` kernel — the
  /// remove fold amortized over the whole partner scan. Grid-changing
  /// candidates (the outgoing member was the max, or the incoming one
  /// becomes it) fall back to the scalar path per candidate.
  void ScoreSwapBatch(std::size_t out_position,
                      const std::size_t* pool_indices, std::size_t count,
                      double* scores) override {
    Rollback();
    if (count == 0) return;
    const std::span<const double> norm = view().norm_quality();
    const std::span<const double> phi = view().log_odds();
    const double removed_max = MaxQualityWithout(out_position);
    const std::int64_t out_b = dist_valid_ ? bucket_[out_position] : 0;
    batch_bs_.clear();
    batch_qs_.clear();
    batch_slot_.clear();
    std::size_t fast_or_special = 0;
    bool scratch_ready = false;
    for (std::size_t j = 0; j < count; ++j) {
      const std::size_t idx = pool_indices[j];
      const double q = norm[idx];
      const double max_q = std::max(removed_max, q);
      if (options_.high_quality_cutoff < 1.0 &&
          max_q > options_.high_quality_cutoff) {
        scores[j] = max_q;
        ++fast_or_special;
        continue;
      }
      const double upper = LogOdds(EffectiveQuality(max_q));
      if (upper <= 0.0) {
        scores[j] = 0.5;
        ++fast_or_special;
        continue;
      }
      if (dist_valid_ && upper == grid_upper_) {
        const double delta =
            upper / static_cast<double>(options_.num_buckets);
        const std::int64_t b = BucketFromPhi(phi[idx], delta);
        if (dist_.span() - out_b + b <= kMaxIncrementalSpan) {
          if (!scratch_ready) {
            swap_dist_ = dist_;
            swap_dist_.Deconvolve(out_b, norm[members()[out_position]]);
            scratch_ready = true;
          }
          batch_bs_.push_back(b);
          batch_qs_.push_back(q);
          batch_slot_.push_back(j);
          ++fast_or_special;
          continue;
        }
      }
      scores[j] = ScoreSwap(out_position, idx);
      Rollback();
    }
    FlushConvolveBatch(swap_dist_, scores, fast_or_special);
  }

 private:
  /// Max normalized quality of jury + prior — the committed part of every
  /// add candidate's grid scan, hoisted out of the batch loop (the scalar
  /// path recomputes it per candidate; `std::max` folds are
  /// order-insensitive for the NaN-free qualities involved, so the hoist
  /// is bit-neutral).
  double CommittedMaxQuality() const { return MaxQualityWithout(kNoIndex); }

  /// Same fold with the member at position `out` excluded — the committed
  /// part of every remove/swap candidate's grid scan.
  double MaxQualityWithout(std::size_t out) const {
    const std::span<const double> norm = view().norm_quality();
    double max_q = has_prior_ ? prior_q_ : 0.0;
    for (std::size_t i = 0; i < size(); ++i) {
      if (i == out) continue;
      max_q = std::max(max_q, norm[members()[i]]);
    }
    return max_q;
  }

  /// One add candidate of a batched scan: resolves the special cases
  /// (§4.4 shortcut, all-0.5) directly into `scores[j]`, or stages the
  /// candidate for the fused convolve kernel. Returns false when the
  /// candidate needs the scalar fallback (grid move, invalid cache,
  /// oversized span).
  bool StageAddCandidate(std::size_t j, double q, double candidate_phi,
                         double committed_max, double* scores,
                         std::size_t* fast_or_special) {
    const double max_q = std::max(committed_max, q);
    if (options_.high_quality_cutoff < 1.0 &&
        max_q > options_.high_quality_cutoff) {
      scores[j] = max_q;  // §4.4 escape hatch
      ++*fast_or_special;
      return true;
    }
    const double upper = LogOdds(EffectiveQuality(max_q));
    if (upper <= 0.0) {
      scores[j] = 0.5;  // everyone exactly at 0.5
      ++*fast_or_special;
      return true;
    }
    if (dist_valid_ && upper == grid_upper_) {
      const double delta = upper / static_cast<double>(options_.num_buckets);
      const std::int64_t b = BucketFromPhi(candidate_phi, delta);
      if (dist_.span() + b <= kMaxIncrementalSpan) {
        batch_bs_.push_back(b);
        batch_qs_.push_back(q);
        batch_slot_.push_back(j);
        ++*fast_or_special;
        return true;
      }
    }
    return false;
  }

  /// Shared tail of the batched add/swap scans: runs the fused convolve
  /// kernel for the staged candidates against `dist` and books the
  /// fast/special scorings as one bulk counter update.
  void FlushConvolveBatch(const BucketKeyDistribution& dist, double* scores,
                          std::size_t fast_or_special) {
    if (!batch_bs_.empty()) {
      RunKernelPass([&] {
        batch_out_.resize(batch_bs_.size());
        dist.ConvolvePositiveMassBatch(batch_bs_.data(), batch_qs_.data(),
                                       batch_bs_.size(), batch_out_.data());
        ScatterScores(scores);
      });
    }
    CountIncrementalEvaluations(fast_or_special);
  }

  /// Shared tail of the batched remove scan: same structure, with the
  /// fused deconvolve kernel against the committed distribution.
  void FlushDeconvolveBatch(double* scores, std::size_t fast_or_special) {
    if (!batch_bs_.empty()) {
      RunKernelPass([&] {
        batch_out_.resize(batch_bs_.size());
        dist_.DeconvolvePositiveMassBatch(batch_bs_.data(), batch_qs_.data(),
                                          batch_bs_.size(), batch_out_.data());
        ScatterScores(scores);
      });
    }
    CountIncrementalEvaluations(fast_or_special);
  }

  /// Writes each staged candidate's kernel mass back to its scan slot.
  void ScatterScores(double* scores) const {
    for (std::size_t m = 0; m < batch_bs_.size(); ++m) {
      scores[batch_slot_[m]] = std::min(batch_out_[m], 1.0);
    }
  }

  double Score(std::size_t out_pos, std::size_t in) {
    const std::span<const double> norm = view().norm_quality();
    const bool has_in = in != kNoIndex;
    staged_out_ = out_pos;
    staged_has_in_ = has_in;
    scratch_regular_ = false;
    scratch_rebuilt_ = false;

    const std::size_t count =
        size() - (out_pos != kNoIndex ? 1 : 0) + (has_in ? 1 : 0);
    if (count == 0) {
      // `Evaluate` short-circuits the empty jury before the estimator runs.
      CountIncrementalEvaluation();
      return EmptyJuryJq(alpha());
    }

    // The grid and the special-case modes depend only on the maximum
    // normalized quality of jury + prior (phi is monotone in q).
    double max_q = MaxQualityWithout(out_pos);
    if (has_in) max_q = std::max(max_q, norm[in]);

    // §4.4 escape hatch: a near-perfect juror pins JQ into (cutoff, 1].
    if (options_.high_quality_cutoff < 1.0 &&
        max_q > options_.high_quality_cutoff) {
      CountIncrementalEvaluation();
      return max_q;
    }
    const double upper = LogOdds(EffectiveQuality(max_q));
    if (upper <= 0.0) {
      // Every juror and the prior sit exactly at 0.5: JQ = 0.5 exactly.
      CountIncrementalEvaluation();
      return 0.5;
    }
    const double delta = upper / static_cast<double>(options_.num_buckets);
    staged_in_bucket_ =
        has_in ? BucketFromPhi(view().log_odds()[in], delta) : 0;

    if (dist_valid_ && upper == grid_upper_) {
      // Same grid: the neighbouring jury's key distribution is one
      // (de)convolution away from the committed one.
      const std::int64_t out_b = out_pos != kNoIndex ? bucket_[out_pos] : 0;
      const std::int64_t projected =
          dist_.span() - out_b + (has_in ? staged_in_bucket_ : 0);
      if (projected <= kMaxIncrementalSpan) {
        scratch_dist_ = dist_;
        if (out_pos != kNoIndex) {
          scratch_dist_.Deconvolve(out_b, norm[members()[out_pos]]);
        }
        if (has_in) scratch_dist_.Convolve(staged_in_bucket_, norm[in]);
        scratch_upper_ = upper;
        scratch_regular_ = true;
        CountIncrementalEvaluation();
        return std::min(scratch_dist_.PositiveMass(), 1.0);
      }
    }

    // Grid changed (the max-quality member moved) or no valid cached
    // state: rebuild the key distribution from scratch on the new grid.
    const std::int64_t span = FoldJury(out_pos, in, delta, &scratch_dist_);
    CountFullEvaluation();
    if (span > kMaxIncrementalSpan) {
      // Oversized dense state: score one-shot and drop the cache.
      return EstimateJq(Jury::FromQualities(QualitiesWith(out_pos, in)),
                        alpha(), options_)
          .value();
    }
    scratch_upper_ = upper;
    scratch_regular_ = true;
    scratch_rebuilt_ = true;
    return std::min(scratch_dist_.PositiveMass(), 1.0);
  }

  /// Bucket of a log-odds weight on the grid `delta`. Every member and
  /// candidate weight comes from the view's `log_odds()` column, so the
  /// scalar and batched paths bucket from the same value.
  static std::int64_t BucketFromPhi(double phi, double delta) {
    return static_cast<std::int64_t>(std::ceil(phi / delta - 0.5));
  }

  /// Rebuilds `dist` on the grid `delta` from the committed members with
  /// the `(out_pos, in)` move applied — `in` folded last — plus the prior
  /// pseudo-worker. Workers whose bucket would overflow the span guard are
  /// skipped; the returned total span tells the caller to give up.
  std::int64_t FoldJury(std::size_t out_pos, std::size_t in, double delta,
                        BucketKeyDistribution* dist) const {
    const std::span<const double> norm = view().norm_quality();
    const std::span<const double> phi = view().log_odds();
    const auto fold = [&](double q, double weight) {
      const std::int64_t b = BucketFromPhi(weight, delta);
      if (dist->span() + b <= kMaxIncrementalSpan) dist->Convolve(b, q);
      return b;
    };
    dist->Reset();
    std::int64_t span = 0;
    for (std::size_t i = 0; i < size(); ++i) {
      if (i == out_pos) continue;
      span += fold(norm[members()[i]], phi[members()[i]]);
    }
    if (in != kNoIndex) span += fold(norm[in], phi[in]);
    if (has_prior_) span += fold(prior_q_, prior_phi_);
    return span;
  }

  void RefreshBuckets() {
    const double delta =
        grid_upper_ / static_cast<double>(options_.num_buckets);
    const std::span<const double> phi = view().log_odds();
    bucket_.resize(size());
    for (std::size_t i = 0; i < size(); ++i) {
      bucket_[i] = BucketFromPhi(phi[members()[i]], delta);
    }
  }

  BucketJqOptions options_;
  bool has_prior_ = false;
  double prior_q_ = 0.5;
  double prior_phi_ = 0.0;

  // Committed state: the members' buckets under the committed grid
  // (aligned with members()) and the key distribution of jury + prior.
  // `dist_valid_` is false in the special-case modes.
  std::vector<std::int64_t> bucket_;
  BucketKeyDistribution dist_;
  bool dist_valid_ = false;
  double grid_upper_ = 0.0;

  // Scratch for the staged move.
  BucketKeyDistribution scratch_dist_;
  // Scratch for the batched swap scan: the committed distribution with
  // the outgoing member deconvolved, shared by every same-grid partner.
  BucketKeyDistribution swap_dist_;
  bool scratch_regular_ = false;
  bool scratch_rebuilt_ = false;
  double scratch_upper_ = 0.0;
  std::size_t staged_out_ = kNoIndex;
  bool staged_has_in_ = false;
  std::int64_t staged_in_bucket_ = 0;

  // Reusable SoA staging for the batched scans.
  std::vector<std::int64_t> batch_bs_;
  std::vector<double> batch_qs_;
  std::vector<std::size_t> batch_slot_;
  std::vector<double> batch_out_;
};

}  // namespace

// --------------------------------------------------------------- base class

IncrementalJqEvaluator::IncrementalJqEvaluator(const JqObjective* objective,
                                               const WorkerPoolView& view,
                                               double alpha)
    : objective_(objective),
      alpha_(alpha),
      view_(&view),
      current_jq_(objective->EmptyJq(alpha)) {}

std::size_t IncrementalJqEvaluator::PositionOf(std::size_t in) const {
  return static_cast<std::size_t>(
      std::find(members_.begin(), members_.end(), in) - members_.begin());
}

double IncrementalJqEvaluator::ScoreAdd(std::size_t in) {
  JURY_CHECK_LT(in, view_->size());
  staged_ = MoveKind::kAdd;
  staged_in_ = in;
  staged_score_ = ComputeAdd(in);
  return staged_score_;
}

void IncrementalJqEvaluator::ScoreAddBatch(const std::size_t* pool_indices,
                                           std::size_t count,
                                           double* scores) {
  // Reference implementation: the scalar scan loop, so backends without a
  // batched kernel (full-recompute, exact-BV) behave exactly as before.
  for (std::size_t j = 0; j < count; ++j) {
    scores[j] = ScoreAdd(pool_indices[j]);
  }
  Rollback();
}

void IncrementalJqEvaluator::ScoreRemoveBatch(
    const std::size_t* member_positions, std::size_t count, double* scores) {
  for (std::size_t j = 0; j < count; ++j) {
    scores[j] = ScoreRemove(member_positions[j]);
  }
  Rollback();
}

void IncrementalJqEvaluator::ScoreSwapBatch(std::size_t out_position,
                                            const std::size_t* pool_indices,
                                            std::size_t count,
                                            double* scores) {
  for (std::size_t j = 0; j < count; ++j) {
    scores[j] = ScoreSwap(out_position, pool_indices[j]);
  }
  Rollback();
}

double IncrementalJqEvaluator::ScoreRemove(std::size_t out_pos) {
  JURY_CHECK_LT(out_pos, members_.size());
  staged_ = MoveKind::kRemove;
  staged_pos_ = out_pos;
  staged_score_ = ComputeRemove(out_pos);
  return staged_score_;
}

double IncrementalJqEvaluator::ScoreSwap(std::size_t out_pos, std::size_t in) {
  JURY_CHECK_LT(out_pos, members_.size());
  JURY_CHECK_LT(in, view_->size());
  staged_ = MoveKind::kSwap;
  staged_pos_ = out_pos;
  staged_in_ = in;
  staged_score_ = ComputeSwap(out_pos, in);
  return staged_score_;
}

void IncrementalJqEvaluator::Commit() {
  JURY_CHECK(staged_ != MoveKind::kNone) << "Commit without a staged move";
  switch (staged_) {
    case MoveKind::kAdd:
      members_.push_back(staged_in_);
      break;
    case MoveKind::kRemove:
      members_.erase(members_.begin() +
                     static_cast<std::ptrdiff_t>(staged_pos_));
      break;
    case MoveKind::kSwap:
      members_[staged_pos_] = staged_in_;
      break;
    case MoveKind::kNone:
      break;
  }
  AdoptStaged();
  current_jq_ = staged_score_;
  staged_ = MoveKind::kNone;
}

void IncrementalJqEvaluator::Rollback() {
  if (staged_ == MoveKind::kNone) return;
  DiscardStaged();
  staged_ = MoveKind::kNone;
}

void IncrementalJqEvaluator::CommitAdd(std::size_t in, double score) {
  JURY_CHECK_LT(in, view_->size());
  Rollback();
  members_.push_back(in);
  ApplyAdd(in);
  current_jq_ = score;
}

std::vector<std::size_t> IncrementalJqEvaluator::MembersWith(
    std::size_t out_pos, std::size_t in) const {
  std::vector<std::size_t> moved;
  moved.reserve(members_.size() + 1);
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (i != out_pos) {
      moved.push_back(members_[i]);
    } else if (in != kNoIndex) {
      moved.push_back(in);  // swap in place
    }
  }
  if (in != kNoIndex && out_pos == kNoIndex) moved.push_back(in);
  return moved;
}

std::vector<double> IncrementalJqEvaluator::QualitiesWith(
    std::size_t out_pos, std::size_t in) const {
  return QualitiesOf(*view_, MembersWith(out_pos, in));
}

namespace {

// Process-wide mirrors of the per-objective counters (see
// util/stats_registry.h): the per-objective atomics stay the per-solve
// report source, while these aggregate across every objective in the
// process for `--stats` and the report's opt-in snapshot. Registered at
// static initialization so the instrument set is identical in every
// process, used or not.
StatsRegistry::Counter& g_full_evals = RegisterStatsCounter("eval.full");
StatsRegistry::Counter& g_incremental_evals =
    RegisterStatsCounter("eval.incremental");

}  // namespace

void JqObjective::CountEvaluation() const {
  full_evals_.fetch_add(1, std::memory_order_relaxed);
  g_full_evals.Increment();
}

void IncrementalJqEvaluator::CountFullEvaluation() const {
  objective_->full_evals_.fetch_add(1, std::memory_order_relaxed);
  g_full_evals.Increment();
}

void IncrementalJqEvaluator::CountIncrementalEvaluation() const {
  objective_->incremental_evals_.fetch_add(1, std::memory_order_relaxed);
  g_incremental_evals.Increment();
}

void IncrementalJqEvaluator::CountIncrementalEvaluations(std::size_t n) const {
  if (n == 0) return;
  objective_->incremental_evals_.fetch_add(n, std::memory_order_relaxed);
  g_incremental_evals.Add(n);
}

// ---------------------------------------------------------------- factories

std::unique_ptr<IncrementalJqEvaluator> JqObjective::StartSession(
    const WorkerPoolView& view, double alpha, bool incremental) const {
  // Session construction is the solve path's first real allocation; the
  // hook stands in for it failing before any state exists.
  JURY_FAULT_POINT("eval.session_start");
  if (!incremental) {
    return std::make_unique<FullRecomputeEvaluator>(this, view, alpha);
  }
  return StartIncrementalSession(view, alpha);
}

std::unique_ptr<IncrementalJqEvaluator> JqObjective::StartIncrementalSession(
    const WorkerPoolView& view, double alpha) const {
  // Objectives without a delta backend still get the session API.
  return std::make_unique<FullRecomputeEvaluator>(this, view, alpha);
}

std::unique_ptr<IncrementalJqEvaluator>
BucketBvObjective::StartIncrementalSession(const WorkerPoolView& view,
                                           double alpha) const {
  return std::make_unique<IncrementalBucketBvEvaluator>(this, view, alpha,
                                                        options_);
}

std::unique_ptr<IncrementalJqEvaluator>
ExactBvObjective::StartIncrementalSession(const WorkerPoolView& view,
                                          double alpha) const {
  return std::make_unique<IncrementalExactBvEvaluator>(this, view, alpha);
}

std::unique_ptr<IncrementalJqEvaluator>
MajorityObjective::StartIncrementalSession(const WorkerPoolView& view,
                                           double alpha) const {
  return std::make_unique<IncrementalMajorityEvaluator>(this, view, alpha);
}

// --------------------------------------------------------------- one-shots
//
// The binary estimators read nothing but the members' qualities, so each
// one-shot scores the anonymous jury of those qualities.

double BucketBvObjective::Evaluate(const WorkerPoolView& view,
                                   std::span<const std::size_t> members,
                                   double alpha) const {
  CountEvaluation();
  if (members.empty()) return EmptyJuryJq(alpha);
  return EstimateJq(Jury::FromQualities(QualitiesOf(view, members)), alpha,
                    options_)
      .value();
}

std::size_t ExactBvObjective::max_jury_size() const {
  return kMaxExactJurySize;
}

double ExactBvObjective::Evaluate(const WorkerPoolView& view,
                                  std::span<const std::size_t> members,
                                  double alpha) const {
  CountEvaluation();
  if (members.empty()) return EmptyJuryJq(alpha);
  // Infallible past the boundary: the pool was checked against
  // max_jury_size() before solving, and alpha at request validation.
  return ExactJqBv(Jury::FromQualities(QualitiesOf(view, members)), alpha)
      .value();
}

double MajorityObjective::Evaluate(const WorkerPoolView& view,
                                   std::span<const std::size_t> members,
                                   double alpha) const {
  CountEvaluation();
  if (members.empty()) return EmptyJuryJq(alpha);
  return MajorityJq(Jury::FromQualities(QualitiesOf(view, members)), alpha)
      .value();
}

}  // namespace jury

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

// ---------------------------------------------------------------------------
// Full-recompute session: the `--no-incremental` reference path. Scores every
// staged move by materializing the jury and calling `Evaluate`, so it is the
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
  double ComputeAdd(const Worker& worker) override {
    return objective_->Evaluate(MaterializeWith(kNoMember, &worker), alpha());
  }
  double ComputeRemove(std::size_t idx) override {
    return objective_->Evaluate(MaterializeWith(idx, nullptr), alpha());
  }
  double ComputeSwap(std::size_t out_idx, const Worker& in) override {
    return objective_->Evaluate(MaterializeWith(out_idx, &in), alpha());
  }
  void AdoptStaged() override {}
  /// No cached state: committing a pre-scored add is free.
  void ApplyAdd(const Worker&) override {}

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
  double ComputeAdd(const Worker& worker) override {
    LoadScratch();
    AddToScratch(worker.quality);
    CountIncrementalEvaluation();
    return ScratchScore();
  }
  double ComputeRemove(std::size_t idx) override {
    LoadScratch();
    RemoveFromScratch(members()[idx].quality);
    CountIncrementalEvaluation();
    return ScratchScore();
  }
  double ComputeSwap(std::size_t out_idx, const Worker& in) override {
    LoadScratch();
    RemoveFromScratch(members()[out_idx].quality);
    AddToScratch(in.quality);
    CountIncrementalEvaluation();
    return ScratchScore();
  }
  void AdoptStaged() override {
    zeros_t0_ = std::move(scratch_t0_);
    zeros_t1_ = std::move(scratch_t1_);
  }
  void ApplyAdd(const Worker& worker) override {
    // Same convolution the scratch path runs, minus the scratch copies.
    zeros_t0_.AddTrial(worker.quality);
    zeros_t1_.AddTrial(1.0 - worker.quality);
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
    const std::vector<double>& committed = member_qualities();
    batch_q0_.resize(count);
    batch_q1_.resize(count);
    batch_tail_.resize(count);
    batch_cdf_.resize(count);
    for (std::size_t j = 0; j < count; ++j) {
      const double q = committed[member_positions[j]];
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
    const double q_out = member_qualities()[out_position];
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
  double ComputeAdd(const Worker& worker) override {
    const std::size_t new_n = size() + 1;
    if (new_n > kMaxCachedMembers) return FullScore(kNoMember, &worker);
    if (!state_.valid) {
      FoldMembers(Hypothetical(kNoMember, nullptr), &scratch_);
      ExtendInPlace(&scratch_, worker.quality);
    } else {
      ExtendFrom(state_, worker.quality, &scratch_);
    }
    CountIncrementalEvaluation();
    return Sweep(scratch_);
  }
  double ComputeRemove(std::size_t idx) override {
    if (size() - 1 > kMaxCachedMembers) return FullScore(idx, nullptr);
    FoldMembers(Hypothetical(idx, nullptr), &scratch_);
    CountIncrementalEvaluation();
    return Sweep(scratch_);
  }
  double ComputeSwap(std::size_t out_idx, const Worker& in) override {
    if (size() > kMaxCachedMembers) return FullScore(out_idx, &in);
    FoldMembers(Hypothetical(out_idx, &in), &scratch_);
    CountIncrementalEvaluation();
    return Sweep(scratch_);
  }
  void AdoptStaged() override { state_ = std::move(scratch_); }
  void DiscardStaged() override { scratch_.valid = false; }
  void ApplyAdd(const Worker& worker) override {
    scratch_.valid = false;
    if (size() + 1 > kMaxCachedMembers || !state_.valid) {
      // Past the cache cap (or with no cached table) the next scoring
      // rebuilds from the member list anyway.
      state_.valid = false;
      return;
    }
    ExtendInPlace(&state_, worker.quality);
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

  std::vector<double> Hypothetical(std::size_t out_idx,
                                   const Worker* in) const {
    return MaterializeWith(out_idx, in).qualities();
  }

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

  double FullScore(std::size_t out_idx, const Worker* in) {
    scratch_.valid = false;
    const std::vector<double> qs = Hypothetical(out_idx, in);
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
    }
  }

  /// Key-span guard: past this the dense delta state would be larger than
  /// the one-shot estimator's own dense limit; score via `EstimateJq`.
  static constexpr std::int64_t kMaxIncrementalSpan = std::int64_t{1} << 22;

 protected:
  double ComputeAdd(const Worker& worker) override {
    return Score(kNoMember, &worker);
  }
  double ComputeRemove(std::size_t idx) override {
    return Score(idx, nullptr);
  }
  double ComputeSwap(std::size_t out_idx, const Worker& in) override {
    return Score(out_idx, &in);
  }

  void AdoptStaged() override {
    // Mirror the member-list change in the normalized-quality view.
    if (staged_out_ != kNoMember && staged_has_in_) {
      norm_q_[staged_out_] = staged_in_q_;  // swap in place
    } else if (staged_out_ != kNoMember) {
      norm_q_.erase(norm_q_.begin() + static_cast<std::ptrdiff_t>(staged_out_));
    } else if (staged_has_in_) {
      norm_q_.push_back(staged_in_q_);
    }
    if (scratch_regular_) {
      dist_ = std::move(scratch_dist_);
      if (scratch_rebuilt_ || grid_upper_ != scratch_upper_) {
        grid_upper_ = scratch_upper_;
        RefreshBuckets();
      } else if (staged_out_ != kNoMember && staged_has_in_) {
        bucket_[staged_out_] = staged_in_bucket_;
      } else if (staged_out_ != kNoMember) {
        bucket_.erase(bucket_.begin() +
                      static_cast<std::ptrdiff_t>(staged_out_));
      } else if (staged_has_in_) {
        bucket_.push_back(staged_in_bucket_);
      }
      dist_valid_ = true;
    } else {
      dist_valid_ = false;
    }
  }

  void ApplyAdd(const Worker& worker) override {
    // The in-place mirror of `Score(kNoMember, &worker)` + `AdoptStaged`:
    // same grid/special-case decisions, same convolution, but applied to
    // the committed key distribution directly — no scratch copy and no
    // `PositiveMass` sweep, since the score is already known.
    const double q = NormalizeQuality(worker.quality);
    double max_q = has_prior_ ? prior_q_ : 0.0;
    for (double v : norm_q_) max_q = std::max(max_q, v);
    max_q = std::max(max_q, q);
    norm_q_.push_back(q);
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
      const std::int64_t b = BucketOf(q, delta);
      if (dist_.span() + b <= kMaxIncrementalSpan) {
        dist_.Convolve(b, q);
        bucket_.push_back(b);
        return;
      }
    }
    // Grid moved or no cached state: rebuild on the new grid (counts as a
    // full evaluation, exactly like the Score rebuild path).
    dist_.Reset();
    std::int64_t span = 0;
    for (double v : norm_q_) span += FoldWorkerInto(&dist_, v, delta);
    if (has_prior_) span += FoldWorkerInto(&dist_, prior_q_, delta);
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
  /// scan. Normalized qualities and log-odds come straight from the
  /// view's columns, so no score re-runs the flip or the log.
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
        scores[j] = ScoreAdd(view().worker(idx));
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
    batch_bs_.clear();
    batch_qs_.clear();
    batch_slot_.clear();
    std::size_t fast_or_special = 0;
    for (std::size_t j = 0; j < count; ++j) {
      const std::size_t pos = member_positions[j];
      if (norm_q_.size() <= 1) {
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
        batch_qs_.push_back(norm_q_[pos]);
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
            swap_dist_.Deconvolve(out_b, norm_q_[out_position]);
            scratch_ready = true;
          }
          batch_bs_.push_back(b);
          batch_qs_.push_back(q);
          batch_slot_.push_back(j);
          ++fast_or_special;
          continue;
        }
      }
      scores[j] = ScoreSwap(out_position, view().worker(idx));
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
  double CommittedMaxQuality() const {
    double max_q = has_prior_ ? prior_q_ : 0.0;
    for (double v : norm_q_) max_q = std::max(max_q, v);
    return max_q;
  }

  /// Same fold with member `out` excluded — the committed part of every
  /// remove/swap candidate's grid scan.
  double MaxQualityWithout(std::size_t out) const {
    double max_q = has_prior_ ? prior_q_ : 0.0;
    for (std::size_t i = 0; i < norm_q_.size(); ++i) {
      if (i == out) continue;
      max_q = std::max(max_q, norm_q_[i]);
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

  double Score(std::size_t out_idx, const Worker* in) {
    staged_out_ = out_idx;
    staged_has_in_ = in != nullptr;
    staged_in_q_ = in != nullptr ? NormalizeQuality(in->quality) : 0.5;
    scratch_regular_ = false;
    scratch_rebuilt_ = false;

    const std::size_t count =
        norm_q_.size() - (out_idx != kNoMember ? 1 : 0) + (in != nullptr ? 1 : 0);
    if (count == 0) {
      // `Evaluate` short-circuits the empty jury before the estimator runs.
      CountIncrementalEvaluation();
      return EmptyJuryJq(alpha());
    }

    // The grid and the special-case modes depend only on the maximum
    // normalized quality of jury + prior (phi is monotone in q).
    double max_q = has_prior_ ? prior_q_ : 0.0;
    for (std::size_t i = 0; i < norm_q_.size(); ++i) {
      if (i == out_idx) continue;
      max_q = std::max(max_q, norm_q_[i]);
    }
    if (in != nullptr) max_q = std::max(max_q, staged_in_q_);

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
        in != nullptr ? BucketOf(staged_in_q_, delta) : std::int64_t{0};

    if (dist_valid_ && upper == grid_upper_) {
      // Same grid: the neighbouring jury's key distribution is one
      // (de)convolution away from the committed one.
      const std::int64_t out_b =
          out_idx != kNoMember ? bucket_[out_idx] : std::int64_t{0};
      const std::int64_t projected =
          dist_.span() - out_b + (in != nullptr ? staged_in_bucket_ : 0);
      if (projected <= kMaxIncrementalSpan) {
        scratch_dist_ = dist_;
        if (out_idx != kNoMember) {
          scratch_dist_.Deconvolve(out_b, norm_q_[out_idx]);
        }
        if (in != nullptr) {
          scratch_dist_.Convolve(staged_in_bucket_, staged_in_q_);
        }
        scratch_upper_ = upper;
        scratch_regular_ = true;
        CountIncrementalEvaluation();
        return std::min(scratch_dist_.PositiveMass(), 1.0);
      }
    }

    // Grid changed (the max-quality member moved) or no valid cached
    // state: rebuild the key distribution from scratch on the new grid.
    scratch_dist_.Reset();
    std::int64_t span = 0;
    for (std::size_t i = 0; i < norm_q_.size(); ++i) {
      if (i == out_idx) continue;
      span += FoldWorker(norm_q_[i], delta);
    }
    if (in != nullptr) span += FoldWorker(staged_in_q_, delta);
    if (has_prior_) span += FoldWorker(prior_q_, delta);
    CountFullEvaluation();
    if (span > kMaxIncrementalSpan) {
      // Oversized dense state: score one-shot and drop the cache.
      scratch_regular_ = false;
      return OneShot(out_idx, in);
    }
    scratch_upper_ = upper;
    scratch_regular_ = true;
    scratch_rebuilt_ = true;
    return std::min(scratch_dist_.PositiveMass(), 1.0);
  }

  std::int64_t BucketOf(double norm_q, double delta) const {
    return BucketFromPhi(LogOdds(EffectiveQuality(norm_q)), delta);
  }

  /// Bucket of a precomputed log-odds (the view's `log_odds()` column
  /// stores exactly `LogOdds(EffectiveQuality(norm_q))`, so column-sourced
  /// buckets are bit-identical to `BucketOf`).
  std::int64_t BucketFromPhi(double phi, double delta) const {
    return static_cast<std::int64_t>(std::ceil(phi / delta - 0.5));
  }

  std::int64_t FoldWorker(double norm_q, double delta) {
    return FoldWorkerInto(&scratch_dist_, norm_q, delta);
  }

  std::int64_t FoldWorkerInto(BucketKeyDistribution* dist, double norm_q,
                              double delta) const {
    const std::int64_t b = BucketOf(norm_q, delta);
    if (dist->span() + b <= kMaxIncrementalSpan) {
      dist->Convolve(b, norm_q);
    }
    return b;
  }

  double OneShot(std::size_t out_idx, const Worker* in) const {
    return EstimateJq(MaterializeWith(out_idx, in), alpha(), options_)
        .value();
  }

  void RefreshBuckets() {
    const double delta =
        grid_upper_ / static_cast<double>(options_.num_buckets);
    bucket_.resize(norm_q_.size());
    for (std::size_t i = 0; i < norm_q_.size(); ++i) {
      bucket_[i] = BucketOf(norm_q_[i], delta);
    }
  }

  BucketJqOptions options_;
  bool has_prior_ = false;
  double prior_q_ = 0.5;

  // Committed state: normalized member qualities (aligned with members()),
  // their buckets under the committed grid, and the key distribution of
  // jury + prior. `dist_valid_` is false in the special-case modes.
  std::vector<double> norm_q_;
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
  std::size_t staged_out_ = kNoMember;
  bool staged_has_in_ = false;
  double staged_in_q_ = 0.5;
  std::int64_t staged_in_bucket_ = 0;

  // Reusable SoA staging for `ScoreAddBatch`.
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

double IncrementalJqEvaluator::ScoreAdd(const Worker& worker) {
  staged_ = MoveKind::kAdd;
  staged_idx_ = kNoMember;
  staged_worker_ = worker;
  staged_score_ = ComputeAdd(worker);
  return staged_score_;
}

void IncrementalJqEvaluator::ScoreAddBatch(const std::size_t* pool_indices,
                                           std::size_t count,
                                           double* scores) {
  // Reference implementation: the scalar scan loop, so backends without a
  // batched kernel (full-recompute, exact-BV) behave exactly as before.
  for (std::size_t j = 0; j < count; ++j) {
    scores[j] = ScoreAdd(view_->worker(pool_indices[j]));
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
    scores[j] = ScoreSwap(out_position, view_->worker(pool_indices[j]));
  }
  Rollback();
}

double IncrementalJqEvaluator::ScoreRemove(std::size_t idx) {
  JURY_CHECK_LT(idx, members_.size());
  staged_ = MoveKind::kRemove;
  staged_idx_ = idx;
  staged_score_ = ComputeRemove(idx);
  return staged_score_;
}

double IncrementalJqEvaluator::ScoreSwap(std::size_t out_idx,
                                         const Worker& in_worker) {
  JURY_CHECK_LT(out_idx, members_.size());
  staged_ = MoveKind::kSwap;
  staged_idx_ = out_idx;
  staged_worker_ = in_worker;
  staged_score_ = ComputeSwap(out_idx, in_worker);
  return staged_score_;
}

void IncrementalJqEvaluator::Commit() {
  JURY_CHECK(staged_ != MoveKind::kNone) << "Commit without a staged move";
  AdoptStaged();
  switch (staged_) {
    case MoveKind::kAdd:
      member_quality_.push_back(staged_worker_.quality);
      members_.push_back(std::move(staged_worker_));
      break;
    case MoveKind::kRemove:
      member_quality_.erase(member_quality_.begin() +
                            static_cast<std::ptrdiff_t>(staged_idx_));
      members_.erase(members_.begin() +
                     static_cast<std::ptrdiff_t>(staged_idx_));
      break;
    case MoveKind::kSwap:
      member_quality_[staged_idx_] = staged_worker_.quality;
      members_[staged_idx_] = std::move(staged_worker_);
      break;
    case MoveKind::kNone:
      break;
  }
  current_jq_ = staged_score_;
  staged_ = MoveKind::kNone;
}

void IncrementalJqEvaluator::Rollback() {
  if (staged_ == MoveKind::kNone) return;
  DiscardStaged();
  staged_ = MoveKind::kNone;
}

void IncrementalJqEvaluator::CommitAdd(const Worker& worker, double score) {
  Rollback();
  ApplyAdd(worker);
  member_quality_.push_back(worker.quality);
  members_.push_back(worker);
  current_jq_ = score;
}

Jury IncrementalJqEvaluator::MaterializeWith(std::size_t out_idx,
                                             const Worker* in) const {
  Jury jury;
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (i == out_idx) {
      if (in != nullptr) jury.Add(*in);  // swap in place
      continue;
    }
    jury.Add(members_[i]);
  }
  if (in != nullptr && out_idx == kNoMember) jury.Add(*in);
  return jury;
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

double BucketBvObjective::Evaluate(const Jury& candidate_jury,
                                   double alpha) const {
  CountEvaluation();
  if (candidate_jury.empty()) return EmptyJuryJq(alpha);
  return EstimateJq(candidate_jury, alpha, options_).value();
}

std::size_t ExactBvObjective::max_jury_size() const {
  return kMaxExactJurySize;
}

double ExactBvObjective::Evaluate(const Jury& candidate_jury,
                                  double alpha) const {
  CountEvaluation();
  if (candidate_jury.empty()) return EmptyJuryJq(alpha);
  // Infallible past the boundary: the pool was checked against
  // max_jury_size() before solving, and alpha at request validation.
  return ExactJqBv(candidate_jury, alpha).value();
}

double MajorityObjective::Evaluate(const Jury& candidate_jury,
                                   double alpha) const {
  CountEvaluation();
  if (candidate_jury.empty()) return EmptyJuryJq(alpha);
  return MajorityJq(candidate_jury, alpha).value();
}

}  // namespace jury

#ifndef JURYOPT_CORE_OBJECTIVE_H_
#define JURYOPT_CORE_OBJECTIVE_H_

#include <atomic>
#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "jq/bucket.h"
#include "util/fault_injection.h"

namespace jury {

class IncrementalJqEvaluator;
class WorkerPoolView;

/// JQ of the empty jury under the scalar binary prior (see core/jsp.h,
/// which owns the definition); redeclared here so the `EmptyJq` default
/// below needs no header cycle.
double EmptyJuryJq(double alpha);

/// Tolerance of the session-vs-Evaluate equivalence contract: a delta
/// update and a from-scratch evaluation of the same jury agree within this
/// bound (property-tested). Solvers band every score-sensitive comparison
/// (acceptance, argmax, incumbent tracking, tie-breaks) at this tolerance
/// so the two evaluation paths make identical decisions — the bucket
/// objective produces *exact* JQ ties between neighbouring juries, so
/// strict comparisons would flip on evaluation noise.
inline constexpr double kScoreEquivalenceTol = 1e-12;

/// \brief Split instrumentation for the runtime figures: how many candidate
/// juries were scored from scratch (O(n) per worker and worse) versus by an
/// O(n) delta update inside an `IncrementalJqEvaluator` session. A snapshot
/// value — the objective itself accumulates atomically, so concurrent
/// sessions (parallel restart chains, cloned scan shards) can score without
/// racing on the instrumentation.
struct EvaluationCounters {
  /// From-scratch evaluations: every `Evaluate` call plus every session
  /// score that had to rebuild its cached state (grid change, cache limit).
  std::size_t full = 0;
  /// Delta-updated session scores.
  std::size_t incremental = 0;

  std::size_t total() const { return full + incremental; }
};

/// \brief The quality function a JSP solver maximizes. OPTJS plugs in the
/// bucket-approximated Bayesian-Voting JQ; the MVJS baseline plugs in the
/// exact Majority-Voting JQ. Solvers treat this as a black box, which is
/// exactly how §7 argues the annealing heuristic generalizes.
///
/// Two-level API:
///  * `Evaluate` — stateless one-shot scoring of an arbitrary jury of
///    view indices;
///  * `StartSession` — an `IncrementalJqEvaluator` over a candidate pool's
///    view that scores the add/remove/swap neighbourhood of a growing
///    jury via O(n) delta updates, which is how the solvers explore
///    candidates.
class JqObjective {
 public:
  /// Pool-view column in which this objective's *add* score is monotone
  /// non-decreasing: whenever `key(a) >= key(b)`, adding `a` to any
  /// committed jury scores at least as high as adding `b` (and equal keys
  /// score bit-identically, since every backend's score is a pure function
  /// of the key value and the committed state). This is the admissible
  /// upper bound the sharded frontier scan prunes with. BV objectives are
  /// monotone in the §3.3 flip-normalized quality (the paper's Lemma 2
  /// garbling argument); MV is monotone in raw quality (a higher-quality
  /// juror only raises the majority's correctness probability). `kNone`
  /// (the default) declares no monotone column and disables frontier
  /// pruning for the objective.
  enum class ScoreMonotoneKey { kNone, kNormQuality, kQuality };

  virtual ~JqObjective() = default;
  virtual std::string name() const = 0;

  /// See `ScoreMonotoneKey`.
  virtual ScoreMonotoneKey score_monotone_key() const {
    return ScoreMonotoneKey::kNone;
  }

  /// JQ estimate under prior `alpha` of the jury `members`, named by
  /// index into `view` (the same vocabulary as a session's `members()`).
  /// Must accept the empty jury (returning `EmptyJq(alpha)`).
  virtual double Evaluate(const WorkerPoolView& view,
                          std::span<const std::size_t> members,
                          double alpha) const = 0;

  /// Whether JQ never decreases when a worker is added (Lemma 1). True for
  /// BV; false for MV (an even-sized extension can hurt). Solvers use this
  /// to decide whether "add if it fits" needs an acceptance test.
  virtual bool monotone_in_size() const = 0;

  /// Largest candidate jury `Evaluate` accepts; unlimited by default. The
  /// exact-enumeration objective is guarded to `kMaxExactJurySize`, and a
  /// solver can stage any subset of the pool, so callers must reject pools
  /// larger than this *before* solving (the API adapters do) — past the
  /// boundary, an oversized jury is a programming error, not a Status.
  virtual std::size_t max_jury_size() const {
    return static_cast<std::size_t>(-1);
  }

  /// JQ of the *empty* jury under this objective — the baseline every
  /// solver starts its search (and its incumbent tracking) from. The
  /// binary objectives all follow the scalar prior: `EmptyJuryJq(alpha) =
  /// max(alpha, 1-alpha)`. Objectives whose prior is richer than one
  /// scalar (the multiclass facade, which adapts a confusion-matrix
  /// problem behind this interface) override it, so the solver drivers
  /// never hard-code the binary formula.
  virtual double EmptyJq(double alpha) const { return EmptyJuryJq(alpha); }

  /// Opens an evaluation session starting from the empty jury, bound to
  /// the candidate pool's columnar snapshot: every move names its
  /// candidate by view index, and the scalar and batched scores read the
  /// view's contiguous columns. `view` must outlive the session; callers
  /// build it once per pool. When `incremental` is false the session
  /// scores every move by calling `Evaluate` on the moved jury — the
  /// `--no-incremental` reference path that delta updates are asserted
  /// bit-equal (within 1e-12) against.
  std::unique_ptr<IncrementalJqEvaluator> StartSession(
      const WorkerPoolView& view, double alpha,
      bool incremental = true) const;

  /// Total number of jury scorings so far (full + incremental), kept for
  /// the original instrumentation consumers.
  std::size_t evaluations() const { return evaluation_counters().total(); }
  /// Full vs. incremental breakdown (a consistent-enough snapshot; exact
  /// once all sessions have quiesced).
  EvaluationCounters evaluation_counters() const {
    EvaluationCounters snapshot;
    snapshot.full = full_evals_.load(std::memory_order_relaxed);
    snapshot.incremental = incremental_evals_.load(std::memory_order_relaxed);
    return snapshot;
  }
  void ResetEvaluationCounters() const {
    full_evals_.store(0, std::memory_order_relaxed);
    incremental_evals_.store(0, std::memory_order_relaxed);
  }

 protected:
  /// Backend hook: returns the delta-updating session. The default is the
  /// full-recompute session, so third-party objectives keep working.
  virtual std::unique_ptr<IncrementalJqEvaluator> StartIncrementalSession(
      const WorkerPoolView& view, double alpha) const;

  // Out of line: besides the per-objective atomic it bumps the
  // process-wide stats registry, which this header must not drag in.
  void CountEvaluation() const;

 private:
  friend class IncrementalJqEvaluator;
  mutable std::atomic<std::size_t> full_evals_{0};
  mutable std::atomic<std::size_t> incremental_evals_{0};
};

/// \brief A stateful evaluation session over one growing/shrinking jury.
///
/// The session owns the jury's member list — the one copy of the jury,
/// held as indices into the bound `WorkerPoolView`. Solvers *stage* a
/// candidate move with one of the `Score*` calls — which returns the JQ the
/// jury would have after the move, computed by an O(n) delta update where
/// the backend supports it — and then either `Commit()` (adopt the move and
/// its score) or `Rollback()` (discard it). A subsequent `Score*` call
/// replaces the staged move, so a solver may scan many candidates and
/// re-stage the winner before committing. Every move names its incoming
/// candidate by view index and its outgoing member by position in
/// `members()`.
///
/// Scores agree with `JqObjective::Evaluate` on the same member list to
/// within 1e-12 (property-tested); the `incremental=false` session produced
/// by `StartSession` is exactly `Evaluate` under the hood.
class IncrementalJqEvaluator {
 public:
  virtual ~IncrementalJqEvaluator() = default;

  double alpha() const { return alpha_; }
  /// Committed members as view indices, in insertion order (swap replaces
  /// in place).
  const std::vector<std::size_t>& members() const { return members_; }
  /// Position of view index `in` in `members()`, or `size()` when `in` is
  /// not a member.
  std::size_t PositionOf(std::size_t in) const;
  /// The columnar pool view bound at `StartSession`. Clones share the
  /// parent's view.
  const WorkerPoolView& view() const { return *view_; }
  std::size_t size() const { return members_.size(); }
  /// JQ of the committed jury (`EmptyJuryJq(alpha)` for the empty jury).
  double current_jq() const { return current_jq_; }
  bool has_staged_move() const { return staged_ != MoveKind::kNone; }

  /// Deep copy of this session at its committed state, for per-thread
  /// scan shards: a clone scores exactly the moves the original would
  /// (bit-identical — it copies the backend's cached state, not a rebuilt
  /// equivalent), so candidates can be sharded across threads without the
  /// winner depending on which thread scored which shard. Clones report
  /// into the owning objective's (atomic) evaluation counters. Any staged
  /// move is not cloned; clone before staging.
  virtual std::unique_ptr<IncrementalJqEvaluator> Clone() const = 0;

  /// Commits "add view index `in`" when its score is already known — from
  /// a previous `Score*` on this session or on a `Clone()` — without
  /// re-computing the delta. This is the scan-then-commit fast path: a
  /// candidate scan remembers the staged winner's score and commits it
  /// directly, saving one delta evaluation per round. Discards any staged
  /// move first. `score` must be the value `ScoreAdd(in)` would return;
  /// the backend applies the move to its committed state in place.
  void CommitAdd(std::size_t in, double score);

  /// JQ of members + view index `in`; stages the addition.
  double ScoreAdd(std::size_t in);

  /// \brief Unified batched move-scan API over the bound view.
  ///
  /// The batched triplet below scores a whole scan of the add/remove/swap
  /// neighbourhood in one call: candidates are named by *view indices*
  /// (adds, swap-ins) or *member positions* (removes, swap-outs), exactly
  /// as in the scalar calls, and the MV and BV/bucket backends score them
  /// through fused structure-of-arrays kernels
  /// (`PoissonBinomial::EvaluateBatch`/`EvaluateRemoveBatch`,
  /// `BucketKeyDistribution::ConvolvePositiveMassBatch`/
  /// `DeconvolvePositiveMass`) that read the view's contiguous columns
  /// directly — the same columns the scalar calls read, with no
  /// per-candidate scratch copies and no virtual dispatch per score. All
  /// three are bit-identical to the corresponding scalar `Score*` loop
  /// (EXPECT_EQ-tested), leave no move staged, and are pure functions of
  /// (committed jury, candidate) — so scans can be sharded across threads
  /// with any grain without changing a single bit. The base
  /// implementations loop the scalar calls, which is what the
  /// full-recompute and exact-BV sessions use. Every score is against the
  /// *committed* jury, and any previously staged move is discarded.
  ///
  /// Fills `scores[j]` with `ScoreAdd(pool_indices[j])`.
  virtual void ScoreAddBatch(const std::size_t* pool_indices,
                             std::size_t count, double* scores);
  /// Fills `scores[j]` with `ScoreRemove(member_positions[j])`.
  virtual void ScoreRemoveBatch(const std::size_t* member_positions,
                                std::size_t count, double* scores);
  /// Fills `scores[j]` with `ScoreSwap(out_position, pool_indices[j])` —
  /// the swap-partner scan of the annealing neighbourhood.
  virtual void ScoreSwapBatch(std::size_t out_position,
                              const std::size_t* pool_indices,
                              std::size_t count, double* scores);

  /// JQ with the member at position `out_pos` removed; stages the removal.
  double ScoreRemove(std::size_t out_pos);
  /// JQ with the member at position `out_pos` replaced by view index
  /// `in`; stages the swap.
  double ScoreSwap(std::size_t out_pos, std::size_t in);
  /// Adopts the staged move: the member list and `current_jq` now reflect
  /// it. Requires a staged move.
  void Commit();
  /// Discards the staged move (no-op when nothing is staged).
  void Rollback();

 protected:
  IncrementalJqEvaluator(const JqObjective* objective,
                         const WorkerPoolView& view, double alpha);
  /// Memberwise copy for `Clone` implementations.
  IncrementalJqEvaluator(const IncrementalJqEvaluator&) = default;

  /// Sentinel of the `(out_pos, in)` move encoding the hooks below share:
  /// `out_pos == kNoIndex` means no member leaves, `in == kNoIndex` that
  /// no candidate enters.
  static constexpr std::size_t kNoIndex = static_cast<std::size_t>(-1);

  /// The committed members with a hypothetical move applied, as view
  /// indices: `out_pos == kNoIndex` with `in` appends (add); a valid
  /// `out_pos` with `in` replaces in place (swap); a valid `out_pos`
  /// without `in` skips that member (remove).
  std::vector<std::size_t> MembersWith(std::size_t out_pos,
                                       std::size_t in) const;
  /// The same hypothetical jury's qualities, read from the view's quality
  /// column.
  std::vector<double> QualitiesWith(std::size_t out_pos, std::size_t in) const;

  /// Backend hooks: compute the score of the staged move into scratch
  /// state. `Commit` updates the member list *before* it calls
  /// `AdoptStaged`, so the hook sees the post-move members; `Rollback`
  /// calls `DiscardStaged`.
  virtual double ComputeAdd(std::size_t in) = 0;
  virtual double ComputeRemove(std::size_t out_pos) = 0;
  virtual double ComputeSwap(std::size_t out_pos, std::size_t in) = 0;
  virtual void AdoptStaged() = 0;
  virtual void DiscardStaged() {}

  /// Backend hook for `CommitAdd`: fold the member just appended to
  /// `members()` into the committed cached state directly (no scoring, no
  /// scratch round-trip).
  virtual void ApplyAdd(std::size_t in) = 0;

  /// Instrumentation forwarded to the owning objective's counters.
  void CountFullEvaluation() const;
  void CountIncrementalEvaluation() const;
  /// Bulk form for batched kernels: one atomic add for `n` scorings.
  void CountIncrementalEvaluations(std::size_t n) const;

  /// Runs one batched kernel pass — the SIMD sweep over the session's
  /// staged arrays plus the scatter of per-candidate scores.
  template <class F>
  void RunKernelPass(F&& pass) {
    // Stands in for a kernel flush failing (a device error in an
    // offloaded build). Thrown before the pass runs: staged state is
    // untouched, so `Rollback()` restores the session.
    JURY_FAULT_POINT("eval.kernel_flush");
    pass();
  }

 private:
  enum class MoveKind { kNone, kAdd, kRemove, kSwap };

  const JqObjective* objective_;
  double alpha_;
  const WorkerPoolView* view_;
  std::vector<std::size_t> members_;
  double current_jq_;
  MoveKind staged_ = MoveKind::kNone;
  std::size_t staged_pos_ = 0;
  std::size_t staged_in_ = 0;
  double staged_score_ = 0.0;
};

/// BV jury quality via Algorithm 1 (`EstimateJq`). The paper's OPTJS
/// objective. Sessions keep the Algorithm-1 key distribution as state and
/// add/remove workers by O(span) convolution/deconvolution.
class BucketBvObjective final : public JqObjective {
 public:
  explicit BucketBvObjective(BucketJqOptions options = {})
      : options_(options) {}
  std::string name() const override { return "BV/bucket"; }
  double Evaluate(const WorkerPoolView& view,
                  std::span<const std::size_t> members,
                  double alpha) const override;
  bool monotone_in_size() const override { return true; }
  ScoreMonotoneKey score_monotone_key() const override {
    return ScoreMonotoneKey::kNormQuality;
  }
  const BucketJqOptions& options() const { return options_; }

 protected:
  std::unique_ptr<IncrementalJqEvaluator> StartIncrementalSession(
      const WorkerPoolView& view, double alpha) const override;

 private:
  BucketJqOptions options_;
};

/// BV jury quality by exact 2^n enumeration; only for small juries
/// (tests, Fig. 7(a)-scale experiments). Sessions cache the enumeration
/// state (per-voting decision statistic and conditional probabilities), so
/// a move re-folds in O(2^n) instead of re-enumerating in O(n 2^n).
class ExactBvObjective final : public JqObjective {
 public:
  std::string name() const override { return "BV/exact"; }
  double Evaluate(const WorkerPoolView& view,
                  std::span<const std::size_t> members,
                  double alpha) const override;
  bool monotone_in_size() const override { return true; }
  ScoreMonotoneKey score_monotone_key() const override {
    return ScoreMonotoneKey::kNormQuality;
  }
  /// `kMaxExactJurySize` — the 2^n enumeration guard (defined in the .cc
  /// to keep jq/exact.h out of this header).
  std::size_t max_jury_size() const override;

 protected:
  std::unique_ptr<IncrementalJqEvaluator> StartIncrementalSession(
      const WorkerPoolView& view, double alpha) const override;
};

/// MV jury quality via the exact Poisson-binomial DP. The MVJS baseline
/// objective (Cao et al. [7] solve argmax JQ(J, MV, 0.5)). Sessions keep
/// the two conditional Poisson-binomial pmfs and update them in O(n) via
/// `PoissonBinomial::AddTrial`/`RemoveTrial`.
class MajorityObjective final : public JqObjective {
 public:
  std::string name() const override { return "MV/exact"; }
  double Evaluate(const WorkerPoolView& view,
                  std::span<const std::size_t> members,
                  double alpha) const override;
  bool monotone_in_size() const override { return false; }
  ScoreMonotoneKey score_monotone_key() const override {
    return ScoreMonotoneKey::kQuality;
  }

 protected:
  std::unique_ptr<IncrementalJqEvaluator> StartIncrementalSession(
      const WorkerPoolView& view, double alpha) const override;
};

}  // namespace jury

#endif  // JURYOPT_CORE_OBJECTIVE_H_

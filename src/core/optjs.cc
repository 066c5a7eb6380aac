#include "core/optjs.h"

#include <algorithm>

#include "core/greedy.h"
#include "core/objective.h"
#include "util/scheduler.h"

namespace jury {
namespace {

/// Re-evaluates a solution's jury with a per-worker bucket multiplier of
/// 200, which the §4.4 analysis proves keeps the JQ estimate within 1% (in
/// practice far closer). The *search* may run on the coarse default (the
/// paper's numBuckets = 50); the *reported* quality should not. A failing
/// re-estimate (a key-map cap under an adversarial bucket count) is a
/// `Status` the caller propagates — never an abort mid-solve.
Result<double> TightJq(const JspInstance& instance,
                       const JspSolution& solution,
                       const BucketJqOptions& base) {
  if (solution.selected.empty()) return EmptyJuryJq(instance.alpha);
  BucketJqOptions tight = base;
  tight.num_buckets =
      std::max(tight.num_buckets,
               200 * static_cast<int>(solution.selected.size() + 1));
  return EstimateJq(solution.ToJury(instance), instance.alpha, tight);
}

}  // namespace

Status OptjsOptions::Validate() const {
  // Field-declaration order (bucket, annealing, exhaustive_threshold), so
  // a request with several bad knobs reports the lowest-index one — the
  // error contract the API tests pin.
  JURY_RETURN_NOT_OK(bucket.Validate());
  JURY_RETURN_NOT_OK(annealing.Validate());
  if (exhaustive_threshold > 62) {
    return Status::InvalidArgument(
        "exhaustive_threshold must be <= 62 (64-bit subset masks)");
  }
  return Status::OK();
}

Result<JspSolution> SolveOptjs(const JspInstance& instance,
                               const WorkerPoolView& view,
                               const BucketBvObjective& objective, Rng* rng,
                               const OptjsOptions& options,
                               AnnealingStats* annealing_stats,
                               bool* used_exhaustive_shortcut) {
  JURY_RETURN_NOT_OK(ValidateSolveEntry(instance, view));
  JURY_RETURN_NOT_OK(options.Validate());
  if (annealing_stats != nullptr) *annealing_stats = AnnealingStats{};
  if (options.termination != nullptr) *options.termination = TerminationInfo{};

  JspSolution best;
  const bool shortcut = options.exhaustive_threshold > 0 &&
                        instance.num_candidates() <= options.exhaustive_threshold;
  if (used_exhaustive_shortcut != nullptr) {
    *used_exhaustive_shortcut = shortcut;
  }
  if (shortcut) {
    ExhaustiveOptions exhaustive;
    exhaustive.max_candidates = options.exhaustive_threshold;
    exhaustive.use_incremental = options.use_incremental;
    exhaustive.num_threads = options.num_threads;
    exhaustive.cancel_token = options.cancel_token;
    exhaustive.max_work_units = options.max_work_units;
    TerminationInfo exhaustive_term;
    exhaustive.termination =
        options.termination != nullptr ? &exhaustive_term : nullptr;
    JURY_ASSIGN_OR_RETURN(
        best, SolveExhaustive(instance, view, objective, exhaustive));
    if (options.termination != nullptr) {
      options.termination->Merge(exhaustive_term);
    }
  } else {
    // Every inner solve inherits the facade's stop signal and per-strand
    // work budget, but gets its *own* TerminationInfo — the fallbacks
    // run concurrently with annealing, so a shared out-pointer would
    // race. The three are merged in fixed serial order after the join.
    AnnealingOptions annealing = options.annealing;
    annealing.use_incremental &= options.use_incremental;
    annealing.num_threads = options.num_threads;
    annealing.cancel_token = options.cancel_token;
    annealing.max_work_units = options.max_work_units;
    TerminationInfo annealing_term;
    annealing.termination = &annealing_term;
    GreedyOptions greedy;
    greedy.use_incremental = options.use_incremental;
    greedy.num_threads = options.num_threads;
    greedy.cancel_token = options.cancel_token;
    greedy.max_work_units = options.max_work_units;
    TerminationInfo by_quality_term;
    TerminationInfo by_value_term;
    GreedyOptions greedy_by_quality = greedy;
    greedy_by_quality.termination = &by_quality_term;
    GreedyOptions greedy_by_value = greedy;
    greedy_by_value.termination = &by_value_term;
    // The annealing solve and the two greedy fallbacks (each with its
    // tight re-evaluation) are independent: at >1 threads the fallbacks
    // run as tasks on the process-wide scheduler while the caller runs
    // annealing. Deterministic: the rng is consumed only by annealing
    // (exactly as in the serial order below), the fallbacks take no rng,
    // and the jq comparisons after the join run in the fixed serial
    // order. When SolveOptjs itself runs inside a task (a budget-table
    // row), these become nested tasks idle workers can steal.
    const std::size_t threads = ResolveThreadCount(options.num_threads);
    Result<JspSolution> by_quality_result = JspSolution{};
    Result<JspSolution> by_value_result = JspSolution{};
    // One definition per fallback, run either as a task or inline, so the
    // parallel and serial paths cannot diverge.
    const auto solve_by_quality = [&] {
      by_quality_result =
          SolveGreedyByQuality(instance, view, objective, greedy_by_quality);
      if (by_quality_result.ok()) {
        const Result<double> tight =
            TightJq(instance, by_quality_result.value(), options.bucket);
        if (tight.ok()) {
          by_quality_result.value().jq = tight.value();
        } else {
          by_quality_result = tight.status();
        }
      }
    };
    const auto solve_by_value = [&] {
      by_value_result =
          SolveGreedyByValuePerCost(instance, view, objective,
                                    greedy_by_value);
      if (by_value_result.ok()) {
        const Result<double> tight =
            TightJq(instance, by_value_result.value(), options.bucket);
        if (tight.ok()) {
          by_value_result.value().jq = tight.value();
        } else {
          by_value_result = tight.status();
        }
      }
    };
    if (threads > 1) {
      TaskGroup fallbacks;
      fallbacks.Run(solve_by_quality);
      fallbacks.Run(solve_by_value);
      JURY_ASSIGN_OR_RETURN(
          best, SolveAnnealing(instance, view, objective, rng, annealing,
                               annealing_stats));
      JURY_ASSIGN_OR_RETURN(best.jq,
                            TightJq(instance, best, options.bucket));
      fallbacks.Wait();
    } else {
      JURY_ASSIGN_OR_RETURN(
          best, SolveAnnealing(instance, view, objective, rng, annealing,
                               annealing_stats));
      JURY_ASSIGN_OR_RETURN(best.jq,
                            TightJq(instance, best, options.bucket));
      solve_by_quality();
      solve_by_value();
    }
    // Cheap deterministic fallbacks: annealing occasionally ends in a poor
    // local optimum; keep whichever jury re-evaluates best. Same check
    // order as the historical serial code, so errors and ties resolve
    // identically however the three solves were scheduled.
    JURY_RETURN_NOT_OK(by_quality_result.status());
    JURY_RETURN_NOT_OK(by_value_result.status());
    if (by_quality_result.value().jq > best.jq) best = by_quality_result.value();
    if (by_value_result.value().jq > best.jq) best = by_value_result.value();
    if (options.termination != nullptr) {
      options.termination->Merge(annealing_term);
      options.termination->Merge(by_quality_term);
      options.termination->Merge(by_value_term);
    }
    return best;
  }
  JURY_ASSIGN_OR_RETURN(best.jq, TightJq(instance, best, options.bucket));
  return best;
}

}  // namespace jury

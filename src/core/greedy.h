#ifndef JURYOPT_CORE_GREEDY_H_
#define JURYOPT_CORE_GREEDY_H_

#include "core/jsp.h"
#include "core/objective.h"
#include "core/solver_options.h"
#include "util/result.h"

namespace jury {

/// \brief Cheap deterministic JSP baselines, used for ablations (E19) and as
/// seeds/components of the MVJS system. All of them grow juries one worker
/// at a time through an `IncrementalJqEvaluator` session.
struct GreedyOptions : SolverOptions {
  /// Score candidate additions by delta update (see AnnealingOptions).
  bool use_incremental = true;

  /// Every knob is a free boolean/count today, so this always returns OK;
  /// it exists so the uniform options contract (`*Options::Validate()`
  /// called at every solve entry) covers the greedy family too.
  Status Validate() const { return Status::OK(); }
};

// Every entry below takes `view`, which must be `*instance.pool`, the
// columnar view built once per validated pool; only
// `ValidateSolveEntry` and the options are checked per call.

/// Sorts candidates by quality (descending) and adds each one that still
/// fits the budget. With uniform costs this is optimal for BV by Lemmas 1-2
/// (a property the tests verify).
Result<JspSolution> SolveGreedyByQuality(const JspInstance& instance,
                                         const WorkerPoolView& view,
                                         const JqObjective& objective,
                                         const GreedyOptions& options = {});

/// Sorts by (quality - 0.5) / cost — informativeness per unit money — and
/// adds while affordable. Free workers (cost ~ 0) rank first.
Result<JspSolution> SolveGreedyByValuePerCost(
    const JspInstance& instance, const WorkerPoolView& view,
    const JqObjective& objective, const GreedyOptions& options = {});

/// MV-oriented heuristic: for every odd jury size k, greedily picks the k
/// highest-quality affordable workers, evaluates the objective, and keeps
/// the best size. Mirrors the odd-size-majority intuition behind Cao et
/// al.'s MV solver (MV gains nothing from even extensions). The k-prefixes
/// are nested, so one evaluation session walks every size in O(n) delta
/// updates total.
Result<JspSolution> SolveOddTopK(const JspInstance& instance,
                                 const WorkerPoolView& view,
                                 const JqObjective& objective,
                                 const GreedyOptions& options = {});

/// True marginal-gain greedy: each round scores *every* affordable
/// candidate addition through the session (an O(n) delta update apiece
/// rather than an O(n^2) from-scratch evaluation) and commits the best
/// one directly at its remembered score. Stops when nothing fits — or,
/// for non-monotone objectives, when the best addition no longer improves
/// the jury. With `options.num_threads != 1` the per-round scan shards
/// candidates across threads, each thread scoring through its own
/// `Clone()` of the round's session; scores are bit-identical to the
/// serial scan and the winner is picked by the same ordered banded argmax,
/// so the selected jury never depends on the thread count.
Result<JspSolution> SolveGreedyMarginalGain(const JspInstance& instance,
                                            const WorkerPoolView& view,
                                            const JqObjective& objective,
                                            const GreedyOptions& options = {});

}  // namespace jury

#endif  // JURYOPT_CORE_GREEDY_H_

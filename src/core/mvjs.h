#ifndef JURYOPT_CORE_MVJS_H_
#define JURYOPT_CORE_MVJS_H_

#include "core/annealing.h"
#include "core/jsp.h"
#include "core/solver_options.h"
#include "util/result.h"
#include "util/rng.h"

namespace jury {

/// \brief The Majority-Voting Jury Selection baseline (Cao et al. [7]):
/// solves `argmax_{J in C} JQ(J, MV, 0.5)`.
///
/// Cao et al.'s search code is not public; this reproduction gives MV the
/// same search machinery OPTJS uses — simulated annealing over the exact
/// MV jury quality — plus the odd-top-k greedy that exploits MV's structure,
/// returning whichever is better (DESIGN.md substitution #2). Because both
/// systems search equally hard, the measured OPTJS-vs-MVJS gap isolates the
/// voting-strategy optimality, which is the paper's claim under test.
struct MvjsOptions : SolverOptions {
  AnnealingOptions annealing;
  /// Also try the odd-top-k greedy and keep the better jury.
  bool use_odd_top_k = true;
  /// Master switch for delta-update evaluation (Poisson-binomial
  /// AddTrial/RemoveTrial under the MV objective).
  bool use_incremental = true;

  /// Validates the forwarded annealing schedule. Called at every solve
  /// entry.
  Status Validate() const { return annealing.Validate(); }
};

/// Solves JSP under the MV strategy (the baseline system of §6.1.2).
/// The returned `jq` is the exact JQ(J, MV, alpha) of the chosen jury.
/// `view` is the columnar snapshot of `instance.candidates`, built once
/// per validated pool; the caller builds the exact-MV objective, so it
/// owns its evaluation counters. When `annealing_stats` is non-null it
/// receives the inner SA instrumentation.
Result<JspSolution> SolveMvjs(const JspInstance& instance,
                              const WorkerPoolView& view,
                              const MajorityObjective& objective, Rng* rng,
                              const MvjsOptions& options = {},
                              AnnealingStats* annealing_stats = nullptr);

}  // namespace jury

#endif  // JURYOPT_CORE_MVJS_H_

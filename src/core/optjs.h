#ifndef JURYOPT_CORE_OPTJS_H_
#define JURYOPT_CORE_OPTJS_H_

#include "core/annealing.h"
#include "core/exhaustive.h"
#include "core/jsp.h"
#include "core/solver_options.h"
#include "jq/bucket.h"
#include "util/result.h"
#include "util/rng.h"

namespace jury {

/// \brief Configuration of the Optimal Jury Selection System.
///
/// The base's `num_threads` caps the parallel sections of every solver
/// the facade drives (copied over the per-solver knobs); the base's
/// cancellation fields are likewise forwarded into every inner solve, so
/// one token/work-budget bounds the whole facade.
struct OptjsOptions : SolverOptions {
  /// Algorithm-1 settings used for every JQ evaluation.
  BucketJqOptions bucket;
  /// Simulated-annealing schedule (Algorithm 3).
  AnnealingOptions annealing;
  /// Below this candidate count the (exact, Lemma-1-pruned) exhaustive
  /// search is used instead of annealing; 0 disables the shortcut.
  std::size_t exhaustive_threshold = 12;
  /// Master switch for delta-update evaluation across every solver the
  /// facade drives (annealing, exhaustive, greedy fallbacks). Overrides
  /// the per-solver flags when false.
  bool use_incremental = true;

  /// Validates the facade's own knobs plus everything it forwards: the
  /// Algorithm-1 bucket count, the annealing schedule, and the
  /// exhaustive-shortcut threshold (0 = disabled, else a 64-bit-mask
  /// bound). Called at every solve entry.
  Status Validate() const;
};

/// \brief OPTJS — the paper's "Optimal Jury Selection System" (Fig. 1):
/// JSP solved under Bayesian Voting, the JQ-optimal strategy (Corollary 1).
///
/// The returned `jq` is the Algorithm-1 estimate JQ-hat(J, BV, alpha), an
/// underestimate of the true JQ by at most the §4.4 bound.
///
/// `view` is the columnar snapshot of `instance.candidates`, built once
/// per validated pool. The caller builds the Algorithm-1 objective, so it
/// owns its evaluation counters; `objective.options()` must equal
/// `options.bucket`. When `annealing_stats` is non-null it receives the
/// inner SA instrumentation (zeroed when the exhaustive shortcut ran
/// instead); `used_exhaustive_shortcut` (when non-null) records which
/// path the facade actually took.
Result<JspSolution> SolveOptjs(const JspInstance& instance,
                               const WorkerPoolView& view,
                               const BucketBvObjective& objective, Rng* rng,
                               const OptjsOptions& options = {},
                               AnnealingStats* annealing_stats = nullptr,
                               bool* used_exhaustive_shortcut = nullptr);

}  // namespace jury

#endif  // JURYOPT_CORE_OPTJS_H_

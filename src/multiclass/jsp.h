#ifndef JURYOPT_MULTICLASS_JSP_H_
#define JURYOPT_MULTICLASS_JSP_H_

#include <vector>

#include "multiclass/jq_bucket.h"
#include "multiclass/model.h"
#include "util/result.h"
#include "util/rng.h"

namespace jury::mc {

/// \brief Multi-class JSP instance (§7 "Jury Selection Problem Extension").
struct McJspInstance {
  std::vector<McWorker> candidates;
  double budget = 0.0;
  McPrior prior;

  Status Validate() const;
};

/// \brief Multi-class JSP solution (indices into candidates).
struct McJspSolution {
  std::vector<std::size_t> selected;
  double jq = 0.0;
  double cost = 0.0;
};

/// \brief Simulated-annealing knobs; same schedule as the binary Algorithm 3
/// (they are forwarded into `AnnealingOptions` and validated there).
struct McAnnealingOptions {
  double initial_temperature = 1.0;
  double epsilon = 1e-8;
  double cooling_factor = 0.5;
  McBucketOptions bucket;
};

/// \brief JSP under the confusion-matrix model, by simulated annealing with
/// `EstimateMcJq` as the black-box objective — exactly how §7 argues the
/// binary heuristic carries over ("the simulated annealing heuristic regards
/// computing JQ as a black box"). Lemma 1 still holds (more workers never
/// hurt BV), so affordable additions are accepted unconditionally.
///
/// Since the unified-solve-API redesign this *is* the binary solver: the
/// multi-class objective is adapted behind the `JqObjective` interface
/// (one placeholder worker per candidate, carrying the per-solve cost
/// column, so view indices are candidate indices) and the shared
/// `SolveAnnealing` driver runs the schedule — including its rng-free
/// batched best-improvement polish — instead of the copy-pasted mirror
/// this file used to carry.
Result<McJspSolution> SolveMcAnnealing(const McJspInstance& instance, Rng* rng,
                                       const McAnnealingOptions& options = {});

/// Exhaustive multi-class JSP for small candidate pools (tests/benchmarks).
/// Delegates to the shared `SolveExhaustive` driver through the same
/// adapter, inheriting its Lemma-1 maximality pruning and its
/// cheaper-jury-on-ties tie-break.
Result<McJspSolution> SolveMcExhaustive(const McJspInstance& instance,
                                        const McBucketOptions& bucket = {},
                                        std::size_t max_candidates = 16);

}  // namespace jury::mc

#endif  // JURYOPT_MULTICLASS_JSP_H_

#include "core/mvjs.h"

#include "core/greedy.h"
#include "core/objective.h"

namespace jury {

Result<JspSolution> SolveMvjs(const JspInstance& instance,
                              const WorkerPoolView& view,
                              const MajorityObjective& objective, Rng* rng,
                              const MvjsOptions& options,
                              AnnealingStats* annealing_stats) {
  JURY_RETURN_NOT_OK(ValidateSolveEntry(instance, view));
  JURY_RETURN_NOT_OK(options.Validate());
  if (options.termination != nullptr) *options.termination = TerminationInfo{};

  // Both phases run serially, but each gets its own TerminationInfo so
  // the merge below is explicit and ordered (annealing, then top-k).
  AnnealingOptions annealing = options.annealing;
  annealing.use_incremental &= options.use_incremental;
  annealing.cancel_token = options.cancel_token;
  annealing.max_work_units = options.max_work_units;
  TerminationInfo annealing_term;
  annealing.termination = &annealing_term;
  JURY_ASSIGN_OR_RETURN(
      JspSolution best,
      SolveAnnealing(instance, view, objective, rng, annealing,
                     annealing_stats));
  if (options.termination != nullptr) {
    options.termination->Merge(annealing_term);
  }

  if (options.use_odd_top_k) {
    GreedyOptions greedy_options;
    greedy_options.use_incremental = options.use_incremental;
    greedy_options.cancel_token = options.cancel_token;
    greedy_options.max_work_units = options.max_work_units;
    TerminationInfo greedy_term;
    greedy_options.termination = &greedy_term;
    JURY_ASSIGN_OR_RETURN(
        JspSolution greedy,
        SolveOddTopK(instance, view, objective, greedy_options));
    if (greedy.jq > best.jq) best = greedy;
    if (options.termination != nullptr) {
      options.termination->Merge(greedy_term);
    }
  }
  return best;
}

}  // namespace jury

#ifndef JURYOPT_CORE_BRANCH_BOUND_H_
#define JURYOPT_CORE_BRANCH_BOUND_H_

#include "core/jsp.h"
#include "core/objective.h"
#include "core/solver_options.h"
#include "util/result.h"

namespace jury {

/// \brief Options/instrumentation for the branch-and-bound JSP solver.
/// The search itself is serial (the base's `num_threads` is unused); the
/// base's cancellation fields bound it per explored node — a stop
/// returns the incumbent as an anytime result, unlike the `max_nodes`
/// overrun below, which stays a hard error.
struct BranchBoundOptions : SolverOptions {
  /// Hard cap on explored nodes (guards pathological instances);
  /// ResourceExhausted when exceeded.
  std::size_t max_nodes = 2'000'000;
  /// Maintain the Lemma-1 bound jury (current selection plus every still
  /// undecided worker) in an evaluation session: excluding a worker is one
  /// delta removal, backtracking one delta re-add, and the include branch
  /// inherits the parent's bound state untouched — so each node's bound
  /// costs O(n) instead of an O(n^2) from-scratch evaluation. Disable to
  /// recover the original per-node evaluation.
  bool use_incremental = true;

  /// Rejects a zero node budget (which would ResourceExhaust every solve
  /// at the root). Called at every solve entry.
  Status Validate() const;
};

struct BranchBoundStats {
  std::size_t nodes_explored = 0;
  std::size_t nodes_pruned_budget = 0;
  std::size_t nodes_pruned_bound = 0;
};

/// \brief Exact JSP for monotone objectives by depth-first branch and
/// bound, usually far faster than the 2^N sweep:
///
///  * candidates are ordered by decreasing single-worker marginal score
///    (one batched `ScoreAddBatch` against the empty jury; with a sharded
///    pool wired, the frontier's slate first and its key order after);
///  * at each node the solver branches on including/excluding the next
///    worker, skipping unaffordable inclusions (budget pruning);
///  * Lemma 1 gives the bound: the JQ of the current selection plus ALL
///    remaining workers (ignoring their cost) is an upper bound on any
///    completion, so subtrees that cannot beat the incumbent are cut.
///
/// Requires `objective.monotone_in_size()` (InvalidArgument otherwise) —
/// for MV use `SolveExhaustive`. Ties break towards cheaper juries, like
/// the exhaustive solver. `view` is the columnar snapshot of
/// `instance.candidates`, built once per validated pool.
Result<JspSolution> SolveBranchAndBound(const JspInstance& instance,
                                        const WorkerPoolView& view,
                                        const JqObjective& objective,
                                        const BranchBoundOptions& options = {},
                                        BranchBoundStats* stats = nullptr);

}  // namespace jury

#endif  // JURYOPT_CORE_BRANCH_BOUND_H_

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
  /// Order candidates by their batched single-worker marginal scores (one
  /// `ScoreAddBatch` over the whole pool against the empty jury) instead
  /// of raw quality. For BV this sorts by *flip-normalized* strength —
  /// sub-0.5 workers are as informative as their mirror image — which
  /// tightens the include-first search order; for the >= 0.5 pools of the
  /// paper's experiments the two orders coincide. The ordering scan always
  /// runs on the delta-update session (it is a heuristic, not a score), so
  /// the search order — and hence the returned jury — is identical
  /// between the incremental and full-recompute evaluation paths.
  bool order_by_marginal_gain = true;

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
///  * candidates are ordered by decreasing quality;
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

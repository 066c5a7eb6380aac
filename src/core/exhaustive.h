#ifndef JURYOPT_CORE_EXHAUSTIVE_H_
#define JURYOPT_CORE_EXHAUSTIVE_H_

#include "core/jsp.h"
#include "core/objective.h"
#include "core/solver_options.h"
#include "util/result.h"

namespace jury {

/// \brief Options for the brute-force JSP solver.
struct ExhaustiveOptions : SolverOptions {
  /// Hard cap on the candidate count (2^N subsets are enumerated).
  /// Must stay within [1, 62]: subsets are 64-bit masks.
  std::size_t max_candidates = 22;
  /// Walk the subsets in Gray-code order, so consecutive juries differ by
  /// one worker and each is scored by a single session add/remove delta
  /// update instead of a from-scratch evaluation. Disable to recover the
  /// original ascending-mask sweep (always serial — it is the reference
  /// path).
  ///
  /// With `num_threads != 1` (and enough candidates) the Gray-code sweep
  /// is partitioned: the top bits of the subset mask are fixed per shard
  /// — the shard count depends only on N, never on the thread count — and
  /// each shard walks the Gray code of its low bits on its own session.
  /// Shard-local incumbents are merged serially in shard order under the
  /// same tie-break (`Improves`), which is visit-order independent, so
  /// every thread count returns the same jury as the serial sweep.
  bool use_incremental = true;

  /// Range-checks `max_candidates` (the subset masks are 64-bit);
  /// InvalidArgument otherwise. Called at every solve entry.
  Status Validate() const;
};

/// \brief Exact JSP by enumerating every feasible jury (the paper's
/// reference point for Fig. 7(a) and Table 3, where N = 11).
///
/// For monotone objectives (Lemma 1), only maximal feasible juries need the
/// objective evaluated — any non-maximal jury is dominated by a superset —
/// which prunes most of the 2^N evaluations. Returns OutOfRange when N
/// exceeds `max_candidates`. `view` is the columnar snapshot of
/// `instance.candidates`, built once per validated pool.
Result<JspSolution> SolveExhaustive(const JspInstance& instance,
                                    const WorkerPoolView& view,
                                    const JqObjective& objective,
                                    const ExhaustiveOptions& options = {});

}  // namespace jury

#endif  // JURYOPT_CORE_EXHAUSTIVE_H_

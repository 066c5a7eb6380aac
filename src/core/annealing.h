#ifndef JURYOPT_CORE_ANNEALING_H_
#define JURYOPT_CORE_ANNEALING_H_

#include <cstddef>

#include "core/jsp.h"
#include "core/objective.h"
#include "core/solver_options.h"
#include "util/result.h"
#include "util/rng.h"

namespace jury {

/// \brief Knobs of the simulated-annealing JSP heuristic (Algorithm 3).
struct AnnealingOptions : SolverOptions {
  /// Initial temperature T (step 1 of Algorithm 3).
  double initial_temperature = 1.0;
  /// Loop terminates when T drops below epsilon (the paper uses 1e-8).
  double epsilon = 1e-8;
  /// Geometric cooling T <- T * cooling_factor (the paper halves).
  double cooling_factor = 0.5;
  /// Return the best jury seen rather than the final one. The paper's
  /// Algorithm 3 returns the final state; keeping the incumbent is a common
  /// SA refinement, benchmarked in `bench_ablation_solvers`.
  bool return_best_seen = false;
  /// Extension beyond Algorithm 3: with this probability a move on a
  /// selected worker proposes REMOVING it (Boltzmann-gated — removals
  /// always lower a monotone objective, so they only survive at high
  /// temperature). This lets the search escape "budget-full of cheap
  /// workers" states that 1-for-1 swaps cannot leave, the local-optimum
  /// family behind the Table-3 tail (see EXPERIMENTS.md). 0 disables and
  /// recovers the paper's verbatim neighbourhood.
  double removal_probability = 0.0;
  /// Score each candidate move through the objective's delta-update
  /// session (O(n) per move) instead of a from-scratch evaluation
  /// (O(n^2)). The two paths agree within 1e-12 per score and return
  /// identical juries (property-tested); disable to score every move
  /// from scratch. Note the acceptance protocol (a uniform draw per
  /// evaluated move, ties accepted within `kScoreEquivalenceTol`) is
  /// shared by both paths — it is what keeps their rng streams and
  /// decisions aligned — so either path's trajectory differs from the
  /// pre-session solver for a given seed.
  bool use_incremental = true;
  /// \brief Batched neighbourhood polish (the unified-move-scan retrofit
  /// of the annealing neighbourhood).
  ///
  /// After the Algorithm-3 schedule finishes, each chain's jury is
  /// improved by deterministic best-improvement local search over the
  /// *entire* add/remove/swap neighbourhood, scanned through the unified
  /// batched move-scan API (`ScoreAddBatch` / `ScoreRemoveBatch` /
  /// `ScoreSwapBatch` on view indices): one contiguous batched pass per
  /// move family instead of one random probe per step. The polish is
  /// rng-free (it consumes nothing from the chain's stream, so the SA
  /// trajectory is untouched), banded at `kScoreEquivalenceTol` like
  /// every other score-sensitive decision, and identical between the
  /// incremental and full-recompute evaluation paths. It can only raise
  /// the returned JQ. This caps the number of *applied* polish moves
  /// (each strictly improving); 0 disables the polish entirely — the
  /// pre-polish behavior, kept for the bench ablation — and
  /// `kAutoPolishMoves` resolves to 2n + 8 at solve time.
  std::size_t max_polish_moves = kAutoPolishMoves;
  static constexpr std::size_t kAutoPolishMoves =
      static_cast<std::size_t>(-1);
  /// Independent restart chains, run across `num_threads` pool threads
  /// (each chain owns its own evaluation session and an `Rng` stream split
  /// deterministically from the caller's `rng` *before* the parallel
  /// region), reduced best-of in chain order with the `kScoreTol` band
  /// (strictly better JQ wins; a banded tie goes to the cheaper jury, then
  /// the earlier chain). The result is therefore bit-identical for any
  /// thread count, including 1. With the default single restart the
  /// caller's rng is used directly, preserving the historical
  /// single-chain trajectories seed-for-seed.
  std::size_t num_restarts = 1;
  /// Upper bound `Validate` enforces on `num_restarts`: each restart
  /// allocates a chain state, so an unchecked request-supplied count is a
  /// remote OOM. A million chains is far beyond any useful fan-out.
  static constexpr std::size_t kMaxRestarts = 1'000'000;

  /// Checks every knob's range (positive temperatures, a cooling factor in
  /// (0, 1), a probability for `removal_probability`, >= 1 restart) and
  /// returns InvalidArgument naming the offender. Called at every solve
  /// entry, so bad knobs fail fast as a `Status` instead of surfacing as
  /// silent misbehavior (an instantly-cold schedule) or CHECK aborts.
  Status Validate() const;
};

/// \brief Per-run instrumentation.
struct AnnealingStats {
  std::size_t temperature_levels = 0;
  std::size_t moves_attempted = 0;
  std::size_t moves_accepted = 0;
  std::size_t uphill_accepts = 0;    // delta >= -kScoreEquivalenceTol
                                     // (uphill or numerical tie)
  std::size_t downhill_accepts = 0;  // genuinely downhill,
                                     // Boltzmann-accepted
  std::size_t objective_evaluations = 0;
  /// Batched-neighbourhood polish instrumentation (kept separate from the
  /// Algorithm-3 counters above, whose exact values are contract-tested).
  std::size_t polish_scans = 0;  // full-neighbourhood batched scans run
  std::size_t polish_moves = 0;  // improving moves applied by the polish
};

/// \brief JSP by simulated annealing (Algorithms 3–4).
///
/// Each location is a jury; its objective value is JQ. Per temperature level
/// the solver makes N random local moves: adding a random unselected worker
/// when it fits the budget, otherwise swapping it against a random selected
/// one (Algorithm 4), accepting quality-decreasing swaps with probability
/// `exp(delta / T)` (Boltzmann). Temperature halves until epsilon.
/// `options.num_restarts > 1` runs that many independent chains in
/// parallel and returns the best jury found; `stats` then aggregates the
/// per-chain instrumentation. `view` must be `*instance.pool`, the
/// columnar view built once per validated pool (only
/// `ValidateSolveEntry` and the options are checked here).
Result<JspSolution> SolveAnnealing(const JspInstance& instance,
                                   const WorkerPoolView& view,
                                   const JqObjective& objective, Rng* rng,
                                   const AnnealingOptions& options = {},
                                   AnnealingStats* stats = nullptr);

}  // namespace jury

#endif  // JURYOPT_CORE_ANNEALING_H_

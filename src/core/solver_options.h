#ifndef JURYOPT_CORE_SOLVER_OPTIONS_H_
#define JURYOPT_CORE_SOLVER_OPTIONS_H_

#include <cstddef>
#include <cstdint>

#include "util/cancellation.h"

namespace jury {

class ShardedWorkerPool;
struct FrontierScanStats;

/// \brief Knobs shared by every JSP solver. Per-solver option structs
/// inherit from this, so `options.num_threads` configures the parallel
/// execution layer uniformly.
struct SolverOptions {
  /// Parallelism cap for each of the solver's parallel *regions* (restart
  /// chains, candidate shards, subset partitions), which run on the
  /// process-wide work-stealing scheduler. 0 = auto: the
  /// `JURYOPT_THREADS` environment variable when set, otherwise the
  /// hardware concurrency (`ResolveThreadCount` in util/scheduler.h).
  /// 1 forces the serial path (which never touches the scheduler).
  ///
  /// Note the cap is per region, not per solve: with nested solves
  /// (budget-table rows, the OPTJS fallback tasks) several capped
  /// regions can be in flight at once, so a solve's total concurrency is
  /// bounded by the scheduler's worker set rather than by this knob. To
  /// budget CPU for the whole process, export `JURYOPT_THREADS` before
  /// startup — it sizes the scheduler itself (1 = no workers ever
  /// spawn). Every parallel path is bit-deterministic in the thread
  /// count and returns the same jury as the serial path
  /// (property-tested), so these knobs only trade wall-clock for cores.
  std::size_t num_threads = 0;

  /// Cooperative stop signal, polled at each solver's cheap check sites
  /// (annealing step, greedy round, exhaustive mask, B&B node,
  /// budget-table row). On expiry the solver returns its best-so-far
  /// committed jury as an OK anytime result — never an error, never an
  /// unwind — and reports how it ended through `termination`. nullptr =
  /// run to completion. The token must outlive the solve; wall-clock
  /// stops are inherently nondeterministic, so deterministic paths
  /// (golden traces, bit-identity tests) never set one.
  const CancelToken* cancel_token = nullptr;

  /// Deterministic early-stop: each *strand* (each restart chain, each
  /// exhaustive shard, each scan) stops after consuming this many work
  /// units (0 = unlimited). Strand structure is a pure function of the
  /// request, so unlike a deadline the stop point — and hence the
  /// returned jury — is bit-identical across thread counts and SIMD
  /// levels. What one work unit means per solver is documented in
  /// ARCHITECTURE.md's check-site table.
  std::uint64_t max_work_units = 0;

  /// Optional out-param: how the solve ended (reason + work units
  /// completed). The solver overwrites it unconditionally after all
  /// strands have joined, so one instance can be reused across solves;
  /// facades that fan out nested solves give each inner solve its own
  /// instance and merge serially (never share the pointer across
  /// concurrent tasks).
  TerminationInfo* termination = nullptr;

  /// Candidate-frontier pre-selection (core/frontier.h): how many
  /// workers per shard slate the scan-heavy solvers score before the
  /// bound-guarded refinement, 0 = full O(N) scans (the default). Takes
  /// effect only when `sharded_pool` is set, the pool is built over the
  /// solver's view, and the objective declares a monotone score key
  /// (`JqObjective::score_monotone_key()`); otherwise solvers silently
  /// fall back to the full scan.
  std::size_t frontier_k = 0;

  /// Shard summaries for the frontier (model/sharded_pool.h), built over
  /// the same `WorkerPoolView` the solver scans. Runtime-only wiring —
  /// `PoolPlanContext` owns the pool and its adapters set this; the
  /// field never appears in request JSON.
  const ShardedWorkerPool* sharded_pool = nullptr;

  /// Optional out-param: frontier-scan instrumentation (candidates
  /// scanned, exactness proofs, shard expansions) accumulated across the
  /// solve. The same numbers also feed the process-wide
  /// `frontier.*` stats counters.
  FrontierScanStats* frontier_stats = nullptr;
};

}  // namespace jury

#endif  // JURYOPT_CORE_SOLVER_OPTIONS_H_

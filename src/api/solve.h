#ifndef JURYOPT_API_SOLVE_H_
#define JURYOPT_API_SOLVE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/annealing.h"
#include "core/branch_bound.h"
#include "core/exhaustive.h"
#include "core/greedy.h"
#include "core/jsp.h"
#include "core/mvjs.h"
#include "core/objective.h"
#include "core/optjs.h"
#include "model/pool_snapshot.h"
#include "model/worker.h"
#include "model/worker_pool_view.h"
#include "util/cancellation.h"
#include "util/json.h"
#include "util/result.h"

namespace jury {
class ShardedWorkerPool;
}  // namespace jury

namespace jury::serve {
class ResultCache;
}  // namespace jury::serve

namespace jury::api {

/// \brief Knobs of `PoolPlanContext::Plan` / `PlanFromSnapshot`.
struct PlanOptions {
  /// Skip the per-worker `ValidateWorker` pass. Set when the pool was
  /// already validated upstream — a CSV loaded through `LoadWorkersCsv`
  /// (which validates every row as it parses) or a verified snapshot — so
  /// planning never re-walks N workers just to re-prove what the loader
  /// already proved.
  bool assume_validated = false;
  /// Shard size of the lazily built `ShardedWorkerPool` (0 = the
  /// `ShardedPoolOptions` default).
  std::size_t shard_size = 0;
  /// Slate length per shard (0 = the `ShardedPoolOptions` default).
  std::size_t slate_k = 0;
};

/// \brief The uniform, typed options bag a `SolveRequest` carries: one
/// field per solver family, each the solver's own options struct with its
/// own `Validate()`. A request touches only the fields its named solver
/// consumes (an "annealing" request never reads `exhaustive`), so
/// defaults elsewhere cost nothing; every consumed field is validated at
/// solve entry and surfaces bad knobs as a `Status`, never a CHECK abort.
struct SolverTuning {
  /// Objective for the *raw* solvers ("annealing", "exhaustive", the
  /// greedy family, "branch-bound"): "bv-bucket" (Algorithm 1, the OPTJS
  /// objective — configured by `bucket`), "bv-exact" (2^n enumeration,
  /// small juries only), or "mv-exact" (exact Majority Voting). The
  /// facades ignore it: "optjs" always scores with BV/bucket (configured
  /// by `optjs.bucket`), "mvjs" always with MV/exact.
  std::string objective = "bv-bucket";
  /// Algorithm-1 configuration of the "bv-bucket" objective.
  BucketJqOptions bucket;

  AnnealingOptions annealing;
  GreedyOptions greedy;
  ExhaustiveOptions exhaustive;
  BranchBoundOptions branch_bound;
  OptjsOptions optjs;
  MvjsOptions mvjs;
};

/// \brief One jury-selection query against a planned pool: the §2.2
/// instance scalars (budget, prior alpha), the registry name of the
/// solver to run, its options overrides, and the seed of the solve's
/// private rng stream. Everything a solve depends on is in here — two
/// equal requests against the same pool return bit-identical juries, on
/// any thread count, in any batch order.
struct SolveRequest {
  /// Registry name (see `RegisteredSolverNames()` in api/registry.h).
  std::string solver = "optjs";
  /// Budget B of the feasible-jury constraint `sum of costs <= B`.
  double budget = 0.0;
  /// Task prior alpha = Pr[t = 0].
  double alpha = 0.5;
  /// Seed of the solve's private `Rng` stream (stochastic solvers only;
  /// the deterministic solvers never draw from it).
  std::uint64_t rng_seed = 20150323;
  /// Typed options overrides for the named solver.
  SolverTuning tuning;
  /// Wall-clock deadline for this solve, in milliseconds from solve entry
  /// (0 = none). When it expires the solve stops at its next check site
  /// and returns the best jury found so far as a successful *anytime*
  /// report (`SolveReport::terminated_early` set) — never an error.
  /// Wall-clock, so where the solve stops varies run to run: keep
  /// deadline-free requests for golden traces and replay tests.
  double deadline_ms = 0.0;
  /// Deterministic work budget (0 = unlimited). Each strand of the solve
  /// (annealing chain, subset shard, scan, row) counts its own units
  /// against this cap, and the strand structure is a pure function of the
  /// request — so a capped solve stops at the same point and returns the
  /// same jury for every thread count and SIMD tier. Units are
  /// solver-specific (moves, Gray steps, rounds, nodes).
  std::uint64_t max_work_units = 0;
  /// Optional caller-owned cooperative cancel signal, polled at the same
  /// check sites as the deadline. Runtime-only: never serialized, absent
  /// from the JSON binding, and must outlive the solve.
  const CancelToken* cancel_token = nullptr;
  /// Attach a snapshot of the process-wide `StatsRegistry` (scheduler,
  /// evaluation, plan-context, and parser counters) to the
  /// report as `SolveReport::process_stats`. Off by default because the
  /// snapshot is process-cumulative — it varies with whatever else the
  /// process has run — and would break the byte-identity of golden-trace
  /// reports.
  bool collect_process_stats = false;

  /// Validates the request scalars (finite non-negative budget and
  /// deadline, a valid prior, a non-empty solver name). The tuning bag is
  /// validated by the solver that consumes it, at solve entry.
  Status Validate() const;

  /// \brief Strict JSON binding of the request, the wire shape of the
  /// serving surface (and the fuzzed one: arbitrary bytes -> Parse ->
  /// FromJson -> Validate -> Solve must never abort).
  ///
  /// `FromJson` starts from a default request and overlays the document:
  /// every key is optional, unknown keys are an error (catches typos
  /// instead of silently solving with defaults), and type mismatches,
  /// non-finite numbers where finite ones are required, and out-of-range
  /// integers all surface as InvalidArgument naming the JSON path.
  /// `ToJsonValue` emits every field (including defaults), except the two
  /// limit fields (`deadline_ms`, `max_work_units`), written only when
  /// set so limit-free dumps keep their historical byte layout, and the
  /// runtime-only `cancel_token`, which has no wire form. The round trip
  /// `FromJson(ToJsonValue(r)) == r` still holds, and the dump is
  /// byte-stable.
  static Result<SolveRequest> FromJson(const Json& doc);
  /// `Parse` + `FromJson` in one step for raw text.
  static Result<SolveRequest> FromJsonText(std::string_view text);
  Json ToJsonValue() const;
  std::string ToJson() const;
};

/// \brief Uniform result + instrumentation contract of every registered
/// solver — the stats block that historically only annealing exposed,
/// now filled by all of them.
struct SolveReport {
  /// Registry name of the solver that produced this report.
  std::string solver;
  /// The selected jury (indices into the planned pool's candidates).
  JspSolution solution;
  /// Wall-clock of the solve itself (excludes request validation and
  /// registry lookup; includes all nested parallel sections).
  double wall_seconds = 0.0;
  /// Full vs. delta-update jury scorings performed by this solve — the
  /// objective is instantiated per solve, so the counters are exact and
  /// never bleed across concurrent requests.
  EvaluationCounters evaluations;
  /// Solver-specific instrumentation flattened to key -> double
  /// (annealing move/acceptance counters, branch-and-bound node counts,
  /// ...). A `std::map`, so iteration — and the JSON below — is sorted.
  std::map<std::string, double> stats;
  /// Snapshot of the process-wide `StatsRegistry` taken after the solve,
  /// filled only when the request set `collect_process_stats` (the
  /// snapshot is process-cumulative, so it is opt-in to keep default
  /// reports byte-identical across replays).
  std::map<std::string, std::uint64_t> process_stats;
  /// True when the solve stopped at a check site before natural
  /// completion (work budget, deadline, or cancellation) and `solution`
  /// is the best-so-far anytime result — still a valid, feasible jury.
  bool terminated_early = false;
  /// Why it stopped: "" (ran to completion), "work-limit", "deadline",
  /// or "cancelled" — the highest-precedence reason across strands.
  std::string termination_reason;
  /// Work units counted across all strands (summed), in the solver's own
  /// units (annealing moves, Gray steps, greedy rounds, B&B nodes).
  std::uint64_t work_units = 0;
  /// True when the request set any limit (deadline, work budget, or
  /// cancel token). Gates the emission of the three fields above in
  /// `ToJson`, so limit-free reports — every golden trace among them —
  /// keep their historical byte layout.
  bool limits_active = false;

  /// Deterministic JSON (sorted keys; see util/json.h) for bench and
  /// service logs:
  /// `{"evaluations":{...},"solution":{...},"solver":...,"stats":{...},
  ///   "wall_seconds":...}` — plus a `"process_stats"` object when the
  /// request opted into the registry snapshot, and the
  /// `"terminated_early"` / `"termination_reason"` / `"work_units"`
  /// triple when the request set any limit.
  std::string ToJson() const;
};

/// \brief Knobs of `PoolPlanContext::SolveMany`.
struct SolveManyOptions {
  /// Worker count for the fan-out (0 resolves via JURYOPT_THREADS,
  /// 1 = serial).
  std::size_t num_threads = 0;
};

/// \brief One in-place worker mutation of `PoolPlanContext::ApplyPoolDelta`
/// — a re-estimated quality and/or re-negotiated cost for an existing
/// candidate. Index-addressed (pool membership never changes: the index
/// space, and with it every cached solution's jury indices, stays stable
/// across epochs).
struct PoolDeltaUpdate {
  /// Candidate index in the planned pool (`[0, num_candidates())`).
  std::size_t index = 0;
  /// The worker's new quality (must satisfy `ValidateWorker`).
  double quality = 0.5;
  /// The worker's new cost (must satisfy `ValidateWorker`).
  double cost = 0.0;
};

struct PoolState;  // one pool epoch's immutable plan; private to solve.cc

/// \brief A long-lived planning context for one candidate pool — the
/// serving-layer shape of the paper's Fig. 1 system: one crowd worker
/// pool answering a *stream* of jury-selection queries with varying
/// budgets and task priors. Built once per pool, it owns everything the
/// per-request path used to rebuild from scratch:
///
///  * the validated candidate table (pool validation runs once, at
///    `Plan`, never per request), the one struct-array copy of the pool
///    every solve on an epoch reads: a request's `JspInstance` borrows it
///    and carries only its own (budget, alpha) scalars;
///  * the columnar `WorkerPoolView` every evaluation session scores from.
///
/// `Solve` runs one request; `SolveMany` fans a batch across the
/// process-wide scheduler, each request bit-identical to its serial
/// solve. The context is safe for concurrent `Solve` calls (epochs are
/// immutable once published). Each solve reads its epoch through the
/// `InstanceLease` it takes, and a retired epoch is freed when its last
/// lease goes.
class PoolPlanContext {
 public:
  /// Validates the pool (every worker's quality/cost ranges) and builds
  /// the plan. InvalidArgument on a bad worker. `options.assume_validated`
  /// skips the per-worker validation pass (the pool must come from a
  /// source that already validated it — `LoadWorkersCsv` does).
  static Result<PoolPlanContext> Plan(std::vector<Worker> candidates,
                                      const PlanOptions& options = {});

  /// Plans directly from a pool snapshot file: maps the columns read-only
  /// and adopts them as the plan's `WorkerPoolView` — no per-worker
  /// validation (the snapshot loader verified every invariant) and no
  /// column recomputation, so a million-worker pool plans in the time it
  /// takes to checksum the mapping. `Worker` structs are materialized
  /// lazily, on the first call site that needs the AoS record
  /// (`candidates()` / `AcquireInstance`). Every registry solver leases
  /// an instance, so the first solve on the epoch pays for them; planning,
  /// `view()` and `sharded_pool()` do not.
  static Result<PoolPlanContext> PlanFromSnapshot(
      const std::string& path, const PlanOptions& options = {});
  /// Same, adopting an already-loaded snapshot (moves it in; the context
  /// keeps it alive for as long as the columns are referenced).
  static Result<PoolPlanContext> PlanFromSnapshot(
      PoolSnapshot snapshot, const PlanOptions& options = {});

  // Movable, not copyable. Defined out of line: the arena type is
  // private to solve.cc.
  PoolPlanContext(PoolPlanContext&&) noexcept;
  PoolPlanContext& operator=(PoolPlanContext&&) noexcept;
  ~PoolPlanContext();
  PoolPlanContext(const PoolPlanContext&) = delete;
  PoolPlanContext& operator=(const PoolPlanContext&) = delete;

  // The accessors below read the current epoch. The references and
  // pointers they return stay valid until the next `ApplyPoolDelta`; a
  // reader that must outlive one holds an `InstanceLease` instead.

  /// The pool's AoS records. For a snapshot plan this materializes the
  /// structs on first use (thread-safe, once); prefer `num_candidates()` /
  /// `view()` when only sizes or columns are needed.
  const std::vector<Worker>& candidates() const;
  /// Pool size without materializing workers (column length).
  std::size_t num_candidates() const;
  /// The pool's columnar snapshot, shared read-only by every solve.
  const WorkerPoolView& view() const;
  /// Where the pool came from: "memory" (in-process workers, CSV included)
  /// or "snapshot" (mapped `PoolSnapshot`).
  const char* pool_source() const;

  /// The sharded summary index over `view()`, built lazily on first use
  /// (thread-safe, once per epoch) and shared read-only by every solve.
  const ShardedWorkerPool* sharded_pool() const;

  /// Solves one request: validates its scalars, resolves the solver by
  /// name (NotFound for unknown names), and runs it against this plan.
  Result<SolveReport> Solve(const SolveRequest& request);

  /// Solves a batch, fanned across the process-wide scheduler
  /// (`options.num_threads` = 0 resolves via JURYOPT_THREADS, 1 = serial),
  /// one attempt per request, claimed one request at a time so a batch
  /// mixing heavy and light solves balances. Requests are independent —
  /// each draws only from its own seeded rng — so report `i` is
  /// bit-identical to `Solve(requests[i])` for any thread count and any
  /// batch order (property-tested). The whole batch solves against the
  /// pool epoch current at the call: a concurrent `ApplyPoolDelta`
  /// re-plans later calls without perturbing this one. On error the whole
  /// batch fails with the lowest-index request's status (an exception
  /// escaping a solve is that request's `kInternal`);
  /// `kResourceExhausted` (an injected fault, a failed task spawn, an
  /// exhausted node budget) is the transient class a caller may resubmit
  /// on.
  Result<std::vector<SolveReport>> SolveMany(
      std::span<const SolveRequest> requests,
      const SolveManyOptions& options = {});

  /// \brief Applies worker churn — re-estimated qualities/costs — as a new
  /// pool epoch. InvalidArgument (and no epoch change) on an out-of-range
  /// index or a worker that fails validation.
  ///
  /// The current epoch's state is never mutated: a new candidate table and
  /// columnar view are built, the sharded summary index (when already
  /// built) is *rebased* — copied shard summaries, then `ApplyDelta` over
  /// exactly the changed indices, so only touched shards pay a rebuild —
  /// and the epoch counter bumps (`serve.epoch_bumps`). In-flight solves
  /// and leases keep the epoch they started on, and the retired epoch is
  /// freed when the last of them goes (`plan.epochs_freed`). The result
  /// cache keeps old-epoch entries keyed by their epoch (new-epoch lookups
  /// miss and re-solve; stale entries age out through eviction) — churn
  /// invalidates only what changed. Concurrent `ApplyPoolDelta` calls
  /// serialize.
  Status ApplyPoolDelta(std::span<const PoolDeltaUpdate> updates);

  /// The pool's current data epoch (0 at plan time, +1 per
  /// `ApplyPoolDelta`).
  std::uint64_t pool_epoch() const;

  /// Enables the epoch-keyed result cache (`serve::ResultCache`) for this
  /// context's solves. Off by default — replay consumers (golden traces)
  /// keep exact historical behavior. Call before serving traffic, not
  /// concurrently with solves. Only deterministic requests participate:
  /// a request with a wall-clock deadline, a cancel token, or
  /// `collect_process_stats` bypasses the cache entirely; deterministic
  /// work-unit caps participate (the cap is part of the key, via the
  /// request's canonical JSON).
  void EnableResultCache(std::size_t max_entries = 1024);
  /// The enabled cache (nullptr when disabled). Thread-safe for stats.
  serve::ResultCache* result_cache() const;

  /// \brief One request's hold on a pool epoch: it shares ownership of the
  /// epoch it was taken from and carries the request's budget and alpha.
  /// Everything read through it — the instance (a span over the epoch's
  /// candidate table, never a copy), the view, the sharded index — is
  /// that one epoch's, however many `ApplyPoolDelta` calls land while it
  /// is held; a retired epoch is freed when its last lease goes.
  class InstanceLease {
   public:
    InstanceLease(InstanceLease&&) noexcept = default;

    JspInstance& instance() { return instance_; }
    const JspInstance& instance() const { return instance_; }
    /// The leased epoch's columnar view.
    const WorkerPoolView& view() const;
    /// The leased epoch's sharded summary index, built lazily on first use
    /// (thread-safe, once per epoch). Solver adapters wire it into
    /// `SolverOptions::sharded_pool` when a request opts into frontier
    /// pre-selection (`frontier_k > 0`).
    const ShardedWorkerPool* sharded_pool() const;

   private:
    friend class PoolPlanContext;
    InstanceLease(std::shared_ptr<PoolState> state, double budget,
                  double alpha);

    std::shared_ptr<PoolState> state_;
    JspInstance instance_;
  };

  /// A lease on the current epoch with the request's scalars stamped on.
  /// O(1): materializes a snapshot plan's workers on the first lease, then
  /// only points at them.
  InstanceLease AcquireInstance(double budget, double alpha);

 private:
  struct Arena;

  PoolPlanContext(std::vector<Worker> candidates, const PlanOptions& options);
  PoolPlanContext(std::unique_ptr<PoolSnapshot> snapshot,
                  const PlanOptions& options);

  /// A new reference on the current epoch.
  std::shared_ptr<PoolState> CurrentState() const;
  /// One request against `state`, the epoch its `Solve` or `SolveMany`
  /// call resolved: cache lookup, validation, lease, solve.
  Result<SolveReport> SolveOn(const std::shared_ptr<PoolState>& state,
                              const SolveRequest& request);

  /// Everything mutable lives behind this pointer — the current epoch and
  /// the optional result cache — so the context keeps its defaulted moves.
  std::unique_ptr<Arena> arena_;
};

/// \brief The common solver interface behind the registry: one virtual
/// `Solve` over (leased epoch, request). Implementations are stateless
/// adapters around the core `Solve*` free functions, called on the
/// lease's instance and view, so a registry solve is bit-identical to the
/// direct call.
class JspSolver {
 public:
  virtual ~JspSolver() = default;
  /// The stable registry name ("annealing", "optjs", ...).
  virtual std::string name() const = 0;
  virtual Result<SolveReport> Solve(PoolPlanContext::InstanceLease& lease,
                                    const SolveRequest& request) const = 0;
};

}  // namespace jury::api

#endif  // JURYOPT_API_SOLVE_H_

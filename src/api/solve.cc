#include "api/solve.h"

#include <algorithm>
#include <exception>
#include <limits>
#include <mutex>
#include <utility>

#include "api/registry.h"
#include "model/prior.h"
#include "model/sharded_pool.h"
#include "serve/result_cache.h"
#include "serve/serve_stats.h"
#include "util/fault_injection.h"
#include "util/json.h"
#include "util/scheduler.h"
#include "util/stats_registry.h"

namespace jury::api {

namespace {

// Serving-layer instruments (see util/stats_registry.h). File-scope
// references: registration runs at static initialization — *before* any
// use, so the instrument set (and with it the `--stats` schema) is
// identical in every process — and the hot path pays one relaxed
// fetch_add per bump.
StatsRegistry::Counter& g_contexts_planned =
    RegisterStatsCounter("plan.contexts_planned");
StatsRegistry::Counter& g_instances_leased =
    RegisterStatsCounter("plan.instances_leased");
StatsRegistry::Counter& g_epochs_freed =
    RegisterStatsCounter("plan.epochs_freed");
StatsRegistry::Counter& g_requests_solved =
    RegisterStatsCounter("api.requests_solved");
StatsRegistry::Counter& g_request_errors =
    RegisterStatsCounter("api.request_errors");
StatsRegistry::Counter& g_solves_deadline_exceeded =
    RegisterStatsCounter("api.solves_deadline_exceeded");
StatsRegistry::Counter& g_solves_cancelled =
    RegisterStatsCounter("api.solves_cancelled");

/// The plan's shard knobs, 0 meaning the `ShardedPoolOptions` default.
ShardedPoolOptions ShardOptions(const PlanOptions& options) {
  ShardedPoolOptions shards;
  if (options.shard_size > 0) shards.shard_size = options.shard_size;
  if (options.slate_k > 0) shards.slate_k = options.slate_k;
  return shards;
}

}  // namespace

Status SolveRequest::Validate() const {
  if (solver.empty()) {
    return Status::InvalidArgument("SolveRequest.solver must name a solver");
  }
  if (!(budget >= 0.0) || !(budget <= std::numeric_limits<double>::max())) {
    return Status::InvalidArgument("budget must be finite and non-negative");
  }
  if (!(deadline_ms >= 0.0) ||
      !(deadline_ms <= std::numeric_limits<double>::max())) {
    return Status::InvalidArgument(
        "deadline_ms must be finite and non-negative");
  }
  return ValidateAlpha(alpha);
}

std::string SolveReport::ToJson() const {
  Json stats_json = Json::Object();
  for (const auto& [key, value] : stats) stats_json.Set(key, value);
  Json document = Json::Object();
  document
      .Set("evaluations",
           Json::Object()
               .Set("full", static_cast<std::uint64_t>(evaluations.full))
               .Set("incremental",
                    static_cast<std::uint64_t>(evaluations.incremental)))
      .Set("solution", solution.ToJsonValue())
      .Set("solver", solver);
  if (!process_stats.empty()) {
    Json process_json = Json::Object();
    for (const auto& [key, value] : process_stats) {
      process_json.Set(key, value);
    }
    document.Set("process_stats", std::move(process_json));
  }
  if (limits_active) {
    // Emitted only for limited solves: limit-free reports (every golden
    // trace) keep their historical byte layout.
    document.Set("terminated_early", terminated_early)
        .Set("termination_reason", termination_reason)
        .Set("work_units", work_units);
  }
  return document.Set("stats", std::move(stats_json))
      .Set("wall_seconds", wall_seconds)
      .Dump();
}

/// \brief One pool epoch's immutable plan: the columnar view and the
/// lazily built sharded summary index. Epoch 0 is built at plan time;
/// `ApplyPoolDelta` builds a new state per churn batch and swaps it in as
/// the context's current epoch. States are shared by the context (while
/// current) and by every lease taken on them, so a retired epoch lives
/// exactly as long as its last lease.
struct PoolState {
  ~PoolState() { g_epochs_freed.Increment(); }

  const ShardedWorkerPool* ShardedPool() {
    std::lock_guard<std::mutex> lock(pool_mutex);
    if (pool == nullptr) {
      pool = std::make_unique<ShardedWorkerPool>(&view, shard_options);
    }
    return pool.get();
  }

  std::uint64_t epoch = 0;
  /// Owner of the mapped columns for a snapshot-born epoch 0 (its view
  /// adopts them). Null for memory plans and every churned state.
  std::unique_ptr<PoolSnapshot> snapshot;
  WorkerPoolView view;
  ShardedPoolOptions shard_options;
  std::mutex pool_mutex;
  std::unique_ptr<ShardedWorkerPool> pool;  // lazy; guarded by pool_mutex
};

struct PoolPlanContext::Arena {
  /// Guards `current`, which `ApplyPoolDelta` swaps.
  std::mutex state_mutex;
  std::shared_ptr<PoolState> current;
  /// Serializes `ApplyPoolDelta` (epoch construction is copy-heavy; two
  /// racing churn batches must see each other's updates).
  std::mutex churn_mutex;
  /// The epoch-keyed result cache; null until `EnableResultCache`.
  std::unique_ptr<serve::ResultCache> cache;
  bool from_snapshot = false;
};

PoolPlanContext::PoolPlanContext(WorkerPoolView view,
                                 const PlanOptions& options)
    : arena_(std::make_unique<Arena>()) {
  auto state = std::make_shared<PoolState>();
  state->view = std::move(view);
  state->shard_options = ShardOptions(options);
  arena_->current = std::move(state);
}

PoolPlanContext::PoolPlanContext(std::unique_ptr<PoolSnapshot> snapshot,
                                 const PlanOptions& options)
    : arena_(std::make_unique<Arena>()) {
  auto state = std::make_shared<PoolState>();
  state->snapshot = std::move(snapshot);
  state->view = WorkerPoolView::FromColumns(
      state->snapshot->quality(), state->snapshot->cost(),
      state->snapshot->norm_quality(), state->snapshot->log_odds());
  state->shard_options = ShardOptions(options);
  arena_->from_snapshot = true;
  arena_->current = std::move(state);
}

// Out of line so `Arena` is complete where unique_ptr needs it. Moves are
// trivially safe: every epoch state is heap-pinned behind the arena
// pointer, which just changes hands.
PoolPlanContext::PoolPlanContext(PoolPlanContext&&) noexcept = default;
PoolPlanContext& PoolPlanContext::operator=(PoolPlanContext&&) noexcept =
    default;
PoolPlanContext::~PoolPlanContext() = default;

Result<PoolPlanContext> PoolPlanContext::Plan(std::span<const Worker> workers,
                                              const PlanOptions& options) {
  if (!options.assume_validated) {
    for (const Worker& worker : workers) {
      JURY_RETURN_NOT_OK(ValidateWorker(worker));
    }
  }
  g_contexts_planned.Increment();
  return PoolPlanContext(WorkerPoolView(workers), options);
}

Result<PoolPlanContext> PoolPlanContext::PlanFromSnapshot(
    const std::string& path, const PlanOptions& options) {
  auto snapshot = std::make_unique<PoolSnapshot>();
  JURY_ASSIGN_OR_RETURN(*snapshot, PoolSnapshot::Load(path));
  g_contexts_planned.Increment();
  return PoolPlanContext(std::move(snapshot), options);
}

Result<PoolPlanContext> PoolPlanContext::PlanFromSnapshot(
    PoolSnapshot snapshot, const PlanOptions& options) {
  g_contexts_planned.Increment();
  return PoolPlanContext(std::make_unique<PoolSnapshot>(std::move(snapshot)),
                         options);
}

std::shared_ptr<PoolState> PoolPlanContext::CurrentState() const {
  std::lock_guard<std::mutex> lock(arena_->state_mutex);
  return arena_->current;
}

// The accessors' temporary reference dies at the end of the call; the
// context's own reference keeps the state alive until the next delta.
std::size_t PoolPlanContext::num_candidates() const {
  return CurrentState()->view.size();
}

const WorkerPoolView& PoolPlanContext::view() const {
  return CurrentState()->view;
}

const char* PoolPlanContext::pool_source() const {
  return arena_->from_snapshot ? "snapshot" : "memory";
}

std::uint64_t PoolPlanContext::pool_epoch() const {
  return CurrentState()->epoch;
}

void PoolPlanContext::EnableResultCache(std::size_t max_entries) {
  serve::ResultCacheOptions options;
  options.max_entries = max_entries;
  arena_->cache = std::make_unique<serve::ResultCache>(options);
}

serve::ResultCache* PoolPlanContext::result_cache() const {
  return arena_->cache.get();
}

const ShardedWorkerPool* PoolPlanContext::sharded_pool() const {
  return CurrentState()->ShardedPool();
}

Status PoolPlanContext::ApplyPoolDelta(
    std::span<const PoolDeltaUpdate> updates) {
  std::lock_guard<std::mutex> churn(arena_->churn_mutex);
  const std::shared_ptr<PoolState> current = CurrentState();
  const std::size_t size = current->view.size();
  std::vector<std::size_t> changed;
  std::vector<Worker> workers;
  changed.reserve(updates.size());
  workers.reserve(updates.size());
  for (std::size_t i = 0; i < updates.size(); ++i) {
    const PoolDeltaUpdate& update = updates[i];
    // The epoch keeps no ids, so errors name the update by its position.
    const std::string which = "update " + std::to_string(i);
    if (update.index >= size) {
      return Status::InvalidArgument(
          which + ": index out of range: " + std::to_string(update.index) +
          " >= " + std::to_string(size));
    }
    Worker worker(which, update.quality, update.cost);
    JURY_RETURN_NOT_OK(ValidateWorker(worker));
    changed.push_back(update.index);
    workers.push_back(std::move(worker));
  }
  auto next = std::make_shared<PoolState>();
  next->epoch = current->epoch + 1;
  next->shard_options = current->shard_options;
  // Unchanged rows keep the current epoch's column bits; updated rows are
  // recomputed with the owning view's expressions, so they match a fresh
  // plan of the updated pool (snapshot-born epochs included).
  next->view = WorkerPoolView(current->view, changed, workers);
  {
    // Rebase the summary index instead of rebuilding it: copy the current
    // epoch's shard summaries onto the new view, then refresh exactly the
    // touched shards. Untouched shards keep their summaries *and* their
    // shard-epoch tags. Skipped when the current epoch never built its
    // pool (the new epoch stays lazy too).
    std::lock_guard<std::mutex> lock(current->pool_mutex);
    if (current->pool != nullptr) {
      next->pool =
          std::make_unique<ShardedWorkerPool>(*current->pool, &next->view);
      next->pool->ApplyDelta(changed);
    }
  }
  serve::ServeEpochBumps().Increment();
  std::lock_guard<std::mutex> lock(arena_->state_mutex);
  arena_->current = std::move(next);
  // `current` is released after `lock`: the retired epoch, unless a lease
  // still reads it, is freed outside the state mutex.
  return Status::OK();
}

PoolPlanContext::InstanceLease::InstanceLease(std::shared_ptr<PoolState> state,
                                              double budget, double alpha)
    : state_(std::move(state)),
      instance_{.pool = &state_->view, .budget = budget, .alpha = alpha} {
  // The fault hook stands in for a lease that cannot be taken, so the
  // fault sweep covers a solve failing before its solver runs.
  JURY_FAULT_POINT("plan.lease_instance");
  g_instances_leased.Increment();
}

const WorkerPoolView& PoolPlanContext::InstanceLease::view() const {
  return state_->view;
}

const ShardedWorkerPool* PoolPlanContext::InstanceLease::sharded_pool() const {
  return state_->ShardedPool();
}

PoolPlanContext::InstanceLease PoolPlanContext::AcquireInstance(double budget,
                                                                double alpha) {
  return InstanceLease(CurrentState(), budget, alpha);
}

Result<SolveReport> PoolPlanContext::Solve(const SolveRequest& request) {
  return SolveOn(CurrentState(), request);
}

Result<SolveReport> PoolPlanContext::SolveOn(
    const std::shared_ptr<PoolState>& state, const SolveRequest& request) {
  // Result cache (opt-in): only requests whose execution is a pure
  // function of (epoch, request) participate — a wall-clock deadline, a
  // live cancel token, or a process-cumulative stats snapshot makes the
  // report non-replayable. The canonical request JSON is the key: it is
  // byte-stable and covers every identity field (budget, alpha, solver,
  // tuning, seed, work-unit cap), so distinct tuples cannot collide.
  serve::ResultCache* const cache = arena_->cache.get();
  const bool cacheable = cache != nullptr && request.deadline_ms == 0.0 &&
                         request.cancel_token == nullptr &&
                         !request.collect_process_stats;
  std::string cache_key;
  if (cacheable) {
    cache_key = request.ToJson();
    SolveReport cached;
    if (cache->Lookup(state->epoch, cache_key, &cached)) {
      serve::ServeCacheHits().Increment();
      g_requests_solved.Increment();
      return cached;
    }
    serve::ServeCacheMisses().Increment();
  }

  Result<SolveReport> result = [&]() -> Result<SolveReport> {
    try {
      JURY_RETURN_NOT_OK(request.Validate());
      const JspSolver* solver = nullptr;
      JURY_ASSIGN_OR_RETURN(solver, FindSolver(request.solver));
      InstanceLease lease(state, request.budget, request.alpha);
      return solver->Solve(lease, request);
    } catch (const FaultInjectedError& error) {
      // The one place injected faults are converted: whatever site fired
      // — on this thread or rethrown from a drained parallel region —
      // surfaces as the same transient, retryable status class a real
      // allocation failure would.
      return Status::ResourceExhausted(error.what());
    }
  }();
  if (!result.ok()) {
    g_request_errors.Increment();
    return result;
  }
  g_requests_solved.Increment();
  const SolveReport& report = result.value();
  if (report.terminated_early) {
    if (report.termination_reason == StopReasonName(StopReason::kDeadline)) {
      g_solves_deadline_exceeded.Increment();
    } else if (report.termination_reason ==
               StopReasonName(StopReason::kCancelled)) {
      g_solves_cancelled.Increment();
    }
  }
  if (cacheable) {
    // Stored with wall_seconds zeroed (the cache's identity contract);
    // the returned cold report keeps its measured wall time.
    cache->Insert(state->epoch, cache_key, result.value());
  }
  if (request.collect_process_stats) {
    // Snapshot after the bump so the export covers this request too.
    result.value().process_stats = StatsRegistry::Global().Snapshot();
  }
  return result;
}

Result<std::vector<SolveReport>> PoolPlanContext::SolveMany(
    std::span<const SolveRequest> requests, const SolveManyOptions& options) {
  const std::size_t count = requests.size();
  if (count == 0) return std::vector<SolveReport>{};
  // Every request solves against the epoch current at the call, so churn
  // mid-batch cannot fail or tear it.
  const std::shared_ptr<PoolState> state = CurrentState();
  std::vector<SolveReport> reports(count);
  std::vector<Status> errors(count);
  // Grain 1: requests are claimed one at a time, so a batch mixing
  // exhaustive solves with greedy ones balances, and a request's own
  // nested regions fan out further on the same scheduler. Each request
  // runs the same code path as a serial `Solve`, reading only its own
  // seeded rng, so the reports are a pure function of the request list.
  const auto solve_shard = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      try {
        Result<SolveReport> result = SolveOn(state, requests[i]);
        if (result.ok()) {
          reports[i] = std::move(result).value();
        } else {
          errors[i] = result.status();
        }
      } catch (const std::exception& error) {
        errors[i] = Status::Internal(error.what());
      }
    }
  };
  try {
    Scheduler::GlobalParallelFor(
        0, count, 1, solve_shard,
        std::min(ResolveThreadCount(options.num_threads), count));
  } catch (const FaultInjectedError& error) {
    // A task spawn failed: the same transient status an in-solve fault
    // maps to.
    return Status::ResourceExhausted(error.what());
  }
  for (const Status& error : errors) {
    if (!error.ok()) return error;
  }
  return reports;
}

}  // namespace jury::api

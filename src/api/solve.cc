#include "api/solve.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <limits>
#include <mutex>
#include <optional>
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
StatsRegistry::Counter& g_requests_solved =
    RegisterStatsCounter("api.requests_solved");
StatsRegistry::Counter& g_request_errors =
    RegisterStatsCounter("api.request_errors");
StatsRegistry::Counter& g_solves_deadline_exceeded =
    RegisterStatsCounter("api.solves_deadline_exceeded");
StatsRegistry::Counter& g_solves_cancelled =
    RegisterStatsCounter("api.solves_cancelled");

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

/// \brief One pool epoch's immutable plan: the candidate table, its
/// columnar view, and the lazily built sharded summary index. Epoch 0 is
/// built at plan time; `ApplyPoolDelta` appends a new state per churn
/// batch. States are heap-pinned (shared_ptr in the arena) and retired
/// states are kept alive for the context's lifetime, so a reference
/// obtained from any epoch — a `view()` held by an in-flight solve, a
/// lease's candidate span — can never dangle.
struct PoolState {
  std::uint64_t epoch = 0;
  /// Owner of the mapped columns for a snapshot-born epoch 0 (its view
  /// adopts them). Null for memory plans and every churned state.
  std::unique_ptr<PoolSnapshot> snapshot;
  std::vector<Worker> candidates;
  WorkerPoolView view;
  /// Snapshot states materialize `candidates` lazily, once.
  std::once_flag workers_once;
  std::mutex pool_mutex;
  std::unique_ptr<ShardedWorkerPool> pool;  // lazy; guarded by pool_mutex
};

struct PoolPlanContext::Arena {
  /// Guards `states`; `states.back()` is the current epoch. Push-only.
  std::mutex state_mutex;
  std::vector<std::shared_ptr<PoolState>> states;
  /// Serializes `ApplyPoolDelta` (epoch construction is copy-heavy; two
  /// racing churn batches must see each other's updates).
  std::mutex churn_mutex;
  /// The epoch-keyed result cache; null until `EnableResultCache`.
  std::unique_ptr<serve::ResultCache> cache;
  bool from_snapshot = false;
};

namespace {

/// Epoch pins: the innermost entry for a context names the `PoolState`
/// every plan accessor (`view()`, `AcquireInstance`, `sharded_pool`, ...)
/// on this thread must read, so one solve — whose registry adapter calls
/// those accessors one by one — observes a single consistent epoch even
/// while `ApplyPoolDelta` publishes a newer one. `SubmitMany` worker
/// tasks pin their batch's leased epoch; `Solve` re-pins whatever it
/// resolved, which also covers nested scheduler threads that join a
/// solve's inner parallel regions through its bound view/instance (those
/// never call the accessors themselves).
thread_local std::vector<std::pair<const PoolPlanContext*, PoolState*>>
    t_state_pins;

class ScopedStatePin {
 public:
  ScopedStatePin(const PoolPlanContext* context, PoolState* state) {
    t_state_pins.emplace_back(context, state);
  }
  ~ScopedStatePin() { t_state_pins.pop_back(); }
  ScopedStatePin(const ScopedStatePin&) = delete;
  ScopedStatePin& operator=(const ScopedStatePin&) = delete;
};

}  // namespace

PoolPlanContext::PoolPlanContext(std::vector<Worker> candidates,
                                 const PlanOptions& options)
    : plan_options_(options), arena_(std::make_unique<Arena>()) {
  auto state = std::make_shared<PoolState>();
  state->candidates = std::move(candidates);
  state->view = WorkerPoolView(state->candidates);
  arena_->states.push_back(std::move(state));
}

PoolPlanContext::PoolPlanContext(std::unique_ptr<PoolSnapshot> snapshot,
                                 const PlanOptions& options)
    : plan_options_(options), arena_(std::make_unique<Arena>()) {
  auto state = std::make_shared<PoolState>();
  state->snapshot = std::move(snapshot);
  state->view = WorkerPoolView::FromColumns(
      state->snapshot->quality(), state->snapshot->cost(),
      state->snapshot->norm_quality(), state->snapshot->log_odds());
  arena_->from_snapshot = true;
  arena_->states.push_back(std::move(state));
}

// Out of line so `Arena` is complete where unique_ptr needs it. Moves are
// trivially safe: every epoch state is heap-pinned behind the arena
// pointer, which just changes hands.
PoolPlanContext::PoolPlanContext(PoolPlanContext&&) noexcept = default;
PoolPlanContext& PoolPlanContext::operator=(PoolPlanContext&&) noexcept =
    default;
PoolPlanContext::~PoolPlanContext() = default;

Result<PoolPlanContext> PoolPlanContext::Plan(std::vector<Worker> candidates,
                                              const PlanOptions& options) {
  if (!options.assume_validated) {
    for (const Worker& worker : candidates) {
      JURY_RETURN_NOT_OK(ValidateWorker(worker));
    }
  }
  g_contexts_planned.Increment();
  return PoolPlanContext(std::move(candidates), options);
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

PoolState* PoolPlanContext::CurrentState() const {
  for (auto it = t_state_pins.rbegin(); it != t_state_pins.rend(); ++it) {
    if (it->first == this) return it->second;
  }
  std::lock_guard<std::mutex> lock(arena_->state_mutex);
  return arena_->states.back().get();
}

const std::vector<Worker>& PoolPlanContext::candidates() const {
  PoolState* const state = CurrentState();
  EnsureWorkers(state);
  return state->candidates;
}

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

void PoolPlanContext::EnsureWorkers(PoolState* state) const {
  std::call_once(state->workers_once, [state] {
    if (state->snapshot == nullptr) return;  // workers carried already
    state->candidates = state->snapshot->MaterializeWorkers();
  });
}

const ShardedWorkerPool* PoolPlanContext::sharded_pool() const {
  PoolState* const state = CurrentState();
  std::lock_guard<std::mutex> lock(state->pool_mutex);
  if (state->pool == nullptr) {
    ShardedPoolOptions options;
    if (plan_options_.shard_size > 0) {
      options.shard_size = plan_options_.shard_size;
    }
    if (plan_options_.slate_k > 0) options.slate_k = plan_options_.slate_k;
    state->pool = std::make_unique<ShardedWorkerPool>(&state->view, options);
  }
  return state->pool.get();
}

Status PoolPlanContext::ApplyPoolDelta(
    std::span<const PoolDeltaUpdate> updates) {
  std::lock_guard<std::mutex> churn(arena_->churn_mutex);
  PoolState* const current = [&] {
    std::lock_guard<std::mutex> lock(arena_->state_mutex);
    return arena_->states.back().get();
  }();
  // Churned states carry materialized workers (the new candidate table is
  // a copy), so snapshot plans materialize at their first churn.
  EnsureWorkers(current);

  auto next = std::make_shared<PoolState>();
  next->epoch = current->epoch + 1;
  next->candidates = current->candidates;
  std::vector<std::size_t> changed;
  changed.reserve(updates.size());
  for (const PoolDeltaUpdate& update : updates) {
    if (update.index >= next->candidates.size()) {
      return Status::InvalidArgument(
          "PoolDeltaUpdate.index out of range: " +
          std::to_string(update.index) + " >= " +
          std::to_string(next->candidates.size()));
    }
    Worker& worker = next->candidates[update.index];
    worker.quality = update.quality;
    worker.cost = update.cost;
    JURY_RETURN_NOT_OK(ValidateWorker(worker));
    changed.push_back(update.index);
  }
  // The owning view recomputes the derived columns with the session
  // backends' own expressions, so unchanged workers' columns are
  // bit-identical to the previous epoch's (snapshot-born included).
  next->view = WorkerPoolView(next->candidates);
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
  arena_->states.push_back(std::move(next));
  return Status::OK();
}

PoolPlanContext::InstanceLease PoolPlanContext::AcquireInstance(double budget,
                                                                double alpha) {
  // The fault hook stands in for a lease failing to materialize a
  // snapshot plan's workers.
  JURY_FAULT_POINT("plan.lease_instance");
  PoolState* const state = CurrentState();
  EnsureWorkers(state);  // snapshot plans materialize structs on first lease
  g_instances_leased.Increment();
  return InstanceLease(JspInstance{
      .candidates = state->candidates, .budget = budget, .alpha = alpha});
}

Result<SolveReport> PoolPlanContext::Solve(const SolveRequest& request) {
  // Pin the epoch for the whole solve: the registry adapter reads
  // `view()`, `AcquireInstance`, and `sharded_pool()` as separate calls,
  // and a concurrent `ApplyPoolDelta` between them must not tear the
  // request across two epochs. (Re-pinning a batch-pinned state is a
  // harmless duplicate.)
  PoolState* const state = CurrentState();
  ScopedStatePin pin(this, state);

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
      return solver->Solve(*this, request);
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

/// \brief Shared state of one `SubmitMany` call: the copied requests, the
/// per-request result slots, and the claim counter the worker tasks pull
/// from.
/// Kept alive by the futures (shared_ptr); worker tasks hold only raw
/// pointers, which is safe because `group` — declared last, so destroyed
/// first — waits out every task before any other member dies.
struct SubmitBatch {
  PoolPlanContext* context = nullptr;
  /// The epoch leased at submission; every request of the batch solves
  /// against it, so churn mid-batch cannot fail or tear in-flight work.
  PoolState* state = nullptr;
  std::vector<SolveRequest> requests;
  std::function<void(std::size_t)> on_complete;
  std::atomic<std::size_t> next{0};
  std::mutex mutex;
  std::condition_variable cv;
  std::vector<std::optional<Result<SolveReport>>> results;  // guarded by mutex
  /// LAST member: its destructor drains every outstanding worker task
  /// (which reads the fields above through raw `this`) before they die.
  std::optional<TaskGroup> group;

  /// Solves request `i` once; every failure is its `Status`.
  Result<SolveReport> SolveOne(std::size_t i) {
    try {
      return context->Solve(requests[i]);
    } catch (const std::exception& error) {
      // A task that dies without publishing would hang its future; fold
      // any escaped exception into the result instead.
      return Status::Internal(error.what());
    }
  }

  void Publish(std::size_t i, Result<SolveReport> result) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      results[i].emplace(std::move(result));
    }
    cv.notify_all();
    if (on_complete) on_complete(i);
  }
};

SolveFuture::SolveFuture(std::shared_ptr<SubmitBatch> batch, std::size_t index)
    : batch_(std::move(batch)), index_(index) {}
SolveFuture::SolveFuture(SolveFuture&&) noexcept = default;
SolveFuture& SolveFuture::operator=(SolveFuture&&) noexcept = default;
SolveFuture::~SolveFuture() = default;

bool SolveFuture::Ready() const {
  std::lock_guard<std::mutex> lock(batch_->mutex);
  return batch_->results[index_].has_value();
}

void SolveFuture::Wait() const {
  std::unique_lock<std::mutex> lock(batch_->mutex);
  batch_->cv.wait(lock,
                  [&] { return batch_->results[index_].has_value(); });
}

Result<SolveReport> SolveFuture::Take() {
  std::unique_lock<std::mutex> lock(batch_->mutex);
  batch_->cv.wait(lock,
                  [&] { return batch_->results[index_].has_value(); });
  return std::move(*batch_->results[index_]);
}

std::vector<SolveFuture> PoolPlanContext::SubmitMany(
    std::span<const SolveRequest> requests, const SubmitOptions& options) {
  const std::size_t count = requests.size();
  auto batch = std::make_shared<SubmitBatch>();
  batch->context = this;
  batch->state = CurrentState();
  batch->requests.assign(requests.begin(), requests.end());
  batch->on_complete = options.on_complete;
  batch->results.resize(count);
  std::vector<SolveFuture> futures;
  futures.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    futures.push_back(SolveFuture(batch, i));
  }
  if (count == 0) return futures;

  const std::size_t threads =
      std::min(ResolveThreadCount(options.num_threads), count);
  SubmitBatch* const raw = batch.get();
  if (threads <= 1 || Scheduler::Global()->num_threads() == 1) {
    // Serial: solve inline at submission (the futures return ready).
    // Mirrors `GlobalParallelFor`'s structural invariant — a serial
    // caller never touches, or lazily spawns, the global scheduler. A
    // scheduler with no worker threads (JURYOPT_THREADS=1) would leave
    // the claim tasks below queued with nothing to run them, so a
    // parallel request solves inline there too.
    ScopedStatePin pin(this, raw->state);
    for (std::size_t i = 0; i < count; ++i) {
      raw->Publish(i, raw->SolveOne(i));
    }
    return futures;
  }

  // Claim-loop fan-out: min(threads, count) worker tasks pull request
  // indices from one shared counter, so heterogeneous batches balance
  // (a batch can mix exhaustive solves with greedy ones) and a request's
  // own nested regions fan out further on the same scheduler. Every
  // request runs the same code path as a serial `Solve`, reading only
  // its own seeded rng, so the futures are a pure function of the
  // request list — for any thread count and completion order.
  batch->group.emplace();
  std::size_t spawned = 0;
  try {
    for (std::size_t t = 0; t < threads; ++t) {
      batch->group->Run([raw] {
        ScopedStatePin pin(raw->context, raw->state);
        for (;;) {
          const std::size_t i =
              raw->next.fetch_add(1, std::memory_order_relaxed);
          if (i >= raw->requests.size()) break;
          raw->Publish(i, raw->SolveOne(i));
        }
      });
      ++spawned;
    }
  } catch (const FaultInjectedError& error) {
    if (spawned == 0) {
      // No worker exists to drain the queue: resolve every future with
      // the same transient status an in-solve fault maps to.
      for (;;) {
        const std::size_t i = raw->next.fetch_add(1, std::memory_order_relaxed);
        if (i >= count) break;
        raw->Publish(i, Status::ResourceExhausted(error.what()));
      }
    }
    // spawned > 0: degraded parallelism — the live workers drain the
    // whole queue, so the batch still completes.
  }
  return futures;
}

Result<std::vector<SolveReport>> PoolPlanContext::SolveMany(
    std::span<const SolveRequest> requests, const SolveManyOptions& options) {
  SubmitOptions submit;
  submit.num_threads = options.num_threads;
  std::vector<SolveFuture> futures = SubmitMany(requests, submit);
  // Take in index order, draining every future before returning, so the
  // batch error contract holds: the lowest-index failure wins, and no
  // task is abandoned mid-solve.
  std::optional<Status> first_error;
  std::vector<SolveReport> reports;
  reports.reserve(futures.size());
  for (SolveFuture& future : futures) {
    Result<SolveReport> result = future.Take();
    if (!result.ok()) {
      if (!first_error.has_value()) first_error = result.status();
      continue;
    }
    if (!first_error.has_value()) {
      reports.push_back(std::move(result).value());
    }
  }
  if (first_error.has_value()) return *first_error;
  return reports;
}

}  // namespace jury::api

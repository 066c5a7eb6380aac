#include "util/scheduler.h"

#include <algorithm>
#include <chrono>

#include "util/env.h"
#include "util/fault_injection.h"
#include "util/stats_registry.h"

namespace jury {
namespace {

/// Innermost task-execution frames of the calling thread, linked so a
/// thread helping several schedulers (a test-local one from inside the
/// global one) classifies nested regions against the right instance.
struct TaskFrame {
  Scheduler* scheduler;
  TaskFrame* prev;
};
thread_local TaskFrame* tls_task_frame = nullptr;

/// The scheduler whose worker the calling thread is, if any.
thread_local Scheduler* tls_worker_of = nullptr;

std::size_t GlobalSchedulerSize() {
  // JURYOPT_THREADS at process start is a *budget*: a user who exports 2
  // wants at most 2 busy threads in the whole process (and 1 means no
  // workers at all), so it sizes the pool exactly.
  const std::int64_t env = GetEnvInt("JURYOPT_THREADS", 0);
  if (env > 0) return static_cast<std::size_t>(env);
  // Otherwise: hardware concurrency with a floor of 8 — tests and
  // benches request multi-threaded dispatch via JURYOPT_THREADS set
  // *after* the scheduler exists, and idle workers cost only a sleeping
  // thread apiece, while an under-sized pool would silently serialize
  // those runs.
  const unsigned hw = std::thread::hardware_concurrency();
  const std::size_t size = hw > 0 ? static_cast<std::size_t>(hw) : 1;
  return std::max<std::size_t>(size, 8);
}

}  // namespace

std::size_t ResolveThreadCount(std::size_t requested) {
  if (requested > 0) return requested;
  const std::int64_t env = GetEnvInt("JURYOPT_THREADS", 0);
  if (env > 0) return static_cast<std::size_t>(env);
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<std::size_t>(hw) : 1;
}

// ----------------------------------------------------------------- TaskGroup

TaskGroup::TaskGroup(Scheduler* scheduler)
    : scheduler_(scheduler != nullptr ? scheduler : Scheduler::Global()) {}

TaskGroup::~TaskGroup() {
  try {
    Wait();
  } catch (...) {
    // Destructor-path errors are dropped; call Wait() to observe them.
  }
}

void TaskGroup::Run(std::function<void()> fn) {
  // Spawning allocates; the fault hook stands in for that allocation
  // failing. It throws on the *caller's* thread, before the count is
  // bumped, so the group stays consistent and the group's destructor
  // drains any tasks already in flight.
  JURY_FAULT_POINT("scheduler.task_spawn");
  Scheduler::Task* task = new Scheduler::Task;
  task->fn = std::move(fn);
  task->group = this;
  pending_.fetch_add(1, std::memory_order_acq_rel);
  scheduler_->Submit(task);
}

void TaskGroup::Wait() {
  while (pending_.load(std::memory_order_acquire) != 0) {
    if (Scheduler::Task* task = scheduler_->TryAcquire()) {
      scheduler_->RunTask(task);
      continue;
    }
    // The queue is empty: every remaining task of this group is in
    // flight on another thread. Block until the group advances; the
    // timeout re-arms the scan so a task queued between the failed
    // acquire and the wait cannot strand us.
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait_for(lock, std::chrono::microseconds(200), [&] {
      return pending_.load(std::memory_order_acquire) == 0;
    });
  }
  std::exception_ptr error;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    std::swap(error, error_);
  }
  if (error) std::rethrow_exception(error);
}

void TaskGroup::OnTaskFinished(std::exception_ptr error) {
  // The whole completion runs under the mutex: the waiter in `Wait()` may
  // observe pending == 0 the instant it is stored and destroy the group —
  // but its final error-swap locks this same mutex, so it cannot finish
  // until this critical section (the group's last touch) has released.
  std::lock_guard<std::mutex> lock(mutex_);
  if (error && !error_) error_ = error;
  if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    cv_.notify_all();
  }
}

// ------------------------------------------------------------------ Scheduler

namespace {
// Published by Global() once its pool exists; read by the stats gauges,
// which must report zeros — not spawn worker threads — before then.
std::atomic<Scheduler*> g_global_scheduler{nullptr};
}  // namespace

Scheduler* Scheduler::Global() {
  static Scheduler global(GlobalSchedulerSize());
  g_global_scheduler.store(&global, std::memory_order_release);
  return &global;
}

SchedulerCounters GlobalSchedulerCountersIfStarted() {
  const Scheduler* global = g_global_scheduler.load(std::memory_order_acquire);
  if (global == nullptr) return SchedulerCounters{};
  return global->counters();
}

namespace {
// Gauges, not counters: the scheduler already keeps its own relaxed
// atomics, so the registry reads them on demand instead of double
// counting on the submit and run paths.
const bool g_scheduler_gauges_registered = [] {
  StatsRegistry& registry = StatsRegistry::Global();
  registry.RegisterGauge("scheduler.tasks_spawned", [] {
    return GlobalSchedulerCountersIfStarted().tasks_spawned;
  });
  registry.RegisterGauge("scheduler.tasks_stolen", [] {
    return GlobalSchedulerCountersIfStarted().tasks_stolen;
  });
  registry.RegisterGauge("scheduler.tasks_injected", [] {
    return GlobalSchedulerCountersIfStarted().tasks_injected;
  });
  registry.RegisterGauge("scheduler.regions", [] {
    return GlobalSchedulerCountersIfStarted().regions;
  });
  registry.RegisterGauge("scheduler.nested_regions", [] {
    return GlobalSchedulerCountersIfStarted().nested_regions;
  });
  registry.RegisterGauge("scheduler.inline_regions", [] {
    return GlobalSchedulerCountersIfStarted().inline_regions;
  });
  return true;
}();
}  // namespace

Scheduler::Scheduler(std::size_t num_threads) {
  const std::size_t n = num_threads > 0 ? num_threads : 1;
  workers_.reserve(n - 1);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

Scheduler::~Scheduler() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  // A non-worker thread still running this scheduler's tasks may queue
  // more after the last worker left; finish those inline so a
  // shutdown-while-busy destruction never strands a TaskGroup.
  while (Task* task = TryAcquire()) RunTask(task);
}

bool Scheduler::InTask() const {
  for (const TaskFrame* frame = tls_task_frame; frame != nullptr;
       frame = frame->prev) {
    if (frame->scheduler == this) return true;
  }
  return false;
}

void Scheduler::Submit(Task* task) {
  tasks_spawned_.fetch_add(1, std::memory_order_relaxed);
  if (tls_worker_of == this) {
    task->spawner = std::this_thread::get_id();
  } else {
    tasks_injected_.fetch_add(1, std::memory_order_relaxed);
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(task);
  }
  cv_.notify_one();
}

Scheduler::Task* Scheduler::TryAcquire() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (queue_.empty()) return nullptr;
  Task* task = queue_.front();
  queue_.pop_front();
  return task;
}

void Scheduler::RunTask(Task* task) {
  if (task->spawner != std::thread::id() &&
      task->spawner != std::this_thread::get_id()) {
    tasks_stolen_.fetch_add(1, std::memory_order_relaxed);
  }
  TaskFrame frame{this, tls_task_frame};
  tls_task_frame = &frame;
  std::exception_ptr error;
  try {
    task->fn();
  } catch (...) {
    error = std::current_exception();
  }
  tls_task_frame = frame.prev;
  TaskGroup* group = task->group;
  delete task;
  // Last: once the group observes the decrement it may be destroyed.
  group->OnTaskFinished(error);
}

void Scheduler::WorkerLoop() {
  tls_worker_of = this;
  for (;;) {
    if (Task* task = TryAcquire()) {
      RunTask(task);
      continue;
    }
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return shutdown_ || !queue_.empty(); });
    if (queue_.empty()) return;  // shut down, with nothing left to drain
  }
}

void Scheduler::ParallelFor(
    std::size_t begin, std::size_t end, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& body,
    std::size_t max_parallelism) {
  if (begin >= end) return;
  if (grain == 0) grain = 1;
  const std::size_t count = end - begin;
  const std::size_t shards = (count + grain - 1) / grain;
  std::size_t parallelism = num_threads();
  if (max_parallelism > 0) parallelism = std::min(parallelism, max_parallelism);
  parallelism = std::min(parallelism, shards);
  if (parallelism <= 1) {
    // Inline fallback: identical shard boundaries, caller runs them all.
    inline_regions_.fetch_add(1, std::memory_order_relaxed);
    for (std::size_t shard = 0; shard < shards; ++shard) {
      const std::size_t shard_begin = begin + shard * grain;
      body(shard_begin, std::min(end, shard_begin + grain));
    }
    return;
  }

  regions_.fetch_add(1, std::memory_order_relaxed);
  if (InTask()) nested_regions_.fetch_add(1, std::memory_order_relaxed);

  // The region is claim-based: `parallelism` participants (the caller plus
  // parallelism - 1 queued tasks) pull shard indices from one atomic
  // counter. Shard boundaries stay a pure function of (begin, end, grain);
  // the counter only decides *when* a shard runs and on which thread.
  struct Region {
    std::atomic<std::size_t> next{0};
    std::atomic<bool> cancelled{false};
  } region;
  const auto run_shards = [&] {
    for (;;) {
      if (region.cancelled.load(std::memory_order_relaxed)) return;
      const std::size_t shard =
          region.next.fetch_add(1, std::memory_order_relaxed);
      if (shard >= shards) return;
      const std::size_t shard_begin = begin + shard * grain;
      try {
        body(shard_begin, std::min(end, shard_begin + grain));
      } catch (...) {
        region.cancelled.store(true, std::memory_order_relaxed);
        throw;
      }
    }
  };

  TaskGroup group(this);
  for (std::size_t i = 0; i + 1 < parallelism; ++i) group.Run(run_shards);
  std::exception_ptr caller_error;
  try {
    run_shards();
  } catch (...) {
    caller_error = std::current_exception();
  }
  group.Wait();  // rethrows the first task exception
  if (caller_error) std::rethrow_exception(caller_error);
}

void Scheduler::GlobalParallelFor(
    std::size_t begin, std::size_t end, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& body,
    std::size_t max_parallelism) {
  if (max_parallelism == 1) {
    // Same shard boundaries as the scheduler's inline path, run without
    // ever instantiating Global().
    if (begin >= end) return;
    if (grain == 0) grain = 1;
    const std::size_t shards = (end - begin + grain - 1) / grain;
    for (std::size_t shard = 0; shard < shards; ++shard) {
      const std::size_t shard_begin = begin + shard * grain;
      body(shard_begin, std::min(end, shard_begin + grain));
    }
    return;
  }
  Global()->ParallelFor(begin, end, grain, body, max_parallelism);
}

SchedulerCounters Scheduler::counters() const {
  SchedulerCounters snapshot;
  snapshot.tasks_spawned = tasks_spawned_.load(std::memory_order_relaxed);
  snapshot.tasks_stolen = tasks_stolen_.load(std::memory_order_relaxed);
  snapshot.tasks_injected = tasks_injected_.load(std::memory_order_relaxed);
  snapshot.regions = regions_.load(std::memory_order_relaxed);
  snapshot.nested_regions = nested_regions_.load(std::memory_order_relaxed);
  snapshot.inline_regions = inline_regions_.load(std::memory_order_relaxed);
  return snapshot;
}

void Scheduler::ResetCounters() {
  tasks_spawned_.store(0, std::memory_order_relaxed);
  tasks_stolen_.store(0, std::memory_order_relaxed);
  tasks_injected_.store(0, std::memory_order_relaxed);
  regions_.store(0, std::memory_order_relaxed);
  nested_regions_.store(0, std::memory_order_relaxed);
  inline_regions_.store(0, std::memory_order_relaxed);
}

}  // namespace jury

#ifndef JURYOPT_UTIL_SCHEDULER_H_
#define JURYOPT_UTIL_SCHEDULER_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace jury {

/// Resolves a requested thread count to the number of threads a solver
/// should actually use: `requested` when positive, otherwise the
/// `JURYOPT_THREADS` environment variable when set to a positive integer,
/// otherwise `std::thread::hardware_concurrency()` (at least 1).
std::size_t ResolveThreadCount(std::size_t requested);

class Scheduler;

/// \brief A set of tasks spawned onto a scheduler, waited on as a unit.
///
/// Groups nest: a task may create its own `TaskGroup`, spawn subtasks, and
/// `Wait()` on them — this is how a budget-table row fans its inner OPTJS
/// solve across idle workers. A waiting thread never blocks while queued
/// tasks exist: `Wait()` keeps running the oldest queued task, of any
/// group, so nesting cannot deadlock and cores stay busy.
///
/// The first exception thrown by a task is captured and rethrown from
/// `Wait()` (after every task of the group has finished); later exceptions
/// are dropped. The destructor waits for outstanding tasks but swallows
/// any captured exception — call `Wait()` explicitly to observe errors.
class TaskGroup {
 public:
  /// Groups on the process-wide scheduler by default.
  explicit TaskGroup(Scheduler* scheduler = nullptr);
  ~TaskGroup();

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Spawns `fn` as a task of this group, at the back of the scheduler's
  /// queue.
  void Run(std::function<void()> fn);

  /// Blocks until every task of the group has finished, executing queued
  /// tasks (not necessarily this group's) while it waits. Rethrows the
  /// group's first captured exception.
  void Wait();

 private:
  friend class Scheduler;
  void OnTaskFinished(std::exception_ptr error);

  Scheduler* scheduler_;
  std::atomic<std::size_t> pending_{0};
  std::mutex mutex_;
  std::condition_variable cv_;
  std::exception_ptr error_;  // guarded by mutex_
};

/// \brief Snapshot of the scheduler's activity counters (relaxed atomics;
/// exact once all regions have quiesced). The bench harness records these
/// around a workload to show — rather than assert — that nested solves
/// actually fanned out across workers.
struct SchedulerCounters {
  /// Tasks submitted to the queue.
  std::uint64_t tasks_spawned = 0;
  /// Tasks spawned by a worker and run by another thread.
  std::uint64_t tasks_stolen = 0;
  /// Tasks submitted from a thread that is not one of the workers.
  std::uint64_t tasks_injected = 0;
  /// Parallel regions dispatched across workers.
  std::uint64_t regions = 0;
  /// Regions started from inside a task — nested parallelism (e.g. a
  /// budget-table row fanning out its inner solver).
  std::uint64_t nested_regions = 0;
  /// Regions that ran inline on the caller (serial cap or single shard).
  std::uint64_t inline_regions = 0;
};

/// \brief Process-wide task scheduler.
///
/// One fixed set of worker threads serves every parallel region in the
/// process. Tasks wait in one FIFO queue under one mutex; a worker, or a
/// thread waiting on a `TaskGroup`, takes the oldest. The work it carries
/// is coarse — restart chains, candidate-scan shards, subset shards, the
/// OPTJS fallbacks — and a region spawns at most parallelism − 1 tasks.
///
/// Determinism contract: `ParallelFor` splits [begin, end) into shards
/// whose boundaries depend only on (begin, end, grain) — never on the
/// worker count, the queue order, or which thread ran a shard. Bodies
/// write per-element or per-shard outputs; reductions happen serially in
/// index order after the region. Threads decide *when* a shard runs, never
/// *what* it computes.
///
/// Regions nest: a `ParallelFor` body may itself call `ParallelFor` (or
/// spawn a `TaskGroup`), and any idle thread may run its subtasks. This is
/// what lets a budget-table row fan out its inner OPTJS solve instead of
/// pinning it to one thread.
class Scheduler {
 public:
  /// The process-wide instance. Sized once, at first use: exactly
  /// JURYOPT_THREADS when that is exported at process start (the env var
  /// is a whole-process CPU budget — 1 means no workers ever spawn),
  /// otherwise max(hardware concurrency, 8) — generously, because idle
  /// workers just sleep, while an under-sized pool would silently
  /// serialize the multi-threaded dispatch that tests request by setting
  /// JURYOPT_THREADS after startup. Serial call sites (resolved
  /// parallelism <= 1) avoid touching this entirely, so a num_threads=1
  /// embedder never spawns a pool.
  static Scheduler* Global();

  /// A private instance for tests. `num_threads` counts the caller, so a
  /// scheduler of size 1 has no workers and runs everything inline.
  explicit Scheduler(std::size_t num_threads);
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Workers + the participating caller.
  std::size_t num_threads() const { return workers_.size() + 1; }

  /// Splits [begin, end) into contiguous shards of at most `grain`
  /// elements and runs `body(shard_begin, shard_end)` once per shard,
  /// claiming shards dynamically across at most `max_parallelism` threads
  /// (0 = no cap beyond the scheduler's size). Returns after every shard
  /// completed; rethrows the first exception a shard threw (remaining
  /// shards are abandoned once an exception is seen, so a throwing body
  /// forfeits the coverage guarantee). Shard boundaries depend only on
  /// (begin, end, grain). May be called from inside another region's body
  /// (the region nests; idle threads run its shards).
  void ParallelFor(std::size_t begin, std::size_t end, std::size_t grain,
                   const std::function<void(std::size_t, std::size_t)>& body,
                   std::size_t max_parallelism = 0);

  /// `Global()->ParallelFor`, except that a serial cap (`max_parallelism
  /// == 1`) runs the identical shard loop inline *without touching — or
  /// lazily spawning — the global scheduler*. Call sites use this instead
  /// of hand-rolling the guard, so the invariant "a num_threads=1 caller
  /// never constructs the worker pool" is structural.
  static void GlobalParallelFor(
      std::size_t begin, std::size_t end, std::size_t grain,
      const std::function<void(std::size_t, std::size_t)>& body,
      std::size_t max_parallelism);

  SchedulerCounters counters() const;
  void ResetCounters();

  /// True when the calling thread is currently executing a task of this
  /// scheduler (used to classify nested regions; exposed for tests).
  bool InTask() const;

 private:
  friend class TaskGroup;

  struct Task {
    std::function<void()> fn;
    TaskGroup* group = nullptr;
    /// The spawning worker's thread; empty when a non-worker spawned it.
    std::thread::id spawner;
  };

  void WorkerLoop();
  void Submit(Task* task);
  Task* TryAcquire();
  void RunTask(Task* task);

  std::mutex mutex_;
  std::condition_variable cv_;  // a task was queued, or shutdown_ was set
  std::deque<Task*> queue_;     // guarded by mutex_; oldest at the front
  bool shutdown_ = false;       // guarded by mutex_

  std::atomic<std::uint64_t> tasks_spawned_{0};
  std::atomic<std::uint64_t> tasks_stolen_{0};
  std::atomic<std::uint64_t> tasks_injected_{0};
  std::atomic<std::uint64_t> regions_{0};
  std::atomic<std::uint64_t> nested_regions_{0};
  std::atomic<std::uint64_t> inline_regions_{0};

  std::vector<std::thread> workers_;
};

/// \brief Counters of the process-wide scheduler *without* forcing its
/// construction: all-zero until the first `Scheduler::Global()` call has
/// actually spawned the pool. This is what the stats-registry gauges
/// read, so a `--stats` export (or a report snapshot) can never be the
/// thing that creates the worker threads.
SchedulerCounters GlobalSchedulerCountersIfStarted();

}  // namespace jury

#endif  // JURYOPT_UTIL_SCHEDULER_H_

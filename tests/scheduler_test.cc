#include "util/scheduler.h"

#include <atomic>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gtest/gtest.h"

namespace jury {
namespace {

TEST(SchedulerTest, ParallelForCoversEveryIndexExactlyOnce) {
  for (std::size_t threads : {1u, 2u, 5u}) {
    Scheduler scheduler(threads);
    for (std::size_t n : {0u, 1u, 7u, 64u, 1000u}) {
      for (std::size_t grain : {1u, 3u, 64u, 2000u}) {
        std::vector<std::atomic<int>> hits(n);
        for (auto& h : hits) h.store(0);
        scheduler.ParallelFor(0, n, grain,
                              [&](std::size_t begin, std::size_t end) {
                                ASSERT_LE(begin, end);
                                ASSERT_LE(end, n);
                                for (std::size_t i = begin; i < end; ++i) {
                                  hits[i].fetch_add(1);
                                }
                              });
        for (std::size_t i = 0; i < n; ++i) {
          EXPECT_EQ(hits[i].load(), 1)
              << "threads=" << threads << " n=" << n << " grain=" << grain
              << " i=" << i;
        }
      }
    }
  }
}

TEST(SchedulerTest, ShardBoundariesAreAPureFunctionOfGrain) {
  // The determinism contract: every callback starts at begin + k*grain,
  // whatever the scheduler size or parallelism cap.
  for (std::size_t threads : {1u, 4u}) {
    Scheduler scheduler(threads);
    std::mutex mu;
    std::set<std::pair<std::size_t, std::size_t>> shards;
    scheduler.ParallelFor(10, 55, 10,
                          [&](std::size_t begin, std::size_t end) {
                            std::lock_guard<std::mutex> lock(mu);
                            shards.emplace(begin, end);
                          });
    const std::set<std::pair<std::size_t, std::size_t>> expected{
        {10, 20}, {20, 30}, {30, 40}, {40, 50}, {50, 55}};
    EXPECT_EQ(shards, expected) << "threads=" << threads;
  }
}

TEST(SchedulerTest, MaxParallelismOneRunsInline) {
  Scheduler scheduler(4);
  const auto caller = std::this_thread::get_id();
  scheduler.ResetCounters();
  scheduler.ParallelFor(
      0, 100, 10,
      [&](std::size_t, std::size_t) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
      },
      /*max_parallelism=*/1);
  const SchedulerCounters counters = scheduler.counters();
  EXPECT_EQ(counters.regions, 0u);
  EXPECT_GT(counters.inline_regions, 0u);
  EXPECT_EQ(counters.tasks_spawned, 0u);
}

TEST(SchedulerTest, NestedRegionsCoverAndCount) {
  // Two threads is one worker plus the caller: the caller's Wait runs
  // whatever the worker has not taken.
  for (std::size_t threads : {2u, 4u}) {
    Scheduler scheduler(threads);
    scheduler.ResetCounters();
    constexpr std::size_t kOuter = 8;
    constexpr std::size_t kInner = 32;
    std::vector<std::atomic<int>> hits(kOuter * kInner);
    for (auto& h : hits) h.store(0);
    scheduler.ParallelFor(0, kOuter, 1, [&](std::size_t ob, std::size_t oe) {
      for (std::size_t o = ob; o < oe; ++o) {
        // A region from inside a task: its shards are queued subtasks.
        scheduler.ParallelFor(0, kInner, 4,
                              [&](std::size_t ib, std::size_t ie) {
                                for (std::size_t i = ib; i < ie; ++i) {
                                  hits[o * kInner + i].fetch_add(1);
                                }
                              });
      }
    });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "threads=" << threads << " i=" << i;
    }
    const SchedulerCounters counters = scheduler.counters();
    EXPECT_GT(counters.regions, 0u) << "threads=" << threads;
    EXPECT_GT(counters.nested_regions, 0u) << "threads=" << threads;
  }
}

TEST(SchedulerTest, WorkIsActuallyStolen) {
  // A task queues a subtask, then spins until another worker has taken
  // and run it — it never helps, so completion proves that a task spawned
  // by one worker ran on another (liveness only; no timing assumptions).
  Scheduler scheduler(3);
  scheduler.ResetCounters();
  std::atomic<bool> stolen_ran{false};
  TaskGroup outer(&scheduler);
  outer.Run([&] {
    TaskGroup inner(&scheduler);
    inner.Run([&] { stolen_ran.store(true); });
    while (!stolen_ran.load()) std::this_thread::yield();
    inner.Wait();
  });
  // Don't call Wait() (which would help) until the subtask ran: the outer
  // task must be picked up by a worker, so its subtask is spawned by that
  // worker and only the other worker can run it.
  while (!stolen_ran.load()) std::this_thread::yield();
  outer.Wait();
  EXPECT_TRUE(stolen_ran.load());
  EXPECT_GE(scheduler.counters().tasks_stolen, 1u);
}

TEST(SchedulerTest, TaskGroupPropagatesFirstException) {
  Scheduler scheduler(4);
  TaskGroup group(&scheduler);
  std::atomic<int> ran{0};
  for (int i = 0; i < 16; ++i) {
    group.Run([&, i] {
      ran.fetch_add(1);
      if (i % 4 == 0) throw std::runtime_error("task failed");
    });
  }
  EXPECT_THROW(group.Wait(), std::runtime_error);
  EXPECT_EQ(ran.load(), 16);  // every task still finished
  // The scheduler stays usable after an exception.
  std::atomic<int> after{0};
  scheduler.ParallelFor(0, 8, 1, [&](std::size_t b, std::size_t e) {
    after.fetch_add(static_cast<int>(e - b));
  });
  EXPECT_EQ(after.load(), 8);
}

TEST(SchedulerTest, ParallelForRethrowsBodyException) {
  Scheduler scheduler(4);
  EXPECT_THROW(
      scheduler.ParallelFor(0, 64, 1,
                            [&](std::size_t b, std::size_t) {
                              if (b == 7) throw std::runtime_error("shard");
                            }),
      std::runtime_error);
}

TEST(SchedulerTest, ShutdownWhileBusyDrainsEveryTask) {
  std::atomic<int> done{0};
  constexpr int kTasks = 64;
  {
    auto scheduler = std::make_unique<Scheduler>(4);
    TaskGroup group(scheduler.get());
    for (int i = 0; i < kTasks; ++i) {
      group.Run([&] {
        std::this_thread::yield();
        done.fetch_add(1);
      });
    }
    // Destroy the scheduler with the group still in flight: the destructor
    // must finish every spawned task before the group (destroyed after,
    // waiting on completion) can unwind.
    scheduler.reset();
    group.Wait();
  }
  EXPECT_EQ(done.load(), kTasks);
}

TEST(SchedulerTest, StressNestedGroupsUnderChurn) {
  // Many concurrent nested groups — the TSAN target for the queue and the
  // group completion protocol.
  for (std::size_t threads : {2u, 4u}) {
    Scheduler scheduler(threads);
    std::atomic<int> total{0};
    scheduler.ParallelFor(0, 16, 1, [&](std::size_t b, std::size_t e) {
      for (std::size_t o = b; o < e; ++o) {
        TaskGroup group(&scheduler);
        for (int i = 0; i < 8; ++i) {
          group.Run([&] { total.fetch_add(1); });
        }
        group.Wait();
      }
    });
    EXPECT_EQ(total.load(), 16 * 8) << "threads=" << threads;
  }
}

TEST(SchedulerTest, ManyRegionsReuseTheSchedulerCleanly) {
  Scheduler scheduler(4);
  std::atomic<std::size_t> total{0};
  for (int round = 0; round < 200; ++round) {
    scheduler.ParallelFor(0, 32, 4, [&](std::size_t b, std::size_t e) {
      total.fetch_add(e - b);
    });
  }
  EXPECT_EQ(total.load(), 200u * 32u);
}

TEST(SchedulerTest, GlobalIsSharedAndSizedByBudget) {
  Scheduler* global = Scheduler::Global();
  ASSERT_NE(global, nullptr);
  EXPECT_EQ(global, Scheduler::Global());
  // JURYOPT_THREADS at process start is a whole-process budget and sizes
  // the pool exactly (the TSAN CI job runs this binary with it set to 4);
  // without it the pool is at least 8 so post-startup JURYOPT_THREADS
  // dispatch on small machines still runs multi-threaded. The env var may
  // have been set after the pool was created, in which case only the
  // floor holds.
  const char* env = std::getenv("JURYOPT_THREADS");
  if (env != nullptr && std::atoi(env) > 0) {
    EXPECT_GE(global->num_threads(), 1u);
  } else {
    EXPECT_GE(global->num_threads(), 8u);
  }
}

}  // namespace
}  // namespace jury

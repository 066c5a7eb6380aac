// Async-submission tests: `PoolPlanContext::SubmitMany` futures must be
// byte-identical to blocking solves for any thread count and any Take
// order, and dropping futures must be safe.

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "api/solve.h"
#include "gtest/gtest.h"
#include "model/worker.h"
#include "test_util.h"
#include "util/rng.h"

namespace jury {
namespace {

using jury::testing::RandomPool;

std::vector<Worker> TestPool(int n = 32) {
  Rng rng(20150323);
  return RandomPool(&rng, n, 0.55, 0.9, 0.05, 0.6);
}

/// Report bytes with the one legitimately timing-dependent field zeroed
/// (the identity contract, as in `api_test.cc`).
std::string CanonicalJson(api::SolveReport report) {
  report.wall_seconds = 0.0;
  return report.ToJson();
}

std::vector<api::SolveRequest> MixedBatch(std::size_t count) {
  // A mix of deterministic and stochastic solvers, each with its own
  // scalars and seed.
  const char* solvers[] = {"optjs", "annealing", "greedy-value", "mvjs"};
  std::vector<api::SolveRequest> requests;
  for (std::size_t i = 0; i < count; ++i) {
    api::SolveRequest request;
    request.solver = solvers[i % 4];
    request.budget = 1.0 + 0.15 * static_cast<double>(i);
    request.alpha = 0.35 + 0.02 * static_cast<double>(i % 8);
    request.rng_seed = 1000 + i;
    requests.push_back(request);
  }
  return requests;
}

TEST(SubmitManyTest, FuturesMatchBlockingSolvesAcrossThreadCounts) {
  auto planned = api::PoolPlanContext::Plan(TestPool());
  ASSERT_TRUE(planned.ok());
  api::PoolPlanContext context = std::move(planned).value();
  const std::vector<api::SolveRequest> requests = MixedBatch(12);

  std::vector<std::string> expected;
  for (const api::SolveRequest& request : requests) {
    auto report = context.Solve(request);
    ASSERT_TRUE(report.ok());
    expected.push_back(CanonicalJson(report.value()));
  }

  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
    api::SubmitOptions options;
    options.num_threads = threads;
    std::vector<api::SolveFuture> futures =
        context.SubmitMany(requests, options);
    ASSERT_EQ(futures.size(), requests.size());
    for (std::size_t i = 0; i < futures.size(); ++i) {
      auto report = futures[i].Take();
      ASSERT_TRUE(report.ok());
      EXPECT_EQ(CanonicalJson(report.value()), expected[i])
          << "request " << i << " at " << threads << " threads";
    }
  }
}

TEST(SubmitManyTest, TakeOrderDoesNotMatter) {
  auto planned = api::PoolPlanContext::Plan(TestPool());
  ASSERT_TRUE(planned.ok());
  api::PoolPlanContext context = std::move(planned).value();
  const std::vector<api::SolveRequest> requests = MixedBatch(8);

  std::vector<std::string> expected;
  for (const api::SolveRequest& request : requests) {
    auto report = context.Solve(request);
    ASSERT_TRUE(report.ok());
    expected.push_back(CanonicalJson(report.value()));
  }

  api::SubmitOptions options;
  options.num_threads = 4;
  std::vector<api::SolveFuture> futures = context.SubmitMany(requests, options);
  // Harvest in reverse — the completion order the scheduler produced is
  // irrelevant to what each future returns.
  for (std::size_t r = futures.size(); r-- > 0;) {
    auto report = futures[r].Take();
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(CanonicalJson(report.value()), expected[r]);
  }
}

TEST(SubmitManyTest, OnCompleteFiresOncePerRequest) {
  auto planned = api::PoolPlanContext::Plan(TestPool());
  ASSERT_TRUE(planned.ok());
  api::PoolPlanContext context = std::move(planned).value();
  const std::vector<api::SolveRequest> requests = MixedBatch(10);

  std::mutex mutex;
  std::condition_variable cv;
  std::vector<std::size_t> completed;
  api::SubmitOptions options;
  options.num_threads = 4;
  options.on_complete = [&](std::size_t index) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      completed.push_back(index);
    }
    cv.notify_all();
  };
  std::vector<api::SolveFuture> futures = context.SubmitMany(requests, options);
  for (api::SolveFuture& future : futures) future.Wait();

  // The future is published before its callback runs, so Wait() alone
  // does not bound the callbacks — wait on them directly.
  std::unique_lock<std::mutex> lock(mutex);
  cv.wait(lock, [&] { return completed.size() == requests.size(); });
  ASSERT_EQ(completed.size(), requests.size());
  std::set<std::size_t> unique(completed.begin(), completed.end());
  EXPECT_EQ(unique.size(), requests.size());
  EXPECT_EQ(*unique.begin(), 0u);
  EXPECT_EQ(*unique.rbegin(), requests.size() - 1);
}

TEST(SubmitManyTest, DroppingFuturesIsSafe) {
  auto planned = api::PoolPlanContext::Plan(TestPool());
  ASSERT_TRUE(planned.ok());
  api::PoolPlanContext context = std::move(planned).value();
  const std::vector<api::SolveRequest> requests = MixedBatch(8);
  {
    api::SubmitOptions options;
    options.num_threads = 4;
    std::vector<api::SolveFuture> futures =
        context.SubmitMany(requests, options);
    // Take one, drop the rest without waiting: the batch must drain
    // cleanly behind the scenes (checked implicitly — no hang, no leak
    // under sanitizers).
    ASSERT_TRUE(futures[3].Take().ok());
  }
  // The context is still fully usable.
  ASSERT_TRUE(context.Solve(requests[0]).ok());
}

TEST(SubmitManyTest, ReadyIsEventuallyTrueAndNonBlocking) {
  auto planned = api::PoolPlanContext::Plan(TestPool());
  ASSERT_TRUE(planned.ok());
  api::PoolPlanContext context = std::move(planned).value();
  const std::vector<api::SolveRequest> requests = MixedBatch(4);
  api::SubmitOptions options;
  options.num_threads = 2;
  std::vector<api::SolveFuture> futures = context.SubmitMany(requests, options);
  for (api::SolveFuture& future : futures) {
    future.Wait();
    EXPECT_TRUE(future.Ready());
  }
  // Serial path: futures are ready the moment SubmitMany returns.
  options.num_threads = 1;
  std::vector<api::SolveFuture> serial = context.SubmitMany(requests, options);
  for (const api::SolveFuture& future : serial) EXPECT_TRUE(future.Ready());
}

TEST(SubmitManyTest, EmptyBatchReturnsNoFutures) {
  auto planned = api::PoolPlanContext::Plan(TestPool());
  ASSERT_TRUE(planned.ok());
  api::PoolPlanContext context = std::move(planned).value();
  EXPECT_TRUE(context.SubmitMany({}).empty());
}

TEST(SubmitManyTest, InvalidRequestFailsItsFutureOnly) {
  auto planned = api::PoolPlanContext::Plan(TestPool());
  ASSERT_TRUE(planned.ok());
  api::PoolPlanContext context = std::move(planned).value();
  std::vector<api::SolveRequest> requests = MixedBatch(4);
  requests[1].solver = "no-such-solver";
  requests[2].budget = -1.0;
  api::SubmitOptions options;
  options.num_threads = 4;
  std::vector<api::SolveFuture> futures = context.SubmitMany(requests, options);
  EXPECT_TRUE(futures[0].Take().ok());
  EXPECT_EQ(futures[1].Take().status().code(), StatusCode::kNotFound);
  EXPECT_EQ(futures[2].Take().status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(futures[3].Take().ok());
}

}  // namespace
}  // namespace jury

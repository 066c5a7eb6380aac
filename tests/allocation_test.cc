#include "gtest/gtest.h"
#include "core/allocation.h"
#include "test_util.h"
#include "util/rng.h"

namespace jury {
namespace {

using jury::testing::RandomPool;

AllocationTask MakeTask(Rng* rng, int n, double alpha = 0.5) {
  AllocationTask task;
  task.candidates = RandomPool(rng, n, 0.55, 0.95, 0.05, 0.3);
  task.alpha = alpha;
  return task;
}

TEST(AllocationTest, StaysWithinGlobalBudget) {
  Rng rng(1);
  std::vector<AllocationTask> tasks;
  for (int i = 0; i < 5; ++i) tasks.push_back(MakeTask(&rng, 8));
  Rng solver_rng(7);
  const auto result = AllocateBudget(tasks, 1.0, &solver_rng).value();
  EXPECT_LE(result.total_granted, 1.0 + 1e-9);
  EXPECT_LE(result.total_spent, result.total_granted + 1e-9);
  for (const auto& t : result.tasks) {
    EXPECT_LE(t.solution.cost, t.budget + 1e-9);
  }
}

TEST(AllocationTest, BeatsUniformSplit) {
  // Heterogeneous tasks: some have cheap strong workers (need little),
  // some only expensive ones (need more). Marginal allocation should beat
  // an equal split on mean JQ.
  Rng rng(3);
  std::vector<AllocationTask> tasks;
  for (int i = 0; i < 6; ++i) tasks.push_back(MakeTask(&rng, 10));
  const double global = 1.2;

  Rng r1(11);
  const auto smart = AllocateBudget(tasks, global, &r1).value();

  Rng r2(11);
  double uniform_mean = 0.0;
  for (const auto& task : tasks) {
    JspInstance instance;
    instance.candidates = task.candidates;
    instance.budget = global / 6.0;
    instance.alpha = task.alpha;
    const WorkerPoolView view(instance.candidates);
    uniform_mean +=
        SolveOptjs(instance, view, BucketBvObjective(), &r2).value().jq;
  }
  uniform_mean /= 6.0;
  EXPECT_GE(smart.mean_jq, uniform_mean - 1e-6);
}

TEST(AllocationTest, ConfidentPriorTasksGetLess) {
  // A task whose prior already answers it should absorb less budget than
  // an ambiguous one with the same pool.
  Rng rng(5);
  const auto pool = RandomPool(&rng, 8, 0.6, 0.8, 0.1, 0.3);
  AllocationTask easy;
  easy.candidates = pool;
  easy.alpha = 0.98;
  AllocationTask hard;
  hard.candidates = pool;
  hard.alpha = 0.5;
  Rng solver_rng(13);
  const auto result =
      AllocateBudget({easy, hard}, 0.8, &solver_rng).value();
  EXPECT_LE(result.tasks[0].budget, result.tasks[1].budget + 1e-9);
}

TEST(AllocationTest, StopsWhenMoneyStopsHelping) {
  // One task whose full pool costs 0.3: granting more than that is waste;
  // the allocator should stop early.
  Rng rng(7);
  AllocationTask task;
  task.candidates = {{"a", 0.8, 0.1}, {"b", 0.7, 0.1}, {"c", 0.75, 0.1}};
  Rng solver_rng(17);
  AllocationOptions options;
  options.increment = 0.1;
  const auto result =
      AllocateBudget({task}, 100.0, &solver_rng, options).value();
  EXPECT_LE(result.total_granted, 0.5 + 1e-9);
  // The jury should be the whole pool.
  EXPECT_EQ(result.tasks[0].solution.selected.size(), 3u);
}

TEST(AllocationTest, EmptyTaskListIsFine) {
  Rng rng(9);
  const auto result = AllocateBudget({}, 1.0, &rng).value();
  EXPECT_TRUE(result.tasks.empty());
  EXPECT_DOUBLE_EQ(result.total_granted, 0.0);
  EXPECT_DOUBLE_EQ(result.mean_jq, 0.0);
}

TEST(AllocationTest, ValidatesArguments) {
  Rng rng(11);
  EXPECT_FALSE(AllocateBudget({}, -1.0, &rng).ok());
  AllocationOptions bad;
  bad.increment = 0.0;
  EXPECT_FALSE(AllocateBudget({}, 1.0, &rng, bad).ok());
}

}  // namespace
}  // namespace jury

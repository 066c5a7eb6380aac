#include <tuple>

#include "gtest/gtest.h"
#include "core/branch_bound.h"
#include "core/exhaustive.h"
#include "core/objective.h"
#include "test_util.h"
#include "util/rng.h"

namespace jury {
namespace {

using jury::testing::Figure1Workers;
using jury::testing::RandomPool;

JspInstance MakeInstance(const WorkerPoolView& view, double budget,
                         double alpha = 0.5) {
  JspInstance instance;
  instance.pool = &view;
  instance.budget = budget;
  instance.alpha = alpha;
  return instance;
}

class BranchBoundAgreementTest
    : public ::testing::TestWithParam<std::tuple<int, double, int>> {};

TEST_P(BranchBoundAgreementTest, MatchesExhaustiveExactly) {
  const auto [n, budget, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 7001 +
          static_cast<std::uint64_t>(n));
  const auto pool = RandomPool(&rng, n, 0.5, 0.95, 0.05, 0.4);
  const WorkerPoolView view(pool);
  const auto instance = MakeInstance(view, budget);
  const ExactBvObjective objective;
  const auto exhaustive = SolveExhaustive(instance, view, objective).value();
  const auto bb = SolveBranchAndBound(instance, view, objective).value();
  EXPECT_NEAR(bb.jq, exhaustive.jq, 1e-10);
  // Note: at numerically-equal JQ the two exact solvers may return
  // different juries — the exhaustive sweep only visits maximal juries
  // (Lemma 1), while branch-and-bound may find a cheaper non-maximal tie.
  EXPECT_LE(bb.cost, exhaustive.cost + 1e-10);
  EXPECT_LE(bb.cost, instance.budget + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BranchBoundAgreementTest,
    ::testing::Combine(::testing::Values(4, 8, 12),
                       ::testing::Values(0.2, 0.5, 1.0),
                       ::testing::Values(1, 2, 3)));

TEST(BranchBoundTest, SolvesFigure1) {
  const ExactBvObjective objective;
  const auto pool = Figure1Workers();
  const WorkerPoolView view(pool);
  const auto instance = MakeInstance(view, 15.0);
  const auto solution = SolveBranchAndBound(instance, view, objective).value();
  EXPECT_EQ(solution.selected, (std::vector<std::size_t>{1, 2, 6}));
  EXPECT_NEAR(solution.jq, 0.845, 1e-9);
}

TEST(BranchBoundTest, ScalesBeyondTheExhaustiveGuard) {
  // N = 26 is past SolveExhaustive's default cap; branch-and-bound with the
  // bucket objective finishes and prunes most of the tree.
  Rng rng(11);
  const auto pool = RandomPool(&rng, 26, 0.5, 0.95, 0.05, 0.4);
  const WorkerPoolView view(pool);
  const auto instance = MakeInstance(view, 0.4);
  const BucketBvObjective objective;
  BranchBoundStats stats;
  const auto solution =
      SolveBranchAndBound(instance, view, objective, {}, &stats).value();
  EXPECT_LE(solution.cost, instance.budget + 1e-12);
  EXPECT_GT(stats.nodes_pruned_bound + stats.nodes_pruned_budget, 0u);
  EXPECT_LT(stats.nodes_explored, (1u << 26));
}

TEST(BranchBoundTest, RejectsNonMonotoneObjectives) {
  const MajorityObjective mv;
  const auto pool = Figure1Workers();
  const WorkerPoolView view(pool);
  const auto instance = MakeInstance(view, 10.0);
  EXPECT_EQ(SolveBranchAndBound(instance, view, mv).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(BranchBoundTest, NodeBudgetIsEnforced) {
  Rng rng(13);
  const auto pool = RandomPool(&rng, 18, 0.5, 0.95, 0.05, 0.4);
  const WorkerPoolView view(pool);
  const auto instance = MakeInstance(view, 1.0);
  const ExactBvObjective objective;
  BranchBoundOptions options;
  options.max_nodes = 5;
  EXPECT_EQ(
      SolveBranchAndBound(instance, view, objective, options).status().code(),
      StatusCode::kResourceExhausted);
}

TEST(BranchBoundTest, EmptyPoolAndZeroBudget) {
  const ExactBvObjective objective;
  const WorkerPoolView empty_view;
  const auto empty = MakeInstance(empty_view, 1.0, 0.7);
  const auto s1 = SolveBranchAndBound(empty, empty_view, objective).value();
  EXPECT_TRUE(s1.selected.empty());
  EXPECT_DOUBLE_EQ(s1.jq, 0.7);

  Rng rng(17);
  const auto pool = RandomPool(&rng, 6, 0.5, 0.9, 0.5, 1.0);
  const WorkerPoolView broke_view(pool);
  const auto broke = MakeInstance(broke_view, 0.0);
  const auto s2 = SolveBranchAndBound(broke, broke_view, objective).value();
  EXPECT_TRUE(s2.selected.empty());
}

TEST(BranchBoundTest, PrefersCheaperTies) {
  // Two equal-quality workers at different prices; only one fits the
  // quality need — the optimum should keep the cost minimal among ties.
  std::vector<Worker> workers = {{"cheap", 0.8, 1.0}, {"pricey", 0.8, 3.0}};
  const ExactBvObjective objective;
  const WorkerPoolView view(workers);
  const auto instance = MakeInstance(view, 3.0);
  const auto solution = SolveBranchAndBound(instance, view, objective).value();
  ASSERT_EQ(solution.selected.size(), 1u);
  EXPECT_EQ(solution.selected[0], 0u);
  EXPECT_DOUBLE_EQ(solution.cost, 1.0);
}

}  // namespace
}  // namespace jury

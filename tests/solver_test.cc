#include <cstdlib>
#include <functional>
#include <limits>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "core/annealing.h"
#include "core/branch_bound.h"
#include "core/budget_table.h"
#include "core/exhaustive.h"
#include "core/greedy.h"
#include "core/mvjs.h"
#include "core/objective.h"
#include "core/optjs.h"
#include "jq/closed_form.h"
#include "jq/exact.h"
#include "test_util.h"
#include "util/rng.h"

namespace jury {
namespace {

using jury::testing::Figure1Workers;
using jury::testing::RandomPool;

JspInstance MakeInstance(CandidateSpan workers, double budget,
                         double alpha = 0.5) {
  JspInstance instance;
  instance.candidates = workers;
  instance.budget = budget;
  instance.alpha = alpha;
  return instance;
}

// ------------------------------------------------------------ Exhaustive

TEST(ExhaustiveSolverTest, FindsTheFigure1Optima) {
  // The paper's budget-quality table (Fig. 1) for the A..G pool:
  //   B=5  -> {F, G}        JQ 75%
  //   B=10 -> {C, G}        JQ 80%
  //   B=15 -> {B, C, G}     JQ 84.5%
  //   B=20 -> {A, C, F, G}  JQ 86.95%
  const ExactBvObjective objective;
  struct Expected {
    double budget;
    std::vector<std::size_t> selected;
    double jq;
    double cost;
  };
  // Note on B=10: the paper lists {C, G} (cost 9); {C, F} ties at exactly
  // 80% JQ (BV follows C either way) and is cheaper (cost 8), and our
  // solver breaks JQ ties towards the cheaper jury.
  const std::vector<Expected> table{
      {5.0, {5, 6}, 0.75, 5.0},
      {10.0, {2, 5}, 0.80, 8.0},
      {15.0, {1, 2, 6}, 0.845, 14.0},
      {20.0, {0, 2, 5, 6}, 0.8695, 20.0},
  };
  for (const auto& expected : table) {
    const auto pool = Figure1Workers();
    const auto instance = MakeInstance(pool, expected.budget);
    const WorkerPoolView view(instance.candidates);
    const auto solution = SolveExhaustive(instance, view, objective).value();
    EXPECT_EQ(solution.selected, expected.selected)
        << "B=" << expected.budget << " got " << solution.Describe(instance);
    EXPECT_NEAR(solution.jq, expected.jq, 1e-9);
    EXPECT_NEAR(solution.cost, expected.cost, 1e-9);
  }
}

TEST(ExhaustiveSolverTest, RespectsBudgetAlways) {
  Rng rng(3001);
  const ExactBvObjective objective;
  for (int trial = 0; trial < 10; ++trial) {
    const double budget = rng.Uniform(0.2, 2.0);
    const auto pool = RandomPool(&rng, 9, 0.5, 0.95, 0.1, 1.0);
    const auto instance = MakeInstance(pool, budget);
    const WorkerPoolView view(instance.candidates);
    const auto solution = SolveExhaustive(instance, view, objective).value();
    EXPECT_LE(solution.cost, instance.budget + 1e-12);
  }
}

TEST(ExhaustiveSolverTest, ZeroBudgetYieldsEmptyJury) {
  const ExactBvObjective objective;
  Rng rng(1);
  const auto pool = RandomPool(&rng, 5, 0.5, 0.9, 0.5, 1.0);
  const auto instance = MakeInstance(pool, 0.0);
  const WorkerPoolView view(instance.candidates);
  const auto solution = SolveExhaustive(instance, view, objective).value();
  EXPECT_TRUE(solution.selected.empty());
  EXPECT_DOUBLE_EQ(solution.jq, 0.5);
}

TEST(ExhaustiveSolverTest, GuardsLargePools) {
  Rng rng(3);
  const ExactBvObjective objective;
  const auto pool = RandomPool(&rng, 23, 0.5, 0.9, 0.1, 1.0);
  const auto instance = MakeInstance(pool, 1.0);
  const WorkerPoolView view(instance.candidates);
  EXPECT_EQ(SolveExhaustive(instance, view, objective).status().code(),
            StatusCode::kOutOfRange);
}

TEST(ExhaustiveSolverTest, MaximalityPruningMatchesFullEnumeration) {
  // The Lemma-1 pruning must not change the optimum: compare against the
  // non-monotone path by solving the same instance with the MV objective
  // restricted to juries (no pruning) and the BV objective (pruned).
  Rng rng(3011);
  const ExactBvObjective bv;
  for (int trial = 0; trial < 8; ++trial) {
    const double budget = rng.Uniform(0.3, 1.5);
    const auto pool = RandomPool(&rng, 8, 0.5, 0.95, 0.1, 0.6);
    const auto instance = MakeInstance(pool, budget);
    const WorkerPoolView view(instance.candidates);
    const auto fast = SolveExhaustive(instance, view, bv).value();
    // Brute-force reference without maximality pruning.
    double best = EmptyJuryJq(instance.alpha);
    for (std::uint64_t mask = 1; mask < (1u << 8); ++mask) {
      Jury jury;
      double cost = 0.0;
      for (std::size_t i = 0; i < 8; ++i) {
        if ((mask >> i) & 1u) {
          jury.Add(instance.candidates[i]);
          cost += instance.candidates[i].cost;
        }
      }
      if (cost > instance.budget) continue;
      best = std::max(best, ExactJqBv(jury, instance.alpha).value());
    }
    EXPECT_NEAR(fast.jq, best, 1e-9);
  }
}

// -------------------------------------------------------------- Annealing

class AnnealingQualityTest : public ::testing::TestWithParam<int> {};

TEST_P(AnnealingQualityTest, ComesCloseToTheExhaustiveOptimum) {
  // The Fig. 7(a)/Table 3 protocol at N = 11 with the paper's cost model
  // (truncated N(0.05, 0.2^2)): a single SA run is noisy (the paper reports
  // errors up to 3%); the best of three seeds must be within 3% of the
  // exhaustive optimum, every run within budget.
  Rng pool_rng(static_cast<std::uint64_t>(GetParam()) * 40093);
  std::vector<Worker> pool;
  for (int i = 0; i < 11; ++i) {
    pool.emplace_back("w" + std::to_string(i), pool_rng.Uniform(0.5, 0.95),
                      pool_rng.TruncatedGaussian(0.05, 0.2, 0.01, 1e9));
  }
  const auto instance = MakeInstance(pool, 0.5);
  const ExactBvObjective objective;
  const WorkerPoolView view(instance.candidates);
  const auto optimal = SolveExhaustive(instance, view, objective).value();
  double best_sa = 0.0;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Rng sa_rng(static_cast<std::uint64_t>(GetParam()) * 7 + seed);
    const auto sa = SolveAnnealing(instance, view, objective, &sa_rng).value();
    EXPECT_LE(sa.cost, instance.budget + 1e-12);
    EXPECT_LE(sa.jq, optimal.jq + 1e-9);
    best_sa = std::max(best_sa, sa.jq);
  }
  EXPECT_GE(best_sa, optimal.jq - 0.03);
}

INSTANTIATE_TEST_SUITE_P(Sweep, AnnealingQualityTest, ::testing::Range(1, 9));

TEST(AnnealingSolverTest, BudgetNeverViolated) {
  Rng rng(4001);
  const BucketBvObjective objective;
  for (int trial = 0; trial < 10; ++trial) {
    const double budget = rng.Uniform(0.1, 1.0);
    const auto pool = RandomPool(&rng, 30, 0.5, 0.95, 0.05, 0.5);
    const auto instance = MakeInstance(pool, budget);
    Rng sa_rng = rng.Fork();
    const WorkerPoolView view(instance.candidates);
    const auto solution =
        SolveAnnealing(instance, view, objective, &sa_rng).value();
    EXPECT_LE(solution.cost, instance.budget + 1e-12);
    // No duplicate selections.
    for (std::size_t i = 1; i < solution.selected.size(); ++i) {
      EXPECT_LT(solution.selected[i - 1], solution.selected[i]);
    }
  }
}

TEST(AnnealingSolverTest, EmptyPoolYieldsPriorOnlySolution) {
  const BucketBvObjective objective;
  const auto instance = MakeInstance({}, 1.0, 0.7);
  Rng rng(5);
  const WorkerPoolView view(instance.candidates);
  const auto solution = SolveAnnealing(instance, view, objective, &rng).value();
  EXPECT_TRUE(solution.selected.empty());
  EXPECT_DOUBLE_EQ(solution.jq, 0.7);
}

TEST(AnnealingSolverTest, StatsAreConsistent) {
  Rng rng(4003);
  const BucketBvObjective objective;
  const auto pool = RandomPool(&rng, 20, 0.5, 0.95, 0.05, 0.3);
  const auto instance = MakeInstance(pool, 0.5);
  Rng sa_rng(17);
  AnnealingStats stats;
  const WorkerPoolView view(instance.candidates);
  ASSERT_TRUE(
      SolveAnnealing(instance, view, objective, &sa_rng, {}, &stats).ok());
  // T halves from 1.0 to 1e-8: 27 levels.
  EXPECT_EQ(stats.temperature_levels, 27u);
  EXPECT_EQ(stats.moves_attempted, 27u * 20u);
  EXPECT_GE(stats.moves_attempted, stats.moves_accepted);
  EXPECT_EQ(stats.moves_accepted,
            stats.uphill_accepts + stats.downhill_accepts);
  EXPECT_GT(stats.objective_evaluations, 0u);
}

TEST(AnnealingSolverTest, ValidatesArguments) {
  const BucketBvObjective objective;
  const auto pool = Figure1Workers();
  const auto instance = MakeInstance(pool, 10.0);
  Rng rng(1);
  const WorkerPoolView view(instance.candidates);
  EXPECT_FALSE(SolveAnnealing(instance, view, objective, nullptr).ok());
  AnnealingOptions bad;
  bad.cooling_factor = 1.5;
  EXPECT_FALSE(SolveAnnealing(instance, view, objective, &rng, bad).ok());
}

TEST(AnnealingSolverTest, ReturnBestSeenNeverHurts) {
  Rng rng(4007);
  const ExactBvObjective objective;
  for (int trial = 0; trial < 5; ++trial) {
    const auto pool = RandomPool(&rng, 12, 0.5, 0.95, 0.05, 0.3);
    const auto instance = MakeInstance(pool, 0.4);
    Rng rng_final(1000 + static_cast<std::uint64_t>(trial));
    Rng rng_best(1000 + static_cast<std::uint64_t>(trial));
    AnnealingOptions final_opts;
    const WorkerPoolView view(instance.candidates);
    const auto final_solution =
        SolveAnnealing(instance, view, objective, &rng_final, final_opts)
            .value();
    AnnealingOptions best_opts;
    best_opts.return_best_seen = true;
    const auto best_solution =
        SolveAnnealing(instance, view, objective, &rng_best, best_opts).value();
    EXPECT_GE(best_solution.jq, final_solution.jq - 1e-12);
  }
}

TEST(AnnealingSolverTest, RemovalMovesHelpEscapeStuckJuries) {
  // A crafted trap: two cheap mediocre workers fill the budget greedily,
  // while the optimum is the single expensive expert. 1-for-1 swaps cannot
  // leave the trap; removal moves can.
  std::vector<Worker> workers = {
      {"cheap1", 0.55, 0.20}, {"cheap2", 0.55, 0.20}, {"cheap3", 0.55, 0.20},
      {"expert", 0.97, 0.45}};
  const auto instance = MakeInstance(workers, 0.6);
  const ExactBvObjective objective;
  const WorkerPoolView view(instance.candidates);
  const auto optimal = SolveExhaustive(instance, view, objective).value();
  ASSERT_NEAR(optimal.jq, 0.97, 0.01);  // the expert dominates

  int plain_hits = 0;
  int removal_hits = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng r1(seed), r2(seed);
    AnnealingOptions plain;
    const auto s1 =
        SolveAnnealing(instance, view, objective, &r1, plain).value();
    AnnealingOptions with_removals;
    with_removals.removal_probability = 0.25;
    const auto s2 =
        SolveAnnealing(instance, view, objective, &r2, with_removals).value();
    plain_hits += (s1.jq >= optimal.jq - 1e-9);
    removal_hits += (s2.jq >= optimal.jq - 1e-9);
    EXPECT_LE(s2.cost, instance.budget + 1e-12);
  }
  EXPECT_GE(removal_hits, plain_hits);
  EXPECT_GT(removal_hits, 30);  // removals should solve it almost always
}

TEST(AnnealingSolverTest, RemovalsDisabledByDefaultMatchVerbatimAlg3) {
  // With removal_probability = 0 the run must be bit-identical to the
  // default configuration (same seed, same moves).
  Rng rng(6007);
  const auto pool = RandomPool(&rng, 15, 0.5, 0.95, 0.05, 0.3);
  const auto instance = MakeInstance(pool, 0.5);
  const ExactBvObjective objective;
  Rng r1(99), r2(99);
  const WorkerPoolView view(instance.candidates);
  const auto a = SolveAnnealing(instance, view, objective, &r1).value();
  AnnealingOptions zero;
  zero.removal_probability = 0.0;
  const auto b = SolveAnnealing(instance, view, objective, &r2, zero).value();
  EXPECT_EQ(a.selected, b.selected);
  EXPECT_DOUBLE_EQ(a.jq, b.jq);
}

// ----------------------------------------------------------------- Greedy

TEST(GreedySolverTest, RespectsBudget) {
  Rng rng(4011);
  const ExactBvObjective objective;
  for (int trial = 0; trial < 10; ++trial) {
    const double budget = rng.Uniform(0.3, 2.0);
    const auto pool = RandomPool(&rng, 10, 0.5, 0.95, 0.1, 1.0);
    const auto instance = MakeInstance(pool, budget);
    const WorkerPoolView view(instance.candidates);
    for (const auto& solution :
         {SolveGreedyByQuality(instance, view, objective).value(),
          SolveGreedyByValuePerCost(instance, view, objective).value(),
          SolveOddTopK(instance, view, objective).value()}) {
      EXPECT_LE(solution.cost, instance.budget + 1e-12);
    }
  }
}

TEST(GreedySolverTest, OddTopKSelectsOddSizes) {
  Rng rng(4013);
  const MajorityObjective objective;
  const auto pool = RandomPool(&rng, 9, 0.5, 0.95, 1.0, 1.0);
  const auto instance = MakeInstance(pool, 6.0);
  const WorkerPoolView view(instance.candidates);
  const auto solution = SolveOddTopK(instance, view, objective).value();
  EXPECT_EQ(solution.selected.size() % 2, 1u);
}

// -------------------------------------------------------- OPTJS vs MVJS

TEST(SystemComparisonTest, OptjsNeverLosesOnExpectation) {
  // The Fig. 6 claim in miniature: across random instances the BV-driven
  // system achieves at least the MV-driven system's quality (both measured
  // by their own exact JQ, like the paper's end-to-end comparison).
  Rng rng(5099);
  double optjs_total = 0.0;
  double mvjs_total = 0.0;
  const int trials = 20;
  for (int trial = 0; trial < trials; ++trial) {
    const auto pool = RandomPool(&rng, 12, 0.4, 0.95, 0.05, 0.4);
    const auto instance = MakeInstance(pool, 0.5);
    Rng r1 = rng.Fork();
    Rng r2 = rng.Fork();
    const WorkerPoolView view(instance.candidates);
    const auto optjs =
        SolveOptjs(instance, view, BucketBvObjective(), &r1).value();
    const auto mvjs =
        SolveMvjs(instance, view, MajorityObjective(), &r2).value();
    const double optjs_true_jq =
        ExactJqBv(optjs.ToJury(instance), instance.alpha).value();
    const double mvjs_true_jq =
        MajorityJq(mvjs.ToJury(instance), instance.alpha).value();
    optjs_total += optjs_true_jq;
    mvjs_total += mvjs_true_jq;
    // Per instance, BV on OPTJS's jury beats MV on MVJS's jury up to SA
    // noise; allow slack per-trial but none on the mean below.
    EXPECT_GE(optjs_true_jq, mvjs_true_jq - 0.05);
  }
  EXPECT_GE(optjs_total, mvjs_total);
}

TEST(SystemComparisonTest, OptjsExhaustiveDominatesMvjsPointwise) {
  // With the exhaustive OPTJS path (N <= 12 by default) dominance is exact:
  // the optimal BV jury's JQ is >= the MV JQ of ANY feasible jury
  // (Corollary 1 + optimality of the search).
  Rng rng(5101);
  for (int trial = 0; trial < 10; ++trial) {
    const auto pool = RandomPool(&rng, 10, 0.4, 0.95, 0.05, 0.4);
    const auto instance = MakeInstance(pool, 0.5);
    Rng r1 = rng.Fork();
    Rng r2 = rng.Fork();
    OptjsOptions options;
    options.bucket.num_buckets = 400;
    const WorkerPoolView view(instance.candidates);
    const BucketBvObjective bucket(options.bucket);
    const auto optjs =
        SolveOptjs(instance, view, bucket, &r1, options).value();
    const auto mvjs =
        SolveMvjs(instance, view, MajorityObjective(), &r2).value();
    const double optjs_true_jq =
        ExactJqBv(optjs.ToJury(instance), instance.alpha).value();
    const double mvjs_true_jq =
        MajorityJq(mvjs.ToJury(instance), instance.alpha).value();
    EXPECT_GE(optjs_true_jq, mvjs_true_jq - 0.005);
  }
}

TEST(OptjsFacadeTest, SmallPoolsUseTheExactPath) {
  // Below the exhaustive threshold the facade must return the true optimum
  // regardless of SA luck (same instance, many rng streams, one answer).
  Rng rng(5107);
  const auto pool = RandomPool(&rng, 9, 0.5, 0.95, 0.05, 0.4);
  const auto instance = MakeInstance(pool, 0.5);
  OptjsOptions options;
  options.bucket.num_buckets = 400;
  const WorkerPoolView view(instance.candidates);
  const BucketBvObjective objective(options.bucket);
  double first_jq = -1.0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Rng solver_rng(seed);
    const auto solution =
        SolveOptjs(instance, view, objective, &solver_rng, options).value();
    if (first_jq < 0.0) first_jq = solution.jq;
    EXPECT_NEAR(solution.jq, first_jq, 1e-12) << "seed " << seed;
  }
}

TEST(OptjsFacadeTest, GreedyFallbackRescuesStuckAnnealing) {
  // The crafted trap from the removal test, at a pool size that forces the
  // SA path (threshold disabled): the facade's greedy fallback must find
  // the expert even when SA gets stuck.
  std::vector<Worker> workers;
  for (int i = 0; i < 12; ++i) {
    workers.emplace_back("cheap" + std::to_string(i), 0.55, 0.20);
  }
  workers.emplace_back("expert", 0.97, 0.45);
  const auto instance = MakeInstance(workers, 0.6);
  OptjsOptions options;
  options.exhaustive_threshold = 0;  // force the SA+fallback path
  const WorkerPoolView view(instance.candidates);
  const BucketBvObjective objective(options.bucket);
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Rng solver_rng(seed);
    const auto solution =
        SolveOptjs(instance, view, objective, &solver_rng, options).value();
    EXPECT_GE(solution.jq, 0.97 - 0.01) << "seed " << seed;
  }
}

// ------------------------------------ incremental/full equivalence harness

/// Every solver must return the same jury — and the same JQ within 1e-12 —
/// whether moves are scored by session delta updates or by from-scratch
/// `Evaluate` calls. 50 seeded instances, both BV objectives and MV.
void ExpectSameSolution(const JspSolution& incremental,
                        const JspSolution& full, const JspInstance& instance,
                        const std::string& label, int inst) {
  EXPECT_EQ(incremental.selected, full.selected)
      << label << " instance " << inst << ": incremental "
      << incremental.Describe(instance) << " vs full "
      << full.Describe(instance);
  EXPECT_NEAR(incremental.jq, full.jq, 1e-12)
      << label << " instance " << inst;
}

TEST(IncrementalEquivalenceTest, AnnealingAndGreedyOnFiftyInstances) {
  Rng rng(90001);
  const BucketBvObjective bucket;
  const MajorityObjective majority;
  for (int inst = 0; inst < 50; ++inst) {
    const double budget = rng.Uniform(0.3, 1.0);
    const auto pool = RandomPool(&rng, 14, 0.4, 0.95, 0.05, 0.4);
    const auto instance = MakeInstance(pool, budget);
    const WorkerPoolView view(instance.candidates);
    const std::uint64_t sa_seed = 5000 + static_cast<std::uint64_t>(inst);
    for (const JqObjective* objective :
         {static_cast<const JqObjective*>(&bucket),
          static_cast<const JqObjective*>(&majority)}) {
      AnnealingOptions inc_opts, full_opts;
      full_opts.use_incremental = false;
      Rng r1(sa_seed), r2(sa_seed);
      const auto inc =
          SolveAnnealing(instance, view, *objective, &r1, inc_opts).value();
      const auto full =
          SolveAnnealing(instance, view, *objective, &r2, full_opts).value();
      ExpectSameSolution(inc, full, instance,
                         "annealing/" + objective->name(), inst);

      GreedyOptions g_inc, g_full;
      g_full.use_incremental = false;
      ExpectSameSolution(
          SolveGreedyMarginalGain(instance, view, *objective, g_inc).value(),
          SolveGreedyMarginalGain(instance, view, *objective, g_full).value(),
          instance, "marginal-gain/" + objective->name(), inst);
      ExpectSameSolution(
          SolveOddTopK(instance, view, *objective, g_inc).value(),
          SolveOddTopK(instance, view, *objective, g_full).value(), instance,
          "odd-top-k/" + objective->name(), inst);
    }
  }
}

TEST(IncrementalEquivalenceTest, ExhaustiveAndBranchBound) {
  Rng rng(90007);
  const BucketBvObjective bucket;
  const ExactBvObjective exact;
  const MajorityObjective majority;
  for (int inst = 0; inst < 15; ++inst) {
    const double budget = rng.Uniform(0.3, 1.0);
    const auto pool = RandomPool(&rng, 10, 0.4, 0.95, 0.05, 0.4);
    const auto instance = MakeInstance(pool, budget);
    const WorkerPoolView view(instance.candidates);
    ExhaustiveOptions ex_inc, ex_full;
    ex_full.use_incremental = false;
    for (const JqObjective* objective :
         {static_cast<const JqObjective*>(&bucket),
          static_cast<const JqObjective*>(&exact),
          static_cast<const JqObjective*>(&majority)}) {
      ExpectSameSolution(
          SolveExhaustive(instance, view, *objective, ex_inc).value(),
          SolveExhaustive(instance, view, *objective, ex_full).value(),
          instance, "exhaustive/" + objective->name(), inst);
    }
    BranchBoundOptions bb_inc, bb_full;
    bb_full.use_incremental = false;
    for (const JqObjective* objective :
         {static_cast<const JqObjective*>(&bucket),
          static_cast<const JqObjective*>(&exact)}) {
      ExpectSameSolution(
          SolveBranchAndBound(instance, view, *objective, bb_inc).value(),
          SolveBranchAndBound(instance, view, *objective, bb_full).value(),
          instance, "branch-bound/" + objective->name(), inst);
    }
  }
}

TEST(IncrementalEquivalenceTest, ExhaustiveBreaksExactTiesIdentically) {
  // Identical workers produce juries with bit-identical JQ *and* cost; the
  // Gray-code and ascending sweeps visit them in different orders, so the
  // tie-break must not depend on visit order (it prefers the smaller
  // mask, i.e. the ascending sweep's first hit).
  std::vector<Worker> workers = {{"a", 0.7, 1.0}, {"b", 0.7, 1.0},
                                 {"c", 0.8, 1.5}, {"d", 0.7, 1.0}};
  const auto instance = MakeInstance(workers, 2.5);
  ExhaustiveOptions inc, full;
  full.use_incremental = false;
  const MajorityObjective mv;  // non-monotone: no maximality filter
  const ExactBvObjective bv;
  const WorkerPoolView view(instance.candidates);
  for (const JqObjective* objective :
       {static_cast<const JqObjective*>(&mv),
        static_cast<const JqObjective*>(&bv)}) {
    const auto a = SolveExhaustive(instance, view, *objective, inc).value();
    const auto b = SolveExhaustive(instance, view, *objective, full).value();
    EXPECT_EQ(a.selected, b.selected) << objective->name();
    EXPECT_NEAR(a.jq, b.jq, 1e-12);
  }
}

TEST(IncrementalEquivalenceTest, SolversSpendFarFewerFullEvaluations) {
  // The instrumentation behind the Fig. 7/9 runtime story: with sessions
  // on, annealing's full (from-scratch) evaluation count collapses — only
  // grid rebuilds remain — while the no-incremental path is all-full.
  Rng rng(90011);
  const auto pool = RandomPool(&rng, 100, 0.4, 0.95, 0.05, 0.4);
  const auto instance = MakeInstance(pool, 1.0);
  const BucketBvObjective objective;

  objective.ResetEvaluationCounters();
  Rng r1(7);
  const WorkerPoolView view(instance.candidates);
  ASSERT_TRUE(SolveAnnealing(instance, view, objective, &r1).ok());
  const EvaluationCounters with_sessions = objective.evaluation_counters();

  objective.ResetEvaluationCounters();
  AnnealingOptions no_inc;
  no_inc.use_incremental = false;
  Rng r2(7);
  ASSERT_TRUE(SolveAnnealing(instance, view, objective, &r2, no_inc).ok());
  const EvaluationCounters without = objective.evaluation_counters();

  EXPECT_EQ(without.incremental, 0u);
  EXPECT_GT(with_sessions.incremental, 0u);
  // >= 5x fewer full evaluations is the acceptance bar; in practice the
  // ratio is far larger (full evals only happen on grid rebuilds).
  EXPECT_LT(with_sessions.full * 5, without.full);
}

// ------------------------------------ thread-count determinism harness

/// Scoped JURYOPT_THREADS override; the solvers resolve the variable on
/// every call, so flipping it between runs exercises the real dispatch.
/// Restores the previous value on destruction — the TSAN CI job runs this
/// binary with JURYOPT_THREADS=4 and later tests must still see it.
class ScopedThreadsEnv {
 public:
  explicit ScopedThreadsEnv(const std::string& value) {
    const char* prev = std::getenv("JURYOPT_THREADS");
    if (prev != nullptr) {
      had_previous_ = true;
      previous_ = prev;
    }
    ::setenv("JURYOPT_THREADS", value.c_str(), 1);
  }
  ~ScopedThreadsEnv() {
    if (had_previous_) {
      ::setenv("JURYOPT_THREADS", previous_.c_str(), 1);
    } else {
      ::unsetenv("JURYOPT_THREADS");
    }
  }

 private:
  bool had_previous_ = false;
  std::string previous_;
};

/// Every parallelized solver must return the same jury — and the same JQ
/// within 1e-12 — for every thread count (the solvers are documented as
/// bit-deterministic in the thread count; this is the property test behind
/// that claim). 24 seeded instances x JURYOPT_THREADS in {1, 2, 8}.
TEST(ThreadDeterminismTest, AllParallelSolversAcrossThreadCounts) {
  Rng rng(77001);
  const BucketBvObjective bucket;
  const MajorityObjective majority;
  const char* kThreadCounts[] = {"1", "2", "8"};
  for (int inst = 0; inst < 24; ++inst) {
    const double budget = rng.Uniform(0.3, 1.0);
    const auto pool = RandomPool(&rng, 12, 0.4, 0.95, 0.05, 0.4);
    const auto instance = MakeInstance(pool, budget);
    const std::uint64_t seed = 8800 + static_cast<std::uint64_t>(inst);
    const WorkerPoolView view(instance.candidates);

    JspSolution ref_sa, ref_greedy, ref_exhaustive, ref_mv_greedy;
    bool have_ref = false;
    for (const char* threads : kThreadCounts) {
      ScopedThreadsEnv env(threads);
      // Multi-restart annealing: 4 chains split from one seed.
      AnnealingOptions sa_opts;
      sa_opts.num_restarts = 4;
      Rng sa_rng(seed);
      const auto sa =
          SolveAnnealing(instance, view, bucket, &sa_rng, sa_opts).value();
      // Greedy marginal-gain: sharded candidate scan, both objectives.
      const auto greedy =
          SolveGreedyMarginalGain(instance, view, bucket, {}).value();
      const auto mv_greedy =
          SolveGreedyMarginalGain(instance, view, majority, {}).value();
      // Exhaustive: partitioned Gray-code sweep.
      const auto exhaustive =
          SolveExhaustive(instance, view, bucket, {}).value();

      if (!have_ref) {
        ref_sa = sa;
        ref_greedy = greedy;
        ref_mv_greedy = mv_greedy;
        ref_exhaustive = exhaustive;
        have_ref = true;
        continue;
      }
      EXPECT_EQ(sa.selected, ref_sa.selected)
          << "annealing, instance " << inst << ", threads " << threads;
      EXPECT_NEAR(sa.jq, ref_sa.jq, 1e-12);
      EXPECT_EQ(greedy.selected, ref_greedy.selected)
          << "greedy, instance " << inst << ", threads " << threads;
      EXPECT_NEAR(greedy.jq, ref_greedy.jq, 1e-12);
      EXPECT_EQ(mv_greedy.selected, ref_mv_greedy.selected)
          << "mv greedy, instance " << inst << ", threads " << threads;
      EXPECT_NEAR(mv_greedy.jq, ref_mv_greedy.jq, 1e-12);
      EXPECT_EQ(exhaustive.selected, ref_exhaustive.selected)
          << "exhaustive, instance " << inst << ", threads " << threads;
      EXPECT_NEAR(exhaustive.jq, ref_exhaustive.jq, 1e-12);
    }
  }
}

TEST(ThreadDeterminismTest, BudgetTableAcrossThreadCounts) {
  Rng pool_rng(77011);
  const auto pool = RandomPool(&pool_rng, 10, 0.5, 0.95, 0.05, 0.4);
  const std::vector<double> budgets{0.2, 0.4, 0.6, 0.8};
  std::vector<BudgetQualityRow> reference;
  for (const char* threads : {"1", "2", "8"}) {
    ScopedThreadsEnv env(threads);
    Rng rng(321);
    const auto rows =
        BuildBudgetQualityTable(pool, budgets, 0.5, &rng).value();
    if (reference.empty()) {
      reference = rows;
      continue;
    }
    ASSERT_EQ(rows.size(), reference.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(rows[i].selected, reference[i].selected)
          << "row " << i << ", threads " << threads;
      EXPECT_NEAR(rows[i].jq, reference[i].jq, 1e-12);
    }
  }
}

TEST(ThreadDeterminismTest, MultiRestartNeverLosesToSingleChainBadly) {
  // Best-of-K is a max over chains that include fresh seeds; across a pool
  // of instances it must at least match a single chain's mean quality.
  Rng rng(77021);
  const BucketBvObjective bucket;
  double single_total = 0.0;
  double multi_total = 0.0;
  for (int inst = 0; inst < 10; ++inst) {
    const auto pool = RandomPool(&rng, 16, 0.4, 0.95, 0.05, 0.4);
    const auto instance = MakeInstance(pool, 0.5);
    Rng r1(42), r2(42);
    AnnealingOptions single;
    const WorkerPoolView view(instance.candidates);
    const auto s = SolveAnnealing(instance, view, bucket, &r1, single).value();
    AnnealingOptions multi;
    multi.num_restarts = 4;
    const auto m = SolveAnnealing(instance, view, bucket, &r2, multi).value();
    single_total += s.jq;
    multi_total += m.jq;
    EXPECT_LE(m.cost, instance.budget + 1e-12);
  }
  EXPECT_GE(multi_total, single_total - 1e-9);
}

TEST(ThreadDeterminismTest, MultiRestartStatsAggregateAllChains) {
  Rng rng(77031);
  const BucketBvObjective bucket;
  const auto pool = RandomPool(&rng, 20, 0.5, 0.95, 0.05, 0.3);
  const auto instance = MakeInstance(pool, 0.5);
  Rng sa_rng(17);
  AnnealingOptions opts;
  opts.num_restarts = 3;
  AnnealingStats stats;
  const WorkerPoolView view(instance.candidates);
  ASSERT_TRUE(
      SolveAnnealing(instance, view, bucket, &sa_rng, opts, &stats).ok());
  // Each chain runs 27 temperature levels of 20 moves (see
  // AnnealingSolverTest.StatsAreConsistent); the aggregate is 3x that.
  EXPECT_EQ(stats.temperature_levels, 3u * 27u);
  EXPECT_EQ(stats.moves_attempted, 3u * 27u * 20u);
  EXPECT_EQ(stats.moves_accepted,
            stats.uphill_accepts + stats.downhill_accepts);
}

// ------------------------------------------------------------ entry check

/// All nine entry points run the same O(1) check before they read the
/// pool: a view that does not cover the instance's candidates, a NaN
/// budget and an out-of-range prior each return InvalidArgument.
TEST(SolveEntryTest, EveryEntryRejectsShortViewsAndBadScalars) {
  const BucketBvObjective bucket;
  const MajorityObjective majority;
  using Entry = std::function<Status(const JspInstance&,
                                     const WorkerPoolView&)>;
  const std::vector<std::pair<std::string, Entry>> entries = {
      {"annealing",
       [&](const JspInstance& i, const WorkerPoolView& v) {
         Rng rng(1);
         return SolveAnnealing(i, v, bucket, &rng).status();
       }},
      {"greedy-quality",
       [&](const JspInstance& i, const WorkerPoolView& v) {
         return SolveGreedyByQuality(i, v, bucket).status();
       }},
      {"greedy-value",
       [&](const JspInstance& i, const WorkerPoolView& v) {
         return SolveGreedyByValuePerCost(i, v, bucket).status();
       }},
      {"odd-top-k",
       [&](const JspInstance& i, const WorkerPoolView& v) {
         return SolveOddTopK(i, v, majority).status();
       }},
      {"greedy-mg",
       [&](const JspInstance& i, const WorkerPoolView& v) {
         return SolveGreedyMarginalGain(i, v, bucket).status();
       }},
      {"exhaustive",
       [&](const JspInstance& i, const WorkerPoolView& v) {
         return SolveExhaustive(i, v, bucket).status();
       }},
      {"branch-bound",
       [&](const JspInstance& i, const WorkerPoolView& v) {
         return SolveBranchAndBound(i, v, bucket).status();
       }},
      {"optjs",
       [&](const JspInstance& i, const WorkerPoolView& v) {
         Rng rng(1);
         return SolveOptjs(i, v, bucket, &rng).status();
       }},
      {"mvjs",
       [&](const JspInstance& i, const WorkerPoolView& v) {
         Rng rng(1);
         return SolveMvjs(i, v, majority, &rng).status();
       }},
  };
  const auto pool = Figure1Workers();
  const JspInstance good = MakeInstance(pool, 10.0);
  const WorkerPoolView view(good.candidates);
  const std::span<const Worker> all(good.candidates);
  const WorkerPoolView short_view(all.first(all.size() - 1));
  JspInstance nan_budget = good;
  nan_budget.budget = std::numeric_limits<double>::quiet_NaN();
  JspInstance bad_alpha = good;
  bad_alpha.alpha = 1.5;
  for (const auto& [name, entry] : entries) {
    EXPECT_TRUE(entry(good, view).ok()) << name;
    EXPECT_EQ(entry(good, short_view).code(), StatusCode::kInvalidArgument)
        << name << ": short view";
    EXPECT_EQ(entry(nan_budget, view).code(), StatusCode::kInvalidArgument)
        << name << ": NaN budget";
    EXPECT_EQ(entry(bad_alpha, view).code(), StatusCode::kInvalidArgument)
        << name << ": alpha 1.5";
  }
}

TEST(MvjsTest, ReportsExactMajorityJq) {
  Rng rng(5103);
  const auto pool = RandomPool(&rng, 10, 0.5, 0.95, 0.05, 0.4);
  const auto instance = MakeInstance(pool, 0.5);
  Rng solver_rng(9);
  const WorkerPoolView view(instance.candidates);
  const auto solution =
      SolveMvjs(instance, view, MajorityObjective(), &solver_rng).value();
  if (!solution.selected.empty()) {
    EXPECT_NEAR(
        solution.jq,
        MajorityJq(solution.ToJury(instance), instance.alpha).value(), 1e-9);
  }
}

}  // namespace
}  // namespace jury

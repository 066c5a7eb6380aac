// Randomized cross-stack invariant checks ("fuzz-lite"): hundreds of random
// model configurations pushed through the whole pipeline, asserting only
// properties that must hold universally. Seeds are fixed, so failures are
// reproducible.

#include <cmath>

#include "gtest/gtest.h"
#include "core/annealing.h"
#include "core/branch_bound.h"
#include "core/exhaustive.h"
#include "core/greedy.h"
#include "core/mvjs.h"
#include "core/objective.h"
#include "core/optjs.h"
#include "jq/bucket.h"
#include "jq/closed_form.h"
#include "jq/exact.h"
#include "strategy/registry.h"
#include "test_util.h"
#include "util/rng.h"

namespace jury {
namespace {

using jury::testing::RandomJury;
using jury::testing::RandomPool;

class FuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(FuzzTest, JqPipelineInvariants) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 2654435761u);
  for (int round = 0; round < 40; ++round) {
    const int n = 1 + static_cast<int>(rng.UniformInt(10));
    // Adversarial quality mix: extremes, coin flips, and regular values.
    std::vector<double> qs;
    for (int i = 0; i < n; ++i) {
      switch (rng.UniformInt(4)) {
        case 0: qs.push_back(rng.Uniform(0.0, 1.0)); break;
        case 1: qs.push_back(0.5); break;
        case 2: qs.push_back(rng.Uniform(0.95, 1.0)); break;
        default: qs.push_back(rng.Uniform(0.45, 0.55)); break;
      }
    }
    const Jury jury = Jury::FromQualities(qs);
    const double alpha = rng.Uniform();

    // Exact JQ for every strategy is a probability, and BV dominates.
    const double bv = ExactJqBv(jury, alpha).value();
    EXPECT_GE(bv, std::max(alpha, 1.0 - alpha) - 1e-9);
    EXPECT_LE(bv, 1.0 + 1e-12);
    for (const auto& s : MakeAllStrategies()) {
      const double jq = ExactJq(jury, *s, alpha).value();
      EXPECT_GE(jq, -1e-12) << s->name();
      EXPECT_LE(jq, bv + 1e-12) << s->name();
    }

    // Bucket estimate: underestimates within its own bound; pruning does
    // not change it.
    BucketJqOptions options;
    options.num_buckets = 1 + static_cast<int>(rng.UniformInt(300));
    options.high_quality_cutoff = 1.0;  // exercise extreme qualities too
    BucketJqStats stats;
    const double approx = EstimateJq(jury, alpha, options, &stats).value();
    EXPECT_LE(approx, bv + 1e-9);
    if (!stats.high_quality_shortcut) {
      EXPECT_LE(bv - approx, stats.error_bound + 1e-9);
    }
    BucketJqOptions flipped = options;
    flipped.enable_pruning = !options.enable_pruning;
    EXPECT_NEAR(approx, EstimateJq(jury, alpha, flipped).value(), 1e-9);
  }
}

TEST_P(FuzzTest, SolverInvariants) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 40503u + 13u);
  for (int round = 0; round < 6; ++round) {
    const int n = 2 + static_cast<int>(rng.UniformInt(9));
    const std::vector<Worker> pool = RandomPool(&rng, n, 0.0, 1.0, 0.0, 0.5);
    JspInstance instance;
    instance.candidates = pool;
    instance.budget = rng.Uniform(0.0, 1.5);
    instance.alpha = rng.Uniform();

    const ExactBvObjective objective;
    const WorkerPoolView view(instance.candidates);
    const auto exhaustive = SolveExhaustive(instance, view, objective).value();
    const auto bb = SolveBranchAndBound(instance, view, objective).value();
    EXPECT_NEAR(bb.jq, exhaustive.jq, 1e-9);

    Rng sa_rng = rng.Fork();
    const auto sa = SolveAnnealing(instance, view, objective, &sa_rng).value();
    EXPECT_LE(sa.cost, instance.budget + 1e-12);
    EXPECT_LE(sa.jq, exhaustive.jq + 1e-9);

    for (const auto& greedy :
         {SolveGreedyByQuality(instance, view, objective).value(),
          SolveGreedyByValuePerCost(instance, view, objective).value(),
          SolveOddTopK(instance, view, objective).value()}) {
      EXPECT_LE(greedy.cost, instance.budget + 1e-12);
      EXPECT_LE(greedy.jq, exhaustive.jq + 1e-9);
    }
  }
}

TEST_P(FuzzTest, SystemsNeverViolateBudgetsOrDominance) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7577u + 101u);
  for (int round = 0; round < 4; ++round) {
    const std::vector<Worker> pool = RandomPool(&rng, 14, 0.3, 0.99, 0.02, 0.4);
    JspInstance instance;
    instance.candidates = pool;
    instance.budget = rng.Uniform(0.1, 1.0);
    instance.alpha = 0.5;
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
    EXPECT_LE(optjs.cost, instance.budget + 1e-12);
    EXPECT_LE(mvjs.cost, instance.budget + 1e-12);
    // Corollary 1 at system level (exhaustive path is exact for N <= 12;
    // N = 14 uses SA + greedy, so allow a small search-noise slack).
    const double optjs_true =
        ExactJqBv(optjs.ToJury(instance), instance.alpha).value();
    const double mvjs_true =
        MajorityJq(mvjs.ToJury(instance), instance.alpha).value();
    EXPECT_GE(optjs_true, mvjs_true - 0.03);
  }
}

TEST_P(FuzzTest, CountingEngineMatchesEnumerationOnRandomRules) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 9901u + 7u);
  for (int round = 0; round < 10; ++round) {
    const int n = 1 + static_cast<int>(rng.UniformInt(8));
    const Jury jury = RandomJury(&rng, n, 0.2, 0.99);
    const double alpha = rng.Uniform();
    std::vector<double> h(static_cast<std::size_t>(n) + 1);
    for (auto& x : h) x = rng.Uniform();

    class RuleStrategy final : public VotingStrategy {
     public:
      explicit RuleStrategy(const std::vector<double>& h) : h_(h) {}
      std::string name() const override { return "RULE"; }
      StrategyKind kind() const override {
        return StrategyKind::kRandomized;
      }
      double ProbZero(const Jury&, const Votes& votes,
                      double) const override {
        return h_[static_cast<std::size_t>(CountZeros(votes))];
      }

     private:
      const std::vector<double>& h_;
    };
    const RuleStrategy rule(h);
    const double exact = ExactJq(jury, rule, alpha).value();
    const double engine =
        CountingStrategyJq(jury, alpha, [&](int z) {
          return h[static_cast<std::size_t>(z)];
        }).value();
    EXPECT_NEAR(engine, exact, 1e-10);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest, ::testing::Range(1, 7));

}  // namespace
}  // namespace jury

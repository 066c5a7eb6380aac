// Lemma 1 (monotonicity in jury size) and Lemma 2 (monotonicity in worker
// quality) for BV, plus their §5 corollaries for special cost structures.

#include <tuple>

#include "gtest/gtest.h"
#include "core/exhaustive.h"
#include "core/greedy.h"
#include "core/jsp.h"
#include "core/objective.h"
#include "jq/bucket.h"
#include "jq/exact.h"
#include "test_util.h"
#include "util/rng.h"

namespace jury {
namespace {

using jury::testing::RandomJury;

class Lemma1Test : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(Lemma1Test, AddingAWorkerNeverDecreasesBvJq) {
  const auto [n, alpha] = GetParam();
  Rng rng(static_cast<std::uint64_t>(n) * 911 +
          static_cast<std::uint64_t>(alpha * 1000));
  for (int trial = 0; trial < 20; ++trial) {
    const Jury jury = RandomJury(&rng, n, 0.5, 0.99);
    const double base = ExactJqBv(jury, alpha).value();
    Jury extended = jury;
    extended.Add({"new", rng.Uniform(0.5, 0.99), 0.0});
    EXPECT_GE(ExactJqBv(extended, alpha).value(), base - 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Lemma1Test,
    ::testing::Combine(::testing::Values(1, 2, 4, 7, 10),
                       ::testing::Values(0.2, 0.5, 0.8)));

TEST(Lemma1Test, HoldsEvenForLowQualityAdditions) {
  // BV flips a q < 0.5 worker into a useful one, so even "bad" workers
  // cannot hurt.
  Rng rng(1009);
  for (int trial = 0; trial < 30; ++trial) {
    const Jury jury = RandomJury(&rng, 5, 0.5, 0.95);
    const double base = ExactJqBv(jury, 0.5).value();
    Jury extended = jury;
    extended.Add({"bad", rng.Uniform(0.01, 0.49), 0.0});
    EXPECT_GE(ExactJqBv(extended, 0.5).value(), base - 1e-12);
  }
}

class Lemma2Test : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(Lemma2Test, RaisingAQualityNeverDecreasesBvJq) {
  const auto [n, alpha] = GetParam();
  Rng rng(static_cast<std::uint64_t>(n) * 7717 +
          static_cast<std::uint64_t>(alpha * 997));
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> qs;
    for (int i = 0; i < n; ++i) qs.push_back(rng.Uniform(0.5, 0.95));
    const Jury jury = Jury::FromQualities(qs);
    const double base = ExactJqBv(jury, alpha).value();
    // Raise one random member's quality.
    auto improved = qs;
    const std::size_t who = static_cast<std::size_t>(
        rng.UniformInt(static_cast<std::uint64_t>(n)));
    improved[who] = rng.Uniform(improved[who], 0.99);
    EXPECT_GE(ExactJqBv(Jury::FromQualities(improved), alpha).value(),
              base - 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Lemma2Test,
    ::testing::Combine(::testing::Values(1, 3, 5, 9),
                       ::testing::Values(0.3, 0.5, 0.7)));

TEST(Lemma2Test, FullQualityLadderIsMonotone) {
  // Sweep one worker's quality across [0.5, 0.99] and require a
  // non-decreasing JQ curve.
  double prev = 0.0;
  for (double q = 0.5; q <= 0.99; q += 0.01) {
    const std::vector<double> qs{0.6, 0.7, 0.8, q};
    const double jq = ExactJqBv(Jury::FromQualities(qs), 0.5).value();
    EXPECT_GE(jq, prev - 1e-12);
    prev = jq;
  }
}

// ---------------------------------------------- §5 corollaries

TEST(CostCorollaryTest, FreeWorkersMeanSelectEveryone) {
  // Lemma 1 corollary: with zero costs the whole pool is optimal.
  Rng rng(2027);
  std::vector<Worker> pool;
  for (int i = 0; i < 8; ++i) {
    pool.emplace_back("w" + std::to_string(i), rng.Uniform(0.5, 0.95), 0.0);
  }
  JspInstance instance;
  instance.candidates = pool;
  instance.budget = 0.0;
  instance.alpha = 0.5;
  const ExactBvObjective objective;
  const WorkerPoolView view(instance.candidates);
  const auto solution = SolveGreedyByQuality(instance, view, objective).value();
  EXPECT_EQ(solution.selected.size(), instance.candidates.size());
}

TEST(CostCorollaryTest, UniformCostsMeanTopKByQuality) {
  // Lemma 2 corollary: with uniform costs the top-k by quality is optimal.
  // Verify greedy-by-quality matches the exhaustive optimum.
  Rng rng(2029);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<Worker> pool;
    for (int i = 0; i < 7; ++i) {
      pool.emplace_back("w" + std::to_string(i), rng.Uniform(0.5, 0.95), 1.0);
    }
    JspInstance instance;
    instance.candidates = pool;
    instance.budget = 3.0;  // exactly three workers affordable
    instance.alpha = 0.5;
    const ExactBvObjective objective;
    const WorkerPoolView view(instance.candidates);
    const auto greedy = SolveGreedyByQuality(instance, view, objective).value();
    const auto exact =
        SolveExhaustive(instance, view, objective).value();
    EXPECT_NEAR(greedy.jq, exact.jq, 1e-9);
  }
}

TEST(MonotonicityTest, BucketEstimatorInheritsLemma1ApproximatelyMild) {
  // The approximation preserves Lemma 1 up to its error bound.
  Rng rng(2039);
  BucketJqOptions options;
  options.num_buckets = 400;
  for (int trial = 0; trial < 20; ++trial) {
    const Jury jury = RandomJury(&rng, 8, 0.5, 0.95);
    BucketJqStats stats;
    const double base = EstimateJq(jury, 0.5, options, &stats).value();
    Jury extended = jury;
    extended.Add({"new", rng.Uniform(0.5, 0.95), 0.0});
    BucketJqStats ext_stats;
    const double grown =
        EstimateJq(extended, 0.5, options, &ext_stats).value();
    EXPECT_GE(grown, base - stats.error_bound - ext_stats.error_bound - 1e-9);
  }
}

}  // namespace
}  // namespace jury

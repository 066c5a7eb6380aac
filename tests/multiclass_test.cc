#include <cmath>
#include <tuple>

#include "gtest/gtest.h"
#include "jq/exact.h"
#include "strategy/bayesian.h"
#include "model/jury.h"
#include "multiclass/bv.h"
#include "multiclass/confusion.h"
#include "multiclass/decompose.h"
#include "multiclass/jq_bucket.h"
#include "multiclass/jq_exact.h"
#include "multiclass/jsp.h"
#include "multiclass/model.h"
#include "multiclass/spammer.h"
#include "util/rng.h"

namespace jury::mc {
namespace {

/// Random row-stochastic confusion matrix with a diagonal boost so workers
/// are (usually) informative.
ConfusionMatrix RandomConfusion(Rng* rng, std::size_t labels,
                                double diagonal_boost = 2.0) {
  ConfusionMatrix cm = ConfusionMatrix::UniformSpammer(labels);
  for (std::size_t j = 0; j < labels; ++j) {
    std::vector<double> row(labels);
    double sum = 0.0;
    for (std::size_t k = 0; k < labels; ++k) {
      row[k] = rng->Uniform(0.05, 1.0) * (j == k ? diagonal_boost : 1.0);
      sum += row[k];
    }
    for (std::size_t k = 0; k < labels; ++k) cm.at(j, k) = row[k] / sum;
  }
  return cm;
}

McJury RandomMcJury(Rng* rng, std::size_t n, std::size_t labels) {
  McJury jury;
  for (std::size_t i = 0; i < n; ++i) {
    jury.Add(McWorker("m" + std::to_string(i), RandomConfusion(rng, labels),
                      0.0));
  }
  return jury;
}

// -------------------------------------------------------------- Confusion

TEST(ConfusionTest, FactoriesValidate) {
  EXPECT_TRUE(ConfusionMatrix::FromQuality(0.8, 3).Validate().ok());
  EXPECT_TRUE(ConfusionMatrix::Identity(4).Validate().ok());
  EXPECT_TRUE(ConfusionMatrix::UniformSpammer(5).Validate().ok());
}

TEST(ConfusionTest, FromQualityEntries) {
  const auto cm = ConfusionMatrix::FromQuality(0.7, 3);
  EXPECT_DOUBLE_EQ(cm(0, 0), 0.7);
  EXPECT_DOUBLE_EQ(cm(0, 1), 0.15);
  EXPECT_DOUBLE_EQ(cm(2, 2), 0.7);
}

TEST(ConfusionTest, RejectsNonStochasticRows) {
  ConfusionMatrix cm(2, {0.5, 0.4, 0.5, 0.5});
  EXPECT_FALSE(cm.Validate().ok());
  ConfusionMatrix negative(2, {1.2, -0.2, 0.5, 0.5});
  EXPECT_FALSE(negative.Validate().ok());
}

TEST(ConfusionTest, RowExtraction) {
  const auto cm = ConfusionMatrix::FromQuality(0.6, 2);
  const auto row = cm.Row(1);
  ASSERT_EQ(row.size(), 2u);
  EXPECT_DOUBLE_EQ(row[0], 0.4);
  EXPECT_DOUBLE_EQ(row[1], 0.6);
}

// ------------------------------------------------------------------- BV

TEST(McBvTest, FollowsTheStrongWorker) {
  McJury jury;
  jury.Add({"strong", ConfusionMatrix::FromQuality(0.95, 3), 0.0});
  jury.Add({"weak", ConfusionMatrix::FromQuality(0.4, 3), 0.0});
  const McPrior prior = UniformMcPrior(3);
  EXPECT_EQ(McBayesianDecide(jury, {2, 0}, prior).value(), 2u);
}

TEST(McBvTest, PriorBreaksTies) {
  McJury jury;
  jury.Add({"spam", ConfusionMatrix::UniformSpammer(3), 0.0});
  const McPrior prior{0.2, 0.5, 0.3};
  EXPECT_EQ(McBayesianDecide(jury, {0}, prior).value(), 1u);
}

TEST(McBvTest, UniformEverythingPicksSmallestLabel) {
  McJury jury;
  jury.Add({"spam", ConfusionMatrix::UniformSpammer(4), 0.0});
  EXPECT_EQ(McBayesianDecide(jury, {3}, UniformMcPrior(4)).value(), 0u);
}

TEST(McBvTest, BinaryCaseMatchesScalarBv) {
  // l = 2 with symmetric confusion == the §2 binary model; decisions must
  // coincide with the binary BayesianVoting on every voting.
  Rng rng(3);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t n = 1 + rng.UniformInt(5);
    std::vector<double> qs;
    McJury mc_jury;
    for (std::size_t i = 0; i < n; ++i) {
      const double q = rng.Uniform(0.3, 0.97);
      qs.push_back(q);
      mc_jury.Add({"w", ConfusionMatrix::FromQuality(q, 2), 0.0});
    }
    const Jury bin_jury = Jury::FromQualities(qs);
    const double alpha = rng.Uniform(0.1, 0.9);
    const McPrior prior{alpha, 1.0 - alpha};
    jury::BayesianVoting bv;
    for (std::uint64_t mask = 0; mask < (1ull << n); ++mask) {
      McVotes mc_votes(n);
      Votes bin_votes(n);
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t v = (mask >> i) & 1u;
        mc_votes[i] = v;
        bin_votes[i] = static_cast<std::uint8_t>(v);
      }
      const std::size_t mc_result =
          McBayesianDecide(mc_jury, mc_votes, prior).value();
      const int bin_result =
          bv.ProbZero(bin_jury, bin_votes, alpha) >= 1.0 ? 0 : 1;
      EXPECT_EQ(mc_result, static_cast<std::size_t>(bin_result));
    }
  }
}

// ------------------------------------------------------------------- JQ

TEST(McJqTest, BinaryCaseMatchesScalarExactJq) {
  Rng rng(5);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t n = 1 + rng.UniformInt(6);
    std::vector<double> qs;
    McJury mc_jury;
    for (std::size_t i = 0; i < n; ++i) {
      const double q = rng.Uniform(0.3, 0.97);
      qs.push_back(q);
      mc_jury.Add({"w", ConfusionMatrix::FromQuality(q, 2), 0.0});
    }
    const double alpha = rng.Uniform(0.1, 0.9);
    const double mc_jq =
        ExactMcJq(mc_jury, {alpha, 1.0 - alpha}).value();
    const double bin_jq =
        ExactJqBv(Jury::FromQualities(qs), alpha).value();
    EXPECT_NEAR(mc_jq, bin_jq, 1e-10);
  }
}

TEST(McJqTest, SpammersGiveBestPriorMass) {
  McJury jury;
  jury.Add({"spam", ConfusionMatrix::UniformSpammer(3), 0.0});
  jury.Add({"spam2", ConfusionMatrix::UniformSpammer(3), 0.0});
  const McPrior prior{0.5, 0.3, 0.2};
  EXPECT_NEAR(ExactMcJq(jury, prior).value(), 0.5, 1e-10);
}

TEST(McJqTest, PerfectWorkerGivesOne) {
  McJury jury;
  jury.Add({"oracle", ConfusionMatrix::Identity(4), 0.0});
  EXPECT_NEAR(ExactMcJq(jury, UniformMcPrior(4)).value(), 1.0, 1e-9);
}

TEST(McJqTest, GuardsHugeEnumerations) {
  McJury jury;
  for (int i = 0; i < 30; ++i) {
    jury.Add({"w", ConfusionMatrix::FromQuality(0.8, 4), 0.0});
  }
  EXPECT_EQ(ExactMcJq(jury, UniformMcPrior(4)).status().code(),
            StatusCode::kOutOfRange);
}

class McBucketAgreementTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t, int>> {};

TEST_P(McBucketAgreementTest, BucketedTracksExact) {
  const auto [n, labels, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 60013 +
          static_cast<std::uint64_t>(n * 17 + labels));
  const McJury jury = RandomMcJury(&rng, n, labels);
  // Random informative prior.
  McPrior prior(labels);
  double sum = 0.0;
  for (auto& p : prior) {
    p = rng.Uniform(0.1, 1.0);
    sum += p;
  }
  for (auto& p : prior) p /= sum;

  const double exact = ExactMcJq(jury, prior).value();
  McBucketOptions options;
  options.num_buckets = 256;
  McBucketStats stats;
  const double approx = EstimateMcJq(jury, prior, options, &stats).value();
  EXPECT_NEAR(approx, exact, 0.02)
      << "n=" << n << " labels=" << labels;
  EXPECT_GT(stats.max_keys, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, McBucketAgreementTest,
    ::testing::Combine(::testing::Values(1u, 2u, 4u, 6u),
                       ::testing::Values(2u, 3u, 4u),
                       ::testing::Values(1, 2)));

TEST(McBucketTest, MoreBucketsMoreAccuracy) {
  Rng rng(31);
  const McJury jury = RandomMcJury(&rng, 5, 3);
  const McPrior prior = UniformMcPrior(3);
  const double exact = ExactMcJq(jury, prior).value();
  double coarse_err = 0.0, fine_err = 0.0;
  {
    McBucketOptions o;
    o.num_buckets = 8;
    coarse_err = std::fabs(EstimateMcJq(jury, prior, o).value() - exact);
  }
  {
    McBucketOptions o;
    o.num_buckets = 1024;
    fine_err = std::fabs(EstimateMcJq(jury, prior, o).value() - exact);
  }
  EXPECT_LE(fine_err, coarse_err + 1e-9);
  EXPECT_LT(fine_err, 5e-3);
}

TEST(McJqTest, Lemma1ExtendsToMulticlass) {
  // §7: "the more workers, the better JQ" still holds.
  Rng rng(37);
  for (int trial = 0; trial < 15; ++trial) {
    const McJury jury = RandomMcJury(&rng, 3, 3);
    const McPrior prior = UniformMcPrior(3);
    const double base = ExactMcJq(jury, prior).value();
    McJury bigger = jury;
    bigger.Add({"extra", RandomConfusion(&rng, 3), 0.0});
    EXPECT_GE(ExactMcJq(bigger, prior).value(), base - 1e-10);
  }
}

// -------------------------------------------------------------- Spammer

TEST(SpammerTest, KnownScores) {
  EXPECT_NEAR(SpammerScore(ConfusionMatrix::UniformSpammer(3)).value(), 0.0,
              1e-12);
  EXPECT_NEAR(SpammerScore(ConfusionMatrix::Identity(3)).value(), 1.0,
              1e-12);
  // Binary symmetric worker: |2q - 1| (Raykar-Yu).
  for (double q : {0.5, 0.6, 0.8, 0.95}) {
    EXPECT_NEAR(SpammerScore(ConfusionMatrix::FromQuality(q, 2)).value(),
                std::fabs(2.0 * q - 1.0), 1e-12);
  }
}

TEST(SpammerTest, RankingPutsSpammersLast) {
  McJury jury;
  jury.Add({"spam", ConfusionMatrix::UniformSpammer(3), 0.0});
  jury.Add({"good", ConfusionMatrix::FromQuality(0.9, 3), 0.0});
  jury.Add({"ok", ConfusionMatrix::FromQuality(0.7, 3), 0.0});
  const auto order = RankWorkersByInformativeness(jury).value();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 1u);
  EXPECT_EQ(order[1], 2u);
  EXPECT_EQ(order[2], 0u);
}

// ------------------------------------------------------------ Decompose

TEST(DecomposeTest, BinaryProjectionsAreConsistent) {
  McJury jury;
  jury.Add({"w", ConfusionMatrix::FromQuality(0.8, 3), 0.0});
  const McPrior prior{0.5, 0.3, 0.2};
  const auto projections = DecomposeToBinary(jury, prior).value();
  ASSERT_EQ(projections.size(), 3u);
  for (const auto& p : projections) {
    EXPECT_DOUBLE_EQ(p.alpha, prior[p.label]);
    ASSERT_EQ(p.workers.size(), 1u);
    EXPECT_GT(p.workers[0].quality, 0.5);
    EXPECT_LE(p.workers[0].quality, 1.0);
  }
  // For the symmetric worker: Pr(correct on "is it 0?") =
  // 0.5*0.8 + (0.3+0.2)*(1-0.1) = 0.85.
  EXPECT_NEAR(projections[0].workers[0].quality, 0.85, 1e-12);
}

TEST(DecomposeTest, PerfectWorkerProjectsToPerfectBinaryWorkers) {
  McJury jury;
  jury.Add({"oracle", ConfusionMatrix::Identity(3), 0.0});
  const auto projections =
      DecomposeToBinary(jury, UniformMcPrior(3)).value();
  for (const auto& p : projections) {
    EXPECT_NEAR(p.workers[0].quality, 1.0, 1e-9);
  }
}

// ------------------------------------------------------------------ JSP

TEST(McJspTest, AnnealingRespectsBudgetAndFindsGoodJuries) {
  Rng rng(41);
  McJspInstance instance;
  instance.budget = 2.0;
  instance.prior = UniformMcPrior(3);
  for (int i = 0; i < 8; ++i) {
    instance.candidates.emplace_back("c" + std::to_string(i),
                                     RandomConfusion(&rng, 3),
                                     rng.Uniform(0.4, 1.2));
  }
  Rng sa_rng(5);
  const auto sa = SolveMcAnnealing(instance, &sa_rng).value();
  EXPECT_LE(sa.cost, instance.budget + 1e-12);

  const auto exact = SolveMcExhaustive(instance).value();
  EXPECT_LE(exact.cost, instance.budget + 1e-12);
  EXPECT_GE(sa.jq, exact.jq - 0.05);
}

TEST(McJspTest, EmptyBudgetFallsBackToPrior) {
  Rng rng(43);
  McJspInstance instance;
  instance.budget = 0.0;
  instance.prior = {0.6, 0.25, 0.15};
  instance.candidates.emplace_back("c", RandomConfusion(&rng, 3), 1.0);
  Rng sa_rng(7);
  const auto solution = SolveMcAnnealing(instance, &sa_rng).value();
  EXPECT_TRUE(solution.selected.empty());
  EXPECT_DOUBLE_EQ(solution.jq, 0.6);
}

TEST(McJspTest, ValidatesInstances) {
  McJspInstance bad;
  bad.budget = -1.0;
  bad.prior = UniformMcPrior(2);
  Rng rng(1);
  EXPECT_FALSE(SolveMcAnnealing(bad, &rng).ok());
  McJspInstance mixed;
  mixed.budget = 1.0;
  mixed.prior = UniformMcPrior(2);
  mixed.candidates.emplace_back("a", ConfusionMatrix::FromQuality(0.8, 2),
                                0.1);
  mixed.candidates.emplace_back("b", ConfusionMatrix::FromQuality(0.8, 3),
                                0.1);
  EXPECT_FALSE(SolveMcAnnealing(mixed, &rng).ok());
}

}  // namespace
}  // namespace jury::mc

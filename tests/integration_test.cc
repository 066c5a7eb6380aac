// Cross-module, end-to-end scenarios: the full OPTJS pipeline from worker
// pool to verified decision quality, including the Fig. 10(d) claim that JQ
// predicts realized accuracy.

#include "gtest/gtest.h"
#include "core/budget_table.h"
#include "core/mvjs.h"
#include "core/optjs.h"
#include "crowd/estimators.h"
#include "crowd/pool.h"
#include "crowd/sentiment.h"
#include "crowd/vote_sim.h"
#include "jq/bucket.h"
#include "strategy/bayesian.h"
#include "util/rng.h"
#include "util/stats.h"

namespace jury {
namespace {

TEST(IntegrationTest, JqPredictsRealizedAccuracy) {
  // Select a jury, then actually run the crowd many times: the empirical
  // accuracy of BV's decisions must match the predicted JQ (Fig. 10(d)).
  Rng rng(101);
  crowd::PoolConfig pool_config;
  pool_config.num_workers = 20;
  const auto pool = crowd::GeneratePool(pool_config, &rng).value();

  JspInstance instance;
  instance.candidates = pool;
  instance.budget = 0.5;
  instance.alpha = 0.5;
  Rng solver_rng(7);
  const WorkerPoolView view(instance.candidates);
  const auto solution =
      SolveOptjs(instance, view, BucketBvObjective(), &solver_rng).value();
  ASSERT_FALSE(solution.selected.empty());
  const Jury jury = solution.ToJury(instance);

  const BayesianVoting bv;
  Rng world(31);
  int correct = 0;
  const int trials = 40000;
  for (int i = 0; i < trials; ++i) {
    const int truth = crowd::SampleTruth(instance.alpha, &world);
    const Votes votes = crowd::SimulateVotes(jury, truth, &world);
    correct += (bv.Decide(jury, votes, instance.alpha, &world) == truth);
  }
  const double accuracy = static_cast<double>(correct) / trials;
  EXPECT_NEAR(accuracy, solution.jq, 0.015);
}

TEST(IntegrationTest, EndToEndSyntheticComparisonFavorsOptjs) {
  // One point of Fig. 6: default parameters, averaged over repetitions.
  Rng rng(103);
  OnlineStats optjs_jq, mvjs_jq;
  for (int rep = 0; rep < 8; ++rep) {
    crowd::PoolConfig config;
    config.num_workers = 25;
    Rng pool_rng = rng.Fork();
    const auto pool = crowd::GeneratePool(config, &pool_rng).value();
    JspInstance instance;
    instance.candidates = pool;
    instance.budget = 0.5;
    instance.alpha = 0.5;
    Rng r1 = rng.Fork();
    Rng r2 = rng.Fork();
    const WorkerPoolView view(instance.candidates);
    optjs_jq.Add(
        SolveOptjs(instance, view, BucketBvObjective(), &r1).value().jq);
    mvjs_jq.Add(SolveMvjs(instance, view, MajorityObjective(), &r2).value().jq);
  }
  EXPECT_GE(optjs_jq.mean(), mvjs_jq.mean());
}

TEST(IntegrationTest, SentimentDatasetDrivesJsp) {
  // The §6.2.2 protocol in miniature: per-question candidate sets from the
  // simulated AMT campaign, solved under a budget with synthetic costs.
  Rng rng(107);
  const auto dataset =
      crowd::MakeSentimentDataset(crowd::SentimentConfig{}, &rng).value();

  OnlineStats jq_stats;
  for (std::size_t q = 0; q < 25; ++q) {  // a slice of the 600 questions
    const auto& task = dataset.campaign.tasks[q];
    std::vector<Worker> pool;
    for (const auto& answer : task.answers) {
      pool.emplace_back("w" + std::to_string(answer.worker),
                        dataset.estimated_quality[answer.worker],
                        rng.TruncatedGaussian(0.05, 0.2, 0.01, 1e9));
    }
    JspInstance instance;
    instance.candidates = pool;
    instance.budget = 0.5;
    instance.alpha = 0.5;
    Rng solver_rng = rng.Fork();
    const WorkerPoolView view(instance.candidates);
    const auto solution =
        SolveOptjs(instance, view, BucketBvObjective(), &solver_rng).value();
    EXPECT_LE(solution.cost, instance.budget + 1e-12);
    jq_stats.Add(solution.jq);
  }
  // Selected juries should be informative: mean JQ well above a coin flip.
  EXPECT_GT(jq_stats.mean(), 0.75);
}

TEST(IntegrationTest, BudgetTableIsActionable) {
  // The Fig. 1 user journey: build the table, pick the knee, verify the
  // selected jury's predicted quality holds up in simulation.
  Rng rng(109);
  crowd::PoolConfig config;
  config.num_workers = 15;
  Rng pool_rng(113);
  const auto pool = crowd::GeneratePool(config, &pool_rng).value();
  const auto rows =
      BuildBudgetQualityTable(pool, {0.2, 0.4, 0.6, 0.8}, 0.5, &rng).value();
  ASSERT_EQ(rows.size(), 4u);
  for (std::size_t i = 1; i < rows.size(); ++i) {
    EXPECT_GE(rows[i].jq, rows[i - 1].jq - 1e-9);
  }
}

TEST(IntegrationTest, EstimatedQualitiesAreGoodEnoughForSelection) {
  // Quality estimation noise (empirical estimator) should not destroy the
  // selection: juries chosen with estimated qualities perform close to
  // juries chosen with the latent truth.
  Rng rng(127);
  crowd::CampaignConfig config;
  config.num_tasks = 200;
  config.tasks_per_hit = 20;
  config.assignments_per_hit = 10;
  config.num_workers = 10;
  std::vector<double> latent;
  for (int i = 0; i < 10; ++i) latent.push_back(rng.Uniform(0.55, 0.95));
  const std::vector<int> quota(10, 10);
  const auto campaign =
      crowd::SimulateCampaign(config, latent, quota, &rng).value();
  const auto estimated = crowd::EstimateQualitiesEmpirical(campaign).value();

  auto make_pool = [](const std::vector<double>& qs) {
    std::vector<Worker> pool;
    for (int i = 0; i < 10; ++i) {
      pool.emplace_back("w" + std::to_string(i),
                        qs[static_cast<std::size_t>(i)], 0.05 + 0.01 * i);
    }
    return pool;
  };
  auto make_instance = [](const std::vector<Worker>& pool) {
    JspInstance instance;
    instance.candidates = pool;
    instance.budget = 0.3;
    instance.alpha = 0.5;
    return instance;
  };
  const std::vector<Worker> latent_pool = make_pool(latent);
  const std::vector<Worker> estimated_pool = make_pool(estimated);
  const auto latent_instance = make_instance(latent_pool);
  const auto estimated_instance = make_instance(estimated_pool);
  const WorkerPoolView latent_view(latent_pool);
  const WorkerPoolView estimated_view(estimated_pool);
  const BucketBvObjective objective;
  Rng r1(1), r2(1);
  const auto with_latent =
      SolveOptjs(latent_instance, latent_view, objective, &r1).value();
  const auto with_estimate =
      SolveOptjs(estimated_instance, estimated_view, objective, &r2).value();
  // Evaluate BOTH selections under the latent qualities.
  JspSolution estimate_as_latent = with_estimate;
  const double jq_latent_selection =
      EstimateJq(with_latent.ToJury(latent_instance), 0.5).value();
  const double jq_estimate_selection =
      EstimateJq(estimate_as_latent.ToJury(latent_instance), 0.5).value();
  EXPECT_NEAR(jq_estimate_selection, jq_latent_selection, 0.08);
}

}  // namespace
}  // namespace jury

// The README promises: "All randomness flows through explicitly-seeded
// jury::Rng, so every experiment is reproducible bit-for-bit." This suite
// holds every stochastic component to that promise.

#include "gtest/gtest.h"
#include "core/annealing.h"
#include "core/mvjs.h"
#include "core/objective.h"
#include "core/optjs.h"
#include "core/sequential.h"
#include "crowd/pool.h"
#include "crowd/sentiment.h"
#include "crowd/vote_sim.h"
#include "jq/monte_carlo.h"
#include "strategy/registry.h"
#include "test_util.h"
#include "util/rng.h"

namespace jury {
namespace {

using jury::testing::RandomPool;

template <typename F>
void ExpectSameTwice(F run) {
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a, b);
}

TEST(DeterminismTest, CampaignSimulation) {
  crowd::CampaignConfig config;
  config.num_tasks = 40;
  config.tasks_per_hit = 20;
  config.assignments_per_hit = 4;
  config.num_workers = 6;
  const std::vector<double> quality(6, 0.75);
  const std::vector<int> quota{2, 2, 1, 1, 1, 1};
  ExpectSameTwice([&] {
    Rng rng(321);
    const auto campaign =
        crowd::SimulateCampaign(config, quality, quota, &rng).value();
    std::vector<int> flat;
    for (const auto& task : campaign.tasks) {
      flat.push_back(task.truth);
      for (const auto& a : task.answers) {
        flat.push_back(static_cast<int>(a.worker));
        flat.push_back(a.vote);
      }
    }
    return flat;
  });
}

TEST(DeterminismTest, SentimentDataset) {
  ExpectSameTwice([&] {
    Rng rng(777);
    const auto dataset =
        crowd::MakeSentimentDataset(crowd::SentimentConfig{}, &rng).value();
    return dataset.estimated_quality;
  });
}

TEST(DeterminismTest, AnnealingSolver) {
  Rng pool_rng(99);
  const std::vector<Worker> pool =
      RandomPool(&pool_rng, 20, 0.5, 0.95, 0.05, 0.3);
  const WorkerPoolView view(pool);
  JspInstance instance;
  instance.pool = &view;
  instance.budget = 0.5;
  instance.alpha = 0.5;
  const BucketBvObjective objective;
  ExpectSameTwice([&] {
    Rng rng(4242);
    return SolveAnnealing(instance, view, objective, &rng).value().selected;
  });
}

TEST(DeterminismTest, FullSystems) {
  Rng pool_rng(101);
  const std::vector<Worker> pool =
      RandomPool(&pool_rng, 16, 0.5, 0.95, 0.05, 0.3);
  const WorkerPoolView view(pool);
  JspInstance instance;
  instance.pool = &view;
  instance.budget = 0.5;
  instance.alpha = 0.5;
  const BucketBvObjective bucket;
  const MajorityObjective majority;
  ExpectSameTwice([&] {
    Rng rng(555);
    return SolveOptjs(instance, view, bucket, &rng).value().selected;
  });
  ExpectSameTwice([&] {
    Rng rng(556);
    return SolveMvjs(instance, view, majority, &rng).value().selected;
  });
}

TEST(DeterminismTest, MonteCarloJq) {
  Rng pool_rng(7);
  const Jury jury =
      Jury::FromQualities({0.6, 0.7, 0.8, 0.65, 0.72, 0.9});
  auto bv = MakeStrategy("BV").value();
  double first = 0.0;
  for (int i = 0; i < 2; ++i) {
    Rng rng(888);
    const double jq = MonteCarloJq(jury, *bv, 0.5, 20000, &rng).value();
    if (i == 0) first = jq;
    EXPECT_DOUBLE_EQ(jq, first);
  }
}

TEST(DeterminismTest, SequentialPolicyWithSimulatedVotes) {
  std::vector<Worker> stream(12, Worker("w", 0.7, 0.05));
  ExpectSameTwice([&] {
    Rng rng(31415);
    const int truth = crowd::SampleTruth(0.5, &rng);
    SequentialConfig config;
    config.confidence_threshold = 0.93;
    const auto outcome =
        RunSequentialPolicy(
            stream,
            [&](const Worker& w, std::size_t) {
              return crowd::SimulateVote(w.quality, truth, &rng);
            },
            config)
            .value();
    return std::make_tuple(outcome.answer, outcome.votes_used,
                           outcome.spent);
  });
}

TEST(DeterminismTest, ForkedStreamsAreStableButDistinct) {
  Rng a(2026), b(2026);
  Rng fa = a.Fork();
  Rng fb = b.Fork();
  // Forks of identically-seeded parents match each other...
  for (int i = 0; i < 16; ++i) EXPECT_EQ(fa.Next(), fb.Next());
  // ...but differ from their parents' continued streams.
  Rng c(2026);
  Rng fc = c.Fork();
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (c.Next() == fc.Next());
  EXPECT_LT(same, 4);
}

}  // namespace
}  // namespace jury

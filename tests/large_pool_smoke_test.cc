// Large-pool smoke: a 100k-worker pool must plan, snapshot-round-trip,
// and solve with frontier pre-selection bit-identical to the full scan —
// the CI-scale version of the million-worker serving path (bench_pool
// covers the 1e6 numbers; this keeps the path exercised on every test
// run).

#include <cstdio>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "api/solve.h"
#include "core/frontier.h"
#include "core/greedy.h"
#include "core/objective.h"
#include "model/pool_snapshot.h"
#include "model/sharded_pool.h"
#include "model/worker_pool_view.h"
#include "util/rng.h"

namespace jury {
namespace {

constexpr std::size_t kPoolSize = 100'000;

std::vector<Worker> LargePool() {
  Rng rng(20150323);
  std::vector<Worker> workers;
  workers.reserve(kPoolSize);
  for (std::size_t i = 0; i < kPoolSize; ++i) {
    workers.emplace_back("w" + std::to_string(i), rng.Uniform(0.0, 1.0),
                         rng.Uniform(0.01, 0.1));
  }
  return workers;
}

TEST(LargePoolSmokeTest, SnapshotRoundTripAndFrontierSolve) {
  const std::vector<Worker> workers = LargePool();
  const WorkerPoolView view(workers);

  // Snapshot round trip at scale: write, map back, adopt into a plan.
  const char* dir = std::getenv("TMPDIR");
  const std::string path =
      std::string(dir != nullptr && dir[0] != '\0' ? dir : "/tmp") +
      "/juryopt_large_pool_smoke.snap";
  ASSERT_TRUE(PoolSnapshot::Write(path, workers, view).ok());
  auto loaded = PoolSnapshot::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  ASSERT_EQ(loaded.value().size(), kPoolSize);
  for (const std::size_t i :
       {std::size_t{0}, std::size_t{4999}, kPoolSize - 1}) {
    EXPECT_EQ(loaded.value().id(i), workers[i].id);
    EXPECT_EQ(loaded.value().quality()[i], workers[i].quality);
    EXPECT_EQ(loaded.value().cost()[i], workers[i].cost);
  }

  auto plan = api::PoolPlanContext::PlanFromSnapshot(std::move(loaded).value());
  std::remove(path.c_str());
  ASSERT_TRUE(plan.ok()) << plan.status().message();
  EXPECT_EQ(plan.value().num_candidates(), kPoolSize);
  EXPECT_STREQ(plan.value().pool_source(), "snapshot");

  // The plan's lazily built shard index covers the whole pool.
  const ShardedWorkerPool* sharded = plan.value().sharded_pool();
  ASSERT_NE(sharded, nullptr);
  EXPECT_EQ(sharded->size(), kPoolSize);
  std::size_t covered = 0;
  for (std::size_t s = 0; s < sharded->num_shards(); ++s) {
    covered += sharded->shard(s).population();
  }
  EXPECT_EQ(covered, kPoolSize);

  // Frontier solve vs full scan on the core seam, budget sized for a
  // ~15-member jury so the full scan does real per-round work.
  JspInstance instance;
  instance.candidates = workers;
  instance.budget = 0.75;
  instance.alpha = 0.5;
  const BucketBvObjective objective{BucketJqOptions{}};

  GreedyOptions full_options;
  const auto full =
      SolveGreedyMarginalGain(instance, view, objective, full_options);
  ASSERT_TRUE(full.ok());
  ASSERT_FALSE(full.value().selected.empty());

  GreedyOptions frontier_options;
  frontier_options.frontier_k = FrontierOptions{}.k;
  frontier_options.sharded_pool = sharded;
  FrontierScanStats stats;
  frontier_options.frontier_stats = &stats;
  JspInstance snapshot_instance;
  // Materializes the snapshot's AoS records for the instance
  // (`MakeSolution` sums the winner's cost from `instance.candidates`).
  snapshot_instance.candidates = plan.value().candidates();
  snapshot_instance.budget = instance.budget;
  snapshot_instance.alpha = instance.alpha;
  const auto frontier = SolveGreedyMarginalGain(
      snapshot_instance, plan.value().view(), objective, frontier_options);
  ASSERT_TRUE(frontier.ok());
  EXPECT_EQ(frontier.value().selected, full.value().selected);
  EXPECT_EQ(frontier.value().jq, full.value().jq);
  EXPECT_EQ(frontier.value().cost, full.value().cost);
  EXPECT_GT(stats.candidates_scanned, 0u);
  // At this scale the slates must prune the vast majority of candidates.
  const double scanned_per_scan =
      static_cast<double>(stats.candidates_scanned) /
      static_cast<double>(stats.scans);
  EXPECT_LT(scanned_per_scan, static_cast<double>(kPoolSize) / 10.0);
}

}  // namespace
}  // namespace jury

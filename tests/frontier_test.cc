// Property tests for candidate-frontier pre-selection: exact mode must be
// bit-identical to the full O(N) scan — same selected indices, same jq
// double, same cost — for every objective with a monotone score key,
// across shard sizes, slate depths, thread counts, and SIMD levels. The
// lossy consumers (annealing polish ordering, branch-and-bound ordering)
// must stay within their documented quality contracts.

#include <cstddef>
#include <vector>

#include "gtest/gtest.h"
#include "core/annealing.h"
#include "core/branch_bound.h"
#include "core/frontier.h"
#include "core/greedy.h"
#include "core/objective.h"
#include "model/sharded_pool.h"
#include "model/worker_pool_view.h"
#include "test_util.h"
#include "util/rng.h"
#include "util/simd_dispatch.h"

namespace jury {
namespace {

using jury::testing::RandomPool;

class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(simd::Level level)
      : previous_(simd::ActiveLevel()), ok_(simd::SetLevel(level)) {}
  ~ScopedSimdLevel() { simd::SetLevel(previous_); }
  bool ok() const { return ok_; }

 private:
  simd::Level previous_;
  bool ok_;
};

std::vector<simd::Level> TestableLevels() {
  std::vector<simd::Level> levels = {simd::Level::kScalar};
  if (simd::Avx2Available()) levels.push_back(simd::Level::kAvx2);
  return levels;
}

std::vector<Worker> MakePool(Rng* rng, int n) {
  return RandomPool(rng, n, 0.0, 1.0, 0.01, 0.5);
}

JspInstance MakeInstance(CandidateSpan workers, double budget) {
  JspInstance instance;
  instance.candidates = workers;
  instance.budget = budget;
  instance.alpha = 0.5;
  return instance;
}

TEST(FrontierTest, GreedyMarginalGainExactModeIsBitIdentical) {
  Rng rng(8801);
  const std::vector<Worker> workers = MakePool(&rng, 600);
  const JspInstance instance = MakeInstance(workers, 1.0);
  const WorkerPoolView view(instance.candidates);
  const BucketBvObjective bv{BucketJqOptions{}};
  const MajorityObjective mv;

  GreedyOptions full_options;
  for (const simd::Level level : TestableLevels()) {
    ScopedSimdLevel scoped(level);
    ASSERT_TRUE(scoped.ok());
    for (const JqObjective* objective :
         std::initializer_list<const JqObjective*>{&bv, &mv}) {
      const auto full =
          SolveGreedyMarginalGain(instance, view, *objective, full_options);
      ASSERT_TRUE(full.ok());
      for (const std::size_t shard_size :
           {std::size_t{16}, std::size_t{64}, instance.candidates.size()}) {
        for (const std::size_t k : {std::size_t{2}, std::size_t{8}}) {
          for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
            ShardedPoolOptions pool_options;
            pool_options.shard_size = shard_size;
            pool_options.slate_k = 16;
            const ShardedWorkerPool pool(&view, pool_options);
            GreedyOptions options;
            options.num_threads = threads;
            options.frontier_k = k;
            options.sharded_pool = &pool;
            FrontierScanStats stats;
            options.frontier_stats = &stats;
            const auto frontier =
                SolveGreedyMarginalGain(instance, view, *objective, options);
            ASSERT_TRUE(frontier.ok());
            EXPECT_EQ(frontier.value().selected, full.value().selected)
                << objective->name() << " shard=" << shard_size << " k=" << k
                << " threads=" << threads
                << " simd=" << simd::LevelName(level);
            EXPECT_EQ(frontier.value().jq, full.value().jq);
            EXPECT_EQ(frontier.value().cost, full.value().cost);
            EXPECT_GT(stats.scans, 0u);
          }
        }
      }
    }
  }
}

TEST(FrontierTest, SelectAddMatchesFullScanArgmaxUnderPruning) {
  // Direct seam check: FrontierSelectAdd vs a frontier scan forced to the
  // full-pool shard (shard_size = n, slate covers everything = a full
  // scan). With small slates and exact mode the pick must agree bit for
  // bit, and on these smooth random pools some scans should retain
  // pruning (the proof doing real work at least once).
  Rng rng(8803);
  const std::vector<Worker> workers = MakePool(&rng, 512);
  const JspInstance instance = MakeInstance(workers, 0.4);
  const WorkerPoolView view(instance.candidates);
  const BucketBvObjective objective{BucketJqOptions{}};
  auto session = objective.StartSession(view, instance.alpha, true);
  ASSERT_NE(session, nullptr);

  ShardedPoolOptions small_options;
  small_options.shard_size = 32;
  small_options.slate_k = 4;
  const ShardedWorkerPool small(&view, small_options);
  ShardedPoolOptions whole_options;
  whole_options.shard_size = instance.candidates.size();
  whole_options.slate_k = instance.candidates.size();
  const ShardedWorkerPool whole(&view, whole_options);

  std::vector<char> excluded(instance.candidates.size(), 0);
  FrontierOptions pruned_scan;
  pruned_scan.k = 4;
  FrontierOptions full_scan;
  full_scan.k = instance.candidates.size();
  FrontierScanStats stats;
  const auto key = ShardedWorkerPool::KeyColumn::kNormQuality;

  double jury_cost = 0.0;
  for (int round = 0; round < 8; ++round) {
    const FrontierPick pruned =
        FrontierSelectAdd(*session, small, key, excluded, jury_cost,
                          instance.budget, pruned_scan, &stats);
    const FrontierPick full =
        FrontierSelectAdd(*session, whole, key, excluded, jury_cost,
                          instance.budget, full_scan, nullptr);
    ASSERT_EQ(pruned.found, full.found) << "round " << round;
    if (!full.found) break;
    EXPECT_TRUE(pruned.exact_proven) << "round " << round;
    EXPECT_EQ(pruned.best_index, full.best_index) << "round " << round;
    EXPECT_EQ(pruned.best_score, full.best_score) << "round " << round;
    excluded[full.best_index] = 1;
    jury_cost += view.cost()[full.best_index];
    session->CommitAdd(full.best_index, full.best_score);
  }
  EXPECT_GT(stats.candidates_scanned, 0u);
  EXPECT_GT(stats.exactness_proofs, 0u) << "pruning never held";
}

TEST(FrontierTest, AnnealingPolishIdenticalWithFrontier) {
  // The polish's adds pass uses the frontier in exact mode, so a polished
  // annealing solve must return the identical jury with and without the
  // sharded pool wired (same seed, same trajectory).
  Rng rng_base(8805);
  const std::vector<Worker> workers = MakePool(&rng_base, 300);
  const JspInstance instance = MakeInstance(workers, 0.8);
  const WorkerPoolView view(instance.candidates);
  const BucketBvObjective objective{BucketJqOptions{}};
  ShardedPoolOptions pool_options;
  pool_options.shard_size = 64;
  pool_options.slate_k = 16;
  const ShardedWorkerPool pool(&view, pool_options);

  Rng rng_full(424242);
  AnnealingOptions full_options;
  const auto full =
      SolveAnnealing(instance, view, objective, &rng_full, full_options);
  ASSERT_TRUE(full.ok());

  Rng rng_frontier(424242);
  AnnealingOptions frontier_options;
  frontier_options.frontier_k = 8;
  frontier_options.sharded_pool = &pool;
  FrontierScanStats stats;
  frontier_options.frontier_stats = &stats;
  const auto frontier = SolveAnnealing(instance, view, objective,
                                       &rng_frontier, frontier_options);
  ASSERT_TRUE(frontier.ok());
  EXPECT_EQ(frontier.value().selected, full.value().selected);
  EXPECT_EQ(frontier.value().jq, full.value().jq);
  EXPECT_EQ(frontier.value().cost, full.value().cost);
}

TEST(FrontierTest, BranchBoundOrderingKeepsOptimality) {
  // Frontier ordering is a search heuristic, not a bound: B&B stays exact,
  // so the frontier-ordered search must reach the same optimum (JQ equal
  // to well within evaluation noise; the certified optimum is unique up
  // to score ties).
  Rng rng(8807);
  const auto workers = RandomPool(&rng, 24, 0.3, 1.0, 0.05, 0.4);
  JspInstance instance;
  instance.candidates = workers;
  instance.budget = 0.8;
  instance.alpha = 0.5;
  const WorkerPoolView view(instance.candidates);
  const BucketBvObjective objective{BucketJqOptions{}};
  ShardedPoolOptions pool_options;
  pool_options.shard_size = 8;
  pool_options.slate_k = 8;
  const ShardedWorkerPool pool(&view, pool_options);

  BranchBoundOptions plain_options;
  const auto plain =
      SolveBranchAndBound(instance, view, objective, plain_options);
  ASSERT_TRUE(plain.ok());

  BranchBoundOptions frontier_options;
  frontier_options.frontier_k = 4;
  frontier_options.sharded_pool = &pool;
  const auto ordered =
      SolveBranchAndBound(instance, view, objective, frontier_options);
  ASSERT_TRUE(ordered.ok());
  EXPECT_NEAR(ordered.value().jq, plain.value().jq, 1e-9);
  EXPECT_LE(ordered.value().cost, instance.budget);
}

}  // namespace
}  // namespace jury

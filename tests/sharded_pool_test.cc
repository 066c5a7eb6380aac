// Tests for the sharded worker-pool summaries: every per-shard aggregate
// (min cost, top-k slates) must equal a brute-force recomputation over the
// shard's index slice, every non-slate member must sit at or below its
// slate's last key, and ApplyDelta must rebuild exactly the shards
// containing changed indices (epoch tags prove it).

#include <algorithm>
#include <limits>
#include <vector>

#include "gtest/gtest.h"
#include "model/sharded_pool.h"
#include "model/worker_pool_view.h"
#include "test_util.h"
#include "util/rng.h"

namespace jury {
namespace {

using jury::testing::RandomPool;

// Brute-force slate: shard indices sorted by key descending, ties by
// ascending index, truncated to k.
std::vector<std::size_t> BruteSlate(std::span<const double> keys,
                                    std::size_t begin, std::size_t end,
                                    std::size_t k) {
  std::vector<std::size_t> order;
  for (std::size_t i = begin; i < end; ++i) order.push_back(i);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     if (keys[a] != keys[b]) return keys[a] > keys[b];
                     return a < b;
                   });
  order.resize(std::min(k, order.size()));
  return order;
}

void CheckShardsAgainstBruteForce(const ShardedWorkerPool& pool) {
  const WorkerPoolView& view = pool.view();
  const std::size_t n = view.size();
  const std::size_t shard_size = pool.options().shard_size;
  const std::size_t slate_k = pool.options().slate_k;
  ASSERT_EQ(pool.num_shards(), (n + shard_size - 1) / shard_size);
  for (std::size_t s = 0; s < pool.num_shards(); ++s) {
    const ShardedWorkerPool::Shard& shard = pool.shard(s);
    EXPECT_EQ(shard.begin, s * shard_size);
    EXPECT_EQ(shard.end, std::min(n, (s + 1) * shard_size));
    ASSERT_GT(shard.population(), 0u);

    double min_cost = std::numeric_limits<double>::infinity();
    for (std::size_t i = shard.begin; i < shard.end; ++i) {
      min_cost = std::min(min_cost, view.cost()[i]);
    }
    EXPECT_EQ(shard.min_cost, min_cost) << "shard " << s;

    for (const auto key : {ShardedWorkerPool::KeyColumn::kNormQuality,
                           ShardedWorkerPool::KeyColumn::kQuality}) {
      const std::span<const double> keys = pool.keys(key);
      const std::vector<std::size_t> expected =
          BruteSlate(keys, shard.begin, shard.end, slate_k);
      const std::vector<std::size_t>& slate = pool.slate(shard, key);
      EXPECT_EQ(slate, expected) << "shard " << s;
      // What the frontier's fence leans on: every member left off the
      // slate sits at or below its last key.
      for (std::size_t i = shard.begin; i < shard.end; ++i) {
        if (std::find(slate.begin(), slate.end(), i) == slate.end()) {
          EXPECT_LE(keys[i], keys[slate.back()]) << "shard " << s;
        }
      }
    }
  }
}

TEST(ShardedPoolTest, SummariesMatchBruteForce) {
  Rng rng(7701);
  for (const std::size_t shard_size : {std::size_t{16}, std::size_t{64},
                                       std::size_t{1000}, std::size_t{1024}}) {
    const std::vector<Worker> workers = RandomPool(&rng, 1000, 0.0, 1.0, 0.0, 2.0);
    const WorkerPoolView view(workers);
    ShardedPoolOptions options;
    options.shard_size = shard_size;
    options.slate_k = 8;
    const ShardedWorkerPool pool(&view, options);
    CheckShardsAgainstBruteForce(pool);
  }
}

TEST(ShardedPoolTest, RaggedFinalShard) {
  Rng rng(7703);
  const std::vector<Worker> workers = RandomPool(&rng, 130, 0.0, 1.0, 0.1, 1.0);
  const WorkerPoolView view(workers);
  ShardedPoolOptions options;
  options.shard_size = 64;
  const ShardedWorkerPool pool(&view, options);
  ASSERT_EQ(pool.num_shards(), 3u);
  EXPECT_EQ(pool.shard(2).population(), 2u);
  CheckShardsAgainstBruteForce(pool);
}

TEST(ShardedPoolTest, ApplyDeltaRebuildsOnlyTouchedShards) {
  Rng rng(7705);
  std::vector<Worker> workers = RandomPool(&rng, 256, 0.0, 1.0, 0.1, 1.0);
  WorkerPoolView view(workers);
  ShardedPoolOptions options;
  options.shard_size = 64;
  options.slate_k = 4;
  ShardedWorkerPool pool(&view, options);
  ASSERT_EQ(pool.num_shards(), 4u);
  const std::uint64_t epoch0 = pool.shard(0).epoch;
  const std::uint64_t epoch1 = pool.shard(1).epoch;
  const std::uint64_t epoch2 = pool.shard(2).epoch;
  const std::uint64_t epoch3 = pool.shard(3).epoch;

  // Mutate one worker in shard 1 and one in shard 3 through the view's
  // backing vector (the pool aliases the columns), then deliver the
  // delta: duplicates are deduplicated, out-of-range indices ignored.
  workers[70].quality = 0.999;
  workers[70].cost = 0.01;
  workers[200].quality = 0.001;
  workers[200].cost = 9.0;
  view = WorkerPoolView(workers);
  const std::vector<std::size_t> changed = {70, 200, 200, 1u << 20};
  pool.ApplyDelta(changed);

  EXPECT_EQ(pool.shard(0).epoch, epoch0) << "untouched shard rebuilt";
  EXPECT_EQ(pool.shard(2).epoch, epoch2) << "untouched shard rebuilt";
  EXPECT_GT(pool.shard(1).epoch, epoch1) << "touched shard not rebuilt";
  EXPECT_GT(pool.shard(3).epoch, epoch3) << "touched shard not rebuilt";
  CheckShardsAgainstBruteForce(pool);
}

TEST(ShardedPoolTest, EmptyPool) {
  const std::vector<Worker> workers;
  const WorkerPoolView view(workers);
  const ShardedWorkerPool pool(&view);
  EXPECT_EQ(pool.num_shards(), 0u);
  EXPECT_EQ(pool.size(), 0u);
}

}  // namespace
}  // namespace jury

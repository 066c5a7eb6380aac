#include "model/sharded_pool.h"

#include <algorithm>
#include <limits>

#include "util/check.h"
#include "util/stats_registry.h"

namespace jury {
namespace {

StatsRegistry::Counter& g_shards_built = RegisterStatsCounter("pool.shards_built");
StatsRegistry::Counter& g_shard_rebuilds = RegisterStatsCounter("pool.shard_rebuilds");

/// Fills `slate` with the top-min(k, end-begin) indices of [begin, end) by
/// `keys`, key-descending with ascending-index ties (i.e. the stable
/// descending order).
void BuildSlate(std::span<const double> keys, std::size_t begin,
                std::size_t end, std::size_t k,
                std::vector<std::size_t>* slate) {
  const std::size_t population = end - begin;
  slate->resize(population);
  for (std::size_t i = 0; i < population; ++i) (*slate)[i] = begin + i;
  const auto key_desc = [keys](std::size_t a, std::size_t b) {
    if (keys[a] != keys[b]) return keys[a] > keys[b];
    return a < b;
  };
  if (k < population) {
    std::partial_sort(slate->begin(), slate->begin() + k, slate->end(),
                      key_desc);
    slate->resize(k);
  } else {
    std::sort(slate->begin(), slate->end(), key_desc);
  }
}

}  // namespace

ShardedWorkerPool::ShardedWorkerPool(const WorkerPoolView* view,
                                     ShardedPoolOptions options)
    : view_(view), options_(options) {
  JURY_CHECK(view_ != nullptr) << "ShardedWorkerPool needs a view";
  if (options_.shard_size == 0) options_.shard_size = 1024;
  if (options_.slate_k == 0) options_.slate_k = 64;
  const std::size_t n = view_->size();
  const std::size_t num_shards =
      n == 0 ? 0 : (n + options_.shard_size - 1) / options_.shard_size;
  shards_.resize(num_shards);
  for (std::size_t s = 0; s < num_shards; ++s) {
    shards_[s].begin = s * options_.shard_size;
    shards_[s].end = std::min(n, (s + 1) * options_.shard_size);
    RebuildShard(s);
    g_shards_built.Increment();
  }
}

ShardedWorkerPool::ShardedWorkerPool(const ShardedWorkerPool& other,
                                     const WorkerPoolView* view)
    : view_(view), options_(other.options_), shards_(other.shards_) {
  JURY_CHECK(view_ != nullptr) << "ShardedWorkerPool needs a view";
  JURY_CHECK_EQ(view_->size(), other.view_->size())
      << "rebase view must cover the same index space";
}

void ShardedWorkerPool::ApplyDelta(std::span<const std::size_t> changed) {
  std::vector<std::size_t> dirty;
  dirty.reserve(changed.size());
  for (const std::size_t index : changed) {
    if (index < view_->size()) dirty.push_back(shard_of(index));
  }
  std::sort(dirty.begin(), dirty.end());
  dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
  for (const std::size_t s : dirty) {
    RebuildShard(s);
    shards_[s].epoch++;
    g_shard_rebuilds.Increment();
  }
}

void ShardedWorkerPool::RebuildShard(std::size_t s) {
  Shard& shard = shards_[s];
  const std::span<const double> cost = view_->cost();
  shard.min_cost = std::numeric_limits<double>::infinity();
  for (std::size_t i = shard.begin; i < shard.end; ++i) {
    shard.min_cost = std::min(shard.min_cost, cost[i]);
  }
  BuildSlate(view_->norm_quality(), shard.begin, shard.end, options_.slate_k,
             &shard.top_by_norm_quality);
  BuildSlate(view_->quality(), shard.begin, shard.end, options_.slate_k,
             &shard.top_by_quality);
}

}  // namespace jury

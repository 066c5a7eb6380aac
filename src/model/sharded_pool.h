#ifndef JURYOPT_MODEL_SHARDED_POOL_H_
#define JURYOPT_MODEL_SHARDED_POOL_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "model/worker_pool_view.h"

namespace jury {

/// Tuning knobs for `ShardedWorkerPool`.
struct ShardedPoolOptions {
  /// Workers per shard (the final shard may be ragged). Chosen so a shard's
  /// columns stay L2-resident during slate builds; 1024 keeps the shard
  /// count at N/1024 which is what the frontier scan iterates per round.
  std::size_t shard_size = 1024;
  /// Slate length: how many workers per shard (per key column) are kept
  /// pre-sorted by the admissible marginal-gain key. Frontier scans may use
  /// any prefix of this.
  std::size_t slate_k = 64;
};

/// \brief Fixed-size shards over a `WorkerPoolView`, each carrying summary
/// statistics that let scan-heavy solvers touch O(shards * k) candidates
/// instead of O(N) rows.
///
/// Layout: shard `s` covers view indices `[s * shard_size, min((s+1) *
/// shard_size, N))` — shards partition the index space, so a shard never
/// re-orders or copies columns; its summaries are just precomputed
/// aggregates over its contiguous slice:
///
///   - **min_cost**: a shard with `jury_cost + min_cost > budget` holds no
///     eligible candidate and is skipped whole.
///   - **top-k slates** by the two monotone score keys
///     (`JqObjective::ScoreMonotoneKey`): indices sorted by normalized
///     quality (BV objectives, paper Lemma 2) and by raw quality (MV),
///     descending, ties broken by ascending index (stable). The slate is
///     the admissible frontier: every non-slate member of the shard has
///     key <= the key of any slate member, so for a monotone objective
///     its marginal gain is bounded by the gain of any scanned worker
///     with key >= the scanned prefix's last key (the frontier's fence).
///   - **epoch tag**: bumped each time the shard is rebuilt, so cached
///     per-shard artifacts can detect staleness after churn.
///
/// Churn: `ApplyDelta` rebuilds only the shards containing changed indices
/// (O(changed-shards * shard_size * log k)), not the whole pool — the
/// epoch tags of untouched shards are unchanged.
///
/// The pool aliases the view's columns; the view must outlive it. Building
/// bumps the `pool.shards_built` counter once per shard, `ApplyDelta` bumps
/// `pool.shard_rebuilds` once per rebuilt shard.
class ShardedWorkerPool {
 public:
  /// Which precomputed slate a consumer wants. Mirrors
  /// `JqObjective::ScoreMonotoneKey` (minus `kNone`).
  enum class KeyColumn { kNormQuality, kQuality };

  struct Shard {
    std::size_t begin = 0;
    std::size_t end = 0;
    std::uint64_t epoch = 0;
    double min_cost = 0.0;
    /// View indices, key-descending, ties index-ascending. Length
    /// min(slate_k, end - begin).
    std::vector<std::size_t> top_by_norm_quality;
    std::vector<std::size_t> top_by_quality;

    std::size_t population() const { return end - begin; }
  };

  explicit ShardedWorkerPool(const WorkerPoolView* view,
                             ShardedPoolOptions options = {});

  /// Rebase copy: clones `other`'s shard summaries (including their epoch
  /// tags) but aliases `view` instead of `other`'s view. This is the churn
  /// fast path — `PoolPlanContext::ApplyPoolDelta` copies the current
  /// pool onto the post-churn view, then `ApplyDelta`s exactly the changed
  /// indices, so only the touched shards pay a rebuild while the old pool
  /// keeps serving in-flight solves on its own view. `view` must have the
  /// same size as `other.view()` and must outlive this pool.
  ShardedWorkerPool(const ShardedWorkerPool& other, const WorkerPoolView* view);

  /// Rebuilds exactly the shards containing an index in `changed_indices`
  /// (deduplicated internally; out-of-range indices are ignored). Call
  /// after the underlying columns changed in place — e.g. worker
  /// re-estimation — to refresh summaries without touching other shards.
  void ApplyDelta(std::span<const std::size_t> changed_indices);

  const WorkerPoolView& view() const { return *view_; }
  const ShardedPoolOptions& options() const { return options_; }
  std::size_t size() const { return view_->size(); }
  std::size_t num_shards() const { return shards_.size(); }
  const Shard& shard(std::size_t s) const { return shards_[s]; }
  std::size_t shard_of(std::size_t index) const {
    return index / options_.shard_size;
  }

  const std::vector<std::size_t>& slate(const Shard& shard,
                                        KeyColumn key) const {
    return key == KeyColumn::kNormQuality ? shard.top_by_norm_quality
                                          : shard.top_by_quality;
  }
  /// The key column the slates of `key` are ordered by.
  std::span<const double> keys(KeyColumn key) const {
    return key == KeyColumn::kNormQuality ? view_->norm_quality()
                                          : view_->quality();
  }

 private:
  void RebuildShard(std::size_t s);

  const WorkerPoolView* view_;
  ShardedPoolOptions options_;
  std::vector<Shard> shards_;
};

}  // namespace jury

#endif  // JURYOPT_MODEL_SHARDED_POOL_H_

#ifndef JURYOPT_SERVE_RESULT_CACHE_H_
#define JURYOPT_SERVE_RESULT_CACHE_H_

#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "api/solve.h"

namespace jury::serve {

struct ResultCacheOptions {
  /// Capacity in entries; 0 disables insertion entirely (every lookup
  /// misses).
  std::size_t max_entries = 1024;
};

struct ResultCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  std::uint64_t invalidations = 0;
};

/// \brief Epoch-keyed segmented LRU of solved reports — the serving
/// layer's result cache.
///
/// Eviction: an entry starts on probation and moves to the protected
/// segment on its first hit; a full cache evicts the least recently used
/// probationary entry, and only an empty probation evicts a protected
/// one. The protected segment holds at most half the capacity; overflow
/// moves its least recently used entry back to the head of probation. So
/// a stream of one-shot misses (all-distinct cold solves) cycles only the
/// probationary entries and cannot evict the entries clients keep
/// hitting.
///
/// The logical key is (pool epoch, budget, alpha, solver name, tuning,
/// seed, work-unit cap): every field of the request that the solved report
/// is a deterministic function of, given the pool's data epoch.
/// Mechanically the key is `epoch + '\n' + SolveRequest::ToJson()` —
/// `ToJson` is byte-stable (sorted keys, shortest round-trip doubles) and
/// covers every identity field, so distinct tuples can never collide and a
/// new request field is automatically part of the key. Requests with
/// non-deterministic execution (a wall-clock deadline, a live cancel
/// token, process-stats collection) are never offered to the cache — the
/// caller gates on `PoolPlanContext`'s cacheability rule.
///
/// Epoch handling: entries are keyed *by* their epoch rather than flushed
/// on churn. A pool-epoch bump therefore invalidates exactly the entries
/// whose data changed (the new epoch's lookups miss and re-solve) while
/// in-flight solves on the previous epoch still hit their own entries.
/// Retired-epoch entries age out through eviction; `InvalidateBefore`
/// drops them eagerly when a caller wants the memory back.
///
/// Stored reports have `wall_seconds` zeroed (wall time is excluded from
/// the cached identity); `Lookup` returns a copy with `stats["cache_hit"]
/// = 1` so a hit is visible to the client yet deterministic.
///
/// Thread-safe; one mutex over the map and recency lists (lookups copy the
/// report while holding it — reports are small relative to a solve).
class ResultCache {
 public:
  explicit ResultCache(ResultCacheOptions options = {});

  /// True (and fills `*report`) on a hit for (`epoch`, `request_key`).
  bool Lookup(std::uint64_t epoch, const std::string& request_key,
              api::SolveReport* report);

  /// Stores `report` under (`epoch`, `request_key`), zeroing
  /// `wall_seconds` and evicting one entry (see the class comment) when
  /// full.
  /// Overwrites an existing entry (last writer wins; both writers solved
  /// the same deterministic request, so the values agree).
  void Insert(std::uint64_t epoch, const std::string& request_key,
              const api::SolveReport& report);

  /// Drops every entry with epoch < `epoch` (eager retired-epoch cleanup).
  void InvalidateBefore(std::uint64_t epoch);

  void Clear();

  std::size_t size() const;
  ResultCacheStats stats() const;
  const ResultCacheOptions& options() const { return options_; }

 private:
  struct Entry {
    std::string key;
    std::uint64_t epoch;
    api::SolveReport report;
    bool hit = false;  // in `protected_` rather than `probation_`
  };

  static std::string MapKey(std::uint64_t epoch, const std::string& key);

  /// Moves a hit entry to the head of the protected segment, demoting
  /// that segment's overflow; caller holds `mutex_`.
  void RecordHit(std::list<Entry>::iterator it);

  ResultCacheOptions options_;
  mutable std::mutex mutex_;
  std::list<Entry> probation_;  // not hit since insertion; front = newest
  std::list<Entry> protected_;  // hit at least once; front = most recent
  // Keyed by views of the list nodes' own `Entry::key`, so each key is
  // stored once. Nodes never move (`splice` relinks them), and every
  // index entry is erased before its node.
  std::unordered_map<std::string_view, std::list<Entry>::iterator> index_;
  ResultCacheStats stats_;
};

}  // namespace jury::serve

#endif  // JURYOPT_SERVE_RESULT_CACHE_H_

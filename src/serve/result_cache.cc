#include "serve/result_cache.h"

#include <iterator>
#include <utility>

namespace jury::serve {

ResultCache::ResultCache(ResultCacheOptions options) : options_(options) {}

std::string ResultCache::MapKey(std::uint64_t epoch, const std::string& key) {
  // '\n' cannot appear in the single-line JSON key, so the composite is
  // prefix-free: (epoch, key) pairs map 1:1 to map keys.
  return std::to_string(epoch) + '\n' + key;
}

bool ResultCache::Lookup(std::uint64_t epoch, const std::string& request_key,
                         api::SolveReport* report) {
  const std::string map_key = MapKey(epoch, request_key);
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = index_.find(map_key);
  if (it == index_.end()) {
    ++stats_.misses;
    return false;
  }
  RecordHit(it->second);
  ++stats_.hits;
  *report = it->second->report;
  report->stats["cache_hit"] = 1.0;
  return true;
}

void ResultCache::RecordHit(std::list<Entry>::iterator it) {
  if (it->hit) {
    protected_.splice(protected_.begin(), protected_, it);
    return;
  }
  it->hit = true;
  protected_.splice(protected_.begin(), probation_, it);
  while (protected_.size() > options_.max_entries / 2) {
    protected_.back().hit = false;
    probation_.splice(probation_.begin(), protected_,
                      std::prev(protected_.end()));
  }
}

void ResultCache::Insert(std::uint64_t epoch, const std::string& request_key,
                         const api::SolveReport& report) {
  if (options_.max_entries == 0) return;
  std::string map_key = MapKey(epoch, request_key);
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = index_.find(map_key);
  if (it != index_.end()) {
    it->second->report = report;
    it->second->report.wall_seconds = 0.0;
    std::list<Entry>& segment = it->second->hit ? protected_ : probation_;
    segment.splice(segment.begin(), segment, it->second);
    return;
  }
  while (probation_.size() + protected_.size() >= options_.max_entries) {
    std::list<Entry>& victims = probation_.empty() ? protected_ : probation_;
    index_.erase(victims.back().key);
    victims.pop_back();
    ++stats_.evictions;
  }
  probation_.push_front(Entry{std::move(map_key), epoch, report});
  probation_.front().report.wall_seconds = 0.0;
  index_.emplace(probation_.front().key, probation_.begin());
  ++stats_.insertions;
}

void ResultCache::InvalidateBefore(std::uint64_t epoch) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (std::list<Entry>* segment : {&probation_, &protected_}) {
    for (auto it = segment->begin(); it != segment->end();) {
      if (it->epoch < epoch) {
        index_.erase(it->key);
        it = segment->erase(it);
        ++stats_.invalidations;
      } else {
        ++it;
      }
    }
  }
}

void ResultCache::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  stats_.invalidations += probation_.size() + protected_.size();
  index_.clear();
  probation_.clear();
  protected_.clear();
}

std::size_t ResultCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return probation_.size() + protected_.size();
}

ResultCacheStats ResultCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace jury::serve

#include "util/fault_injection.h"

#include <algorithm>

#include "util/stats_registry.h"

namespace jury {
namespace {

StatsRegistry::Counter& g_faults_injected =
    RegisterStatsCounter("fault.injected");

}  // namespace

void FaultSite::Fire() {
  // Disarm first so the drain path (a nested region finishing its other
  // shards, a resubmitted solve) does not re-fire the same trigger.
  armed_.store(false, std::memory_order_relaxed);
  g_faults_injected.Increment();
  throw FaultInjectedError(name_);
}

FaultInjector& FaultInjector::Global() {
  static FaultInjector* instance = new FaultInjector;
  return *instance;
}

FaultSite* FaultInjector::FindOrCreate(const std::string& name) {
  for (FaultSite* site : sites_) {
    if (site->name() == name) return site;
  }
  sites_.push_back(new FaultSite(name));  // process lifetime, never freed
  return sites_.back();
}

FaultSite& FaultInjector::RegisterSite(const char* name) {
  std::lock_guard<std::mutex> lock(mutex_);
  return *FindOrCreate(name);
}

void FaultInjector::Arm(const std::string& site, std::uint64_t hit) {
  std::lock_guard<std::mutex> lock(mutex_);
  FaultSite* target = FindOrCreate(site);
  if (hit == 0) hit = 1;
  target->trigger_.store(target->hits() + hit, std::memory_order_relaxed);
  target->armed_.store(true, std::memory_order_relaxed);
}

void FaultInjector::Disarm() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (FaultSite* site : sites_) {
    site->armed_.store(false, std::memory_order_relaxed);
  }
}

std::vector<std::string> FaultInjector::Sites() const {
  std::vector<std::string> names;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    names.reserve(sites_.size());
    for (const FaultSite* site : sites_) names.push_back(site->name());
  }
  std::sort(names.begin(), names.end());
  return names;
}

std::uint64_t FaultInjector::HitCount(const std::string& site) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const FaultSite* candidate : sites_) {
    if (candidate->name() == site) return candidate->hits();
  }
  return 0;
}

std::uint64_t FaultInjector::injected_count() const {
  return g_faults_injected.value();
}

}  // namespace jury

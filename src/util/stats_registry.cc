#include "util/stats_registry.h"

#include <memory>
#include <mutex>
#include <utility>

namespace jury {
namespace {

// `fault.injected` is bumped by util/fault_injection.cc, but Release builds
// compile the fault hooks out, so no binary references that unit and the
// static link drops it, registration included. Registering the counter
// here, in the unit every stats consumer links, keeps the exported schema
// the same in every build type.
[[maybe_unused]] StatsRegistry::Counter& g_faults_injected =
    RegisterStatsCounter("fault.injected");

}  // namespace

StatsRegistry& StatsRegistry::Global() {
  // Leaked intentionally: counters registered from static initializers in
  // other translation units may be bumped by detached scheduler workers
  // during process teardown; a function-local static object could be
  // destroyed first.
  static StatsRegistry* registry = new StatsRegistry();
  return *registry;
}

StatsRegistry::Counter& StatsRegistry::RegisterCounter(
    const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(name, std::unique_ptr<Counter>(new Counter(name)))
             .first;
  }
  return *it->second;
}

void StatsRegistry::RegisterGauge(const std::string& name, GaugeFn fn) {
  std::lock_guard<std::mutex> lock(mutex_);
  gauges_[name] = fn;
}

std::map<std::string, std::uint64_t> StatsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::string, std::uint64_t> snapshot;
  for (const auto& [name, counter] : counters_) {
    snapshot[name] = counter->value();
  }
  for (const auto& [name, fn] : gauges_) {
    snapshot[name] = fn();
  }
  return snapshot;
}

Json StatsRegistry::ToJsonValue() const {
  Json counters = Json::Object();
  Json gauges = Json::Object();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [name, counter] : counters_) {
      counters.Set(name, counter->value());
    }
    for (const auto& [name, fn] : gauges_) {
      gauges.Set(name, fn());
    }
  }
  return Json::Object()
      .Set("counters", std::move(counters))
      .Set("gauges", std::move(gauges));
}

std::string StatsRegistry::ToJson() const { return ToJsonValue().Dump(); }

}  // namespace jury

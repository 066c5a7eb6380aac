#ifndef JURYOPT_UTIL_STATS_REGISTRY_H_
#define JURYOPT_UTIL_STATS_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "util/json.h"

namespace jury {

/// \brief Process-wide registry of named monotonic counters and gauges —
/// the observability spine of the serving surface.
///
/// Subsystems (the scheduler, the objective layer, the plan context,
/// the JSON parser) register their instruments once, at
/// static-initialization time, and bump them with relaxed atomics on the
/// hot path: an `Add` is one `fetch_add`, and reading never takes a lock
/// — `Snapshot` walks the registered instruments with relaxed loads, so a
/// `--stats` export or a live test assertion cannot stall a solve. Registration itself is mutex-guarded (it happens a
/// handful of times per process, before `main` for every instrument the
/// repo ships).
///
/// Counters are cumulative over the process lifetime and only ever grow;
/// gauges are point-in-time reads delegated to a callback (used for
/// subsystems that already maintain their own atomics, like the global
/// scheduler — the gauge reads those instead of double-counting on the
/// hot path). The JSON export is deterministic in *shape*: names are
/// emitted in sorted order with integer values, so two exports differ
/// only in the values, and `scripts/check_stats_schema.py` can pin the
/// schema (names + kinds) against a checked-in manifest.
class StatsRegistry {
 public:
  /// \brief A registered monotonic counter. Stable address for the
  /// process lifetime; `Add` is wait-free.
  class Counter {
   public:
    void Add(std::uint64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
    void Increment() { Add(1); }
    std::uint64_t value() const {
      return value_.load(std::memory_order_relaxed);
    }

   private:
    friend class StatsRegistry;
    explicit Counter(std::string name) : name_(std::move(name)) {}
    std::string name_;
    std::atomic<std::uint64_t> value_{0};
  };

  /// Point-in-time reader for a gauge; must be callable at any time from
  /// any thread and must never block or allocate a subsystem (e.g. a
  /// scheduler gauge reads 0 until the global scheduler exists, rather
  /// than spawning it).
  using GaugeFn = std::uint64_t (*)();

  /// The process-wide instance. Production code only ever touches this
  /// one; separate instances are constructible so tests can assert on an
  /// isolated registry without perturbing the process-wide schema.
  StatsRegistry() = default;
  static StatsRegistry& Global();

  /// Registers (or finds) the counter named `name`. Re-registration
  /// returns the same counter, so file-scope registrars in different
  /// translation units cannot collide. Names are dot-paths
  /// ("scheduler.tasks_stolen") and must match the checked-in manifest —
  /// CI fails when a counter appears or disappears without updating it.
  Counter& RegisterCounter(const std::string& name);

  /// Registers the gauge named `name`; later registrations replace the
  /// callback (last one wins, used only by tests).
  void RegisterGauge(const std::string& name, GaugeFn fn);

  /// Sorted name -> value snapshot of every instrument (relaxed reads;
  /// exact once the measured subsystems have quiesced).
  std::map<std::string, std::uint64_t> Snapshot() const;

  /// `{"counters":{...},"gauges":{...}}` with sorted names — the document
  /// `jury_cli --stats` prints and the schema gate checks.
  Json ToJsonValue() const;
  std::string ToJson() const;

 private:
  mutable std::mutex mutex_;  // guards the maps, never the values
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, GaugeFn> gauges_;
};

/// Convenience for the common pattern: a file-scope reference initialized
/// once via the global registry.
inline StatsRegistry::Counter& RegisterStatsCounter(const std::string& name) {
  return StatsRegistry::Global().RegisterCounter(name);
}

}  // namespace jury

#endif  // JURYOPT_UTIL_STATS_REGISTRY_H_

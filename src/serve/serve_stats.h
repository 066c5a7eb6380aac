#ifndef JURYOPT_SERVE_SERVE_STATS_H_
#define JURYOPT_SERVE_SERVE_STATS_H_

#include "util/stats_registry.h"

namespace jury::serve {

/// \brief Serving-layer counters, registered once at static init and pinned
/// by `tests/stats_manifest.json`.
///
/// These live in their own TU with plain accessor functions (instead of
/// file-scope `RegisterStatsCounter` references in the server TU) because
/// the library is static: a TU's registrations only run in binaries that
/// reference one of its symbols. The cache/epoch accessors below are called
/// from `PoolPlanContext` itself, so every binary on the API path — the
/// CLI's `--stats` schema gate included — links this TU and sees the full
/// `serve.*` schema, whether or not it serves HTTP.

/// Requests accepted by the HTTP endpoint (any route outcome).
StatsRegistry::Counter& ServeRequests();
/// Solves answered from the epoch-keyed result cache.
StatsRegistry::Counter& ServeCacheHits();
/// Cacheable solves that missed (and then populated) the cache.
StatsRegistry::Counter& ServeCacheMisses();
/// Pool-epoch bumps from `PoolPlanContext::ApplyPoolDelta`.
StatsRegistry::Counter& ServeEpochBumps();

}  // namespace jury::serve

#endif  // JURYOPT_SERVE_SERVE_STATS_H_

#include "serve/serve_stats.h"

namespace jury::serve {
namespace {

StatsRegistry::Counter& g_requests = RegisterStatsCounter("serve.requests");
StatsRegistry::Counter& g_cache_hits = RegisterStatsCounter("serve.cache_hits");
StatsRegistry::Counter& g_cache_misses =
    RegisterStatsCounter("serve.cache_misses");
StatsRegistry::Counter& g_epoch_bumps =
    RegisterStatsCounter("serve.epoch_bumps");

}  // namespace

StatsRegistry::Counter& ServeRequests() { return g_requests; }
StatsRegistry::Counter& ServeCacheHits() { return g_cache_hits; }
StatsRegistry::Counter& ServeCacheMisses() { return g_cache_misses; }
StatsRegistry::Counter& ServeEpochBumps() { return g_epoch_bumps; }

}  // namespace jury::serve

// Serving-layer tests: the HTTP parser, the epoch-keyed result cache,
// the cache-key contract on `PoolPlanContext`, pool-epoch bumps via
// `ApplyPoolDelta`, and an end-to-end pass over a live `JuryServer` on
// an ephemeral loopback port.
//
// The central claims:
//  * a cache-hit report is byte-identical (modulo the zeroed wall clock
//    and the `cache_hit` marker) to the cold solve it replays, for any
//    thread count;
//  * distinct (epoch, budget, alpha, solver, tuning, seed) tuples never
//    collide in the cache;
//  * `ApplyPoolDelta` re-plans new requests without failing anything in
//    flight, and rebuilds only the shards it touched;
//  * a retired epoch is freed when its last lease goes, and not before;
//  * malformed wire bytes get structured HTTP errors, never an abort.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/solve.h"
#include "gtest/gtest.h"
#include "model/pool_snapshot.h"
#include "model/sharded_pool.h"
#include "model/worker.h"
#include "model/worker_pool_view.h"
#include "serve/http.h"
#include "serve/result_cache.h"
#include "serve/server.h"
#include "test_util.h"
#include "util/rng.h"
#include "util/stats_registry.h"

namespace jury {
namespace {

using jury::testing::RandomPool;

// ---------------------------------------------------------------------------
// HttpParser

TEST(HttpParserTest, ParsesSimpleGet) {
  serve::HttpParser parser;
  const std::string wire = "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n";
  EXPECT_EQ(parser.Feed(wire), wire.size());
  ASSERT_TRUE(parser.complete());
  EXPECT_EQ(parser.request().method, "GET");
  EXPECT_EQ(parser.request().target, "/healthz");
  EXPECT_EQ(parser.request().version, "HTTP/1.1");
  EXPECT_EQ(parser.request().headers.at("host"), "x");
  EXPECT_TRUE(parser.request().body.empty());
}

TEST(HttpParserTest, ParsesPostBodyAcrossFeeds) {
  serve::HttpParser parser;
  const std::string wire =
      "POST /solve HTTP/1.1\r\nContent-Length: 11\r\n\r\nhello world";
  // Byte-at-a-time delivery must land in the same place.
  for (const char c : wire) {
    ASSERT_EQ(parser.Feed(std::string_view(&c, 1)), 1u);
  }
  ASSERT_TRUE(parser.complete());
  EXPECT_EQ(parser.request().method, "POST");
  EXPECT_EQ(parser.request().body, "hello world");
}

TEST(HttpParserTest, LeavesPipelinedBytesUnconsumed) {
  serve::HttpParser parser;
  const std::string first = "GET /a HTTP/1.1\r\n\r\n";
  const std::string second = "GET /b HTTP/1.1\r\n\r\n";
  const std::string wire = first + second;
  const std::size_t consumed = parser.Feed(wire);
  ASSERT_TRUE(parser.complete());
  EXPECT_EQ(consumed, first.size());
  EXPECT_EQ(parser.request().target, "/a");
  parser.Reset();
  EXPECT_EQ(parser.Feed(std::string_view(wire).substr(consumed)),
            second.size());
  ASSERT_TRUE(parser.complete());
  EXPECT_EQ(parser.request().target, "/b");
}

TEST(HttpParserTest, ToleratesBareLf) {
  serve::HttpParser parser;
  const std::string wire = "GET / HTTP/1.1\nHost: x\n\n";
  parser.Feed(wire);
  ASSERT_TRUE(parser.complete());
  EXPECT_EQ(parser.request().headers.at("host"), "x");
}

TEST(HttpParserTest, RejectsMalformedRequestLine) {
  for (const std::string& wire :
       {std::string("GARBAGE\r\n\r\n"), std::string("GET /\r\n\r\n"),
        std::string("GET / NOTHTTP/1.1\r\n\r\n"),
        std::string(" GET / HTTP/1.1\r\n\r\n")}) {
    serve::HttpParser parser;
    parser.Feed(wire);
    ASSERT_TRUE(parser.failed()) << wire;
    EXPECT_EQ(parser.error_status(), 400) << wire;
  }
}

TEST(HttpParserTest, RejectsBadContentLength) {
  serve::HttpParser parser;
  parser.Feed("POST / HTTP/1.1\r\nContent-Length: -4\r\n\r\n");
  ASSERT_TRUE(parser.failed());
  EXPECT_EQ(parser.error_status(), 400);
}

TEST(HttpParserTest, EnforcesHeaderLimit) {
  serve::HttpLimits limits;
  limits.max_header_bytes = 64;
  serve::HttpParser parser(limits);
  parser.Feed("GET / HTTP/1.1\r\nX-Big: " + std::string(256, 'a') +
              "\r\n\r\n");
  ASSERT_TRUE(parser.failed());
  EXPECT_EQ(parser.error_status(), 431);
}

TEST(HttpParserTest, EnforcesBodyLimit) {
  serve::HttpLimits limits;
  limits.max_body_bytes = 16;
  serve::HttpParser parser(limits);
  parser.Feed("POST / HTTP/1.1\r\nContent-Length: 1000000\r\n\r\n");
  ASSERT_TRUE(parser.failed());
  EXPECT_EQ(parser.error_status(), 413);
}

TEST(HttpParserTest, ResetSupportsKeepAlive) {
  serve::HttpParser parser;
  parser.Feed("GET /one HTTP/1.1\r\n\r\n");
  ASSERT_TRUE(parser.complete());
  parser.Reset();
  parser.Feed("POST /two HTTP/1.1\r\nContent-Length: 2\r\n\r\nok");
  ASSERT_TRUE(parser.complete());
  EXPECT_EQ(parser.request().target, "/two");
  EXPECT_EQ(parser.request().body, "ok");
}

// ---------------------------------------------------------------------------
// ResultCache

api::SolveReport FakeReport(const std::string& tag) {
  api::SolveReport report;
  report.solver = tag;
  report.wall_seconds = 1.25;
  report.stats["moves"] = 3.0;
  return report;
}

TEST(ResultCacheTest, MissThenHit) {
  serve::ResultCache cache({.max_entries = 8});
  api::SolveReport out;
  EXPECT_FALSE(cache.Lookup(0, "k", &out));
  cache.Insert(0, "k", FakeReport("optjs"));
  ASSERT_TRUE(cache.Lookup(0, "k", &out));
  EXPECT_EQ(out.solver, "optjs");
  // Wall time is excluded from identity; the hit is marked.
  EXPECT_EQ(out.wall_seconds, 0.0);
  EXPECT_EQ(out.stats.at("cache_hit"), 1.0);
  const serve::ResultCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
}

TEST(ResultCacheTest, EpochIsPartOfTheKey) {
  serve::ResultCache cache({.max_entries = 8});
  cache.Insert(0, "k", FakeReport("epoch0"));
  cache.Insert(1, "k", FakeReport("epoch1"));
  api::SolveReport out;
  ASSERT_TRUE(cache.Lookup(0, "k", &out));
  EXPECT_EQ(out.solver, "epoch0");
  ASSERT_TRUE(cache.Lookup(1, "k", &out));
  EXPECT_EQ(out.solver, "epoch1");
  // The composite key is prefix-free: (1, "1\nk") must not alias (11, "k").
  cache.Insert(11, "k", FakeReport("epoch11"));
  EXPECT_FALSE(cache.Lookup(1, "1\nk", &out));
}

TEST(ResultCacheTest, LruEvictsOldest) {
  serve::ResultCache cache({.max_entries = 2});
  cache.Insert(0, "a", FakeReport("a"));
  cache.Insert(0, "b", FakeReport("b"));
  api::SolveReport out;
  ASSERT_TRUE(cache.Lookup(0, "a", &out));  // refresh "a"
  cache.Insert(0, "c", FakeReport("c"));    // evicts "b", the LRU entry
  EXPECT_FALSE(cache.Lookup(0, "b", &out));
  EXPECT_TRUE(cache.Lookup(0, "a", &out));
  EXPECT_TRUE(cache.Lookup(0, "c", &out));
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(ResultCacheTest, OneShotMissesDoNotEvictHitEntries) {
  // A stream of distinct inserts (all-distinct cold solves) cycles only
  // the entries never hit; an entry with a hit outlives it. A plain LRU
  // evicts "hot" on the fourth insert.
  serve::ResultCache cache({.max_entries = 4});
  cache.Insert(0, "hot", FakeReport("hot"));
  api::SolveReport out;
  ASSERT_TRUE(cache.Lookup(0, "hot", &out));
  for (int i = 0; i < 10; ++i) {
    cache.Insert(0, "cold" + std::to_string(i), FakeReport("cold"));
  }
  EXPECT_TRUE(cache.Lookup(0, "hot", &out));
  EXPECT_TRUE(cache.Lookup(0, "cold9", &out));
  EXPECT_FALSE(cache.Lookup(0, "cold6", &out));
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_EQ(cache.stats().evictions, 7u);
}

TEST(ResultCacheTest, ProtectedSegmentHoldsHalfTheCapacity) {
  // When every entry gets hit, the least recently hit one past half the
  // capacity goes back on probation, so new entries still find room.
  serve::ResultCache cache({.max_entries = 4});
  api::SolveReport out;
  for (const char* key : {"a", "b", "c"}) {
    cache.Insert(0, key, FakeReport(key));
    ASSERT_TRUE(cache.Lookup(0, key, &out));
  }
  cache.Insert(0, "d", FakeReport("d"));
  cache.Insert(0, "e", FakeReport("e"));  // evicts "a", back on probation
  EXPECT_FALSE(cache.Lookup(0, "a", &out));
  EXPECT_TRUE(cache.Lookup(0, "b", &out));
  EXPECT_TRUE(cache.Lookup(0, "c", &out));
  EXPECT_TRUE(cache.Lookup(0, "d", &out));
  EXPECT_TRUE(cache.Lookup(0, "e", &out));
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(ResultCacheTest, InvalidateBeforeDropsStaleEpochs) {
  serve::ResultCache cache({.max_entries = 8});
  cache.Insert(0, "a", FakeReport("a"));
  cache.Insert(1, "b", FakeReport("b"));
  cache.Insert(2, "c", FakeReport("c"));
  cache.InvalidateBefore(2);
  api::SolveReport out;
  EXPECT_FALSE(cache.Lookup(0, "a", &out));
  EXPECT_FALSE(cache.Lookup(1, "b", &out));
  EXPECT_TRUE(cache.Lookup(2, "c", &out));
  EXPECT_EQ(cache.stats().invalidations, 2u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ResultCacheTest, ChurnKeepsIndexAndEntriesInStep) {
  // The index keys are views of the list nodes' own keys. This churns
  // every path that links, relinks or drops a node — inserts, hits,
  // evictions, same-key overwrites, the same keys re-inserted under a new
  // epoch, InvalidateBefore — and checks each hit against the last write
  // of its (epoch, key). A view left dangling by any path reads freed
  // memory, which ASAN reports. Keys are long enough to live on the heap.
  constexpr std::size_t kCapacity = 16;
  serve::ResultCache cache({.max_entries = kCapacity});
  std::map<std::pair<std::uint64_t, std::string>, std::string> last_write;
  Rng rng(20261018);
  std::uint64_t epoch = 0;
  std::uint64_t live_from = 0;  // epochs below were invalidated
  api::SolveReport out;
  for (int op = 0; op < 4000; ++op) {
    const std::string key =
        std::string(48, 'k') + std::to_string(rng.UniformInt(40));
    const std::uint64_t at = live_from + rng.UniformInt(epoch - live_from + 1);
    const std::uint64_t action = rng.UniformInt(16);
    if (action < 6) {
      const std::string tag = "r" + std::to_string(op);
      cache.Insert(at, key, FakeReport(tag));
      last_write[{at, key}] = tag;
    } else if (action < 14) {
      if (cache.Lookup(at, key, &out)) {
        ASSERT_EQ(last_write.count({at, key}), 1u) << "op " << op;
        EXPECT_EQ(out.solver, last_write.at({at, key})) << "op " << op;
      }
    } else if (action == 14) {
      ++epoch;
    } else {
      cache.InvalidateBefore(epoch);
      live_from = epoch;
      for (const auto& [written, tag] : last_write) {
        if (written.first < live_from) {
          EXPECT_FALSE(cache.Lookup(written.first, written.second, &out))
              << "op " << op;
        }
      }
      std::erase_if(last_write, [live_from](const auto& item) {
        return item.first.first < live_from;
      });
    }
    ASSERT_LE(cache.size(), kCapacity);
    const serve::ResultCacheStats stats = cache.stats();
    ASSERT_EQ(stats.insertions - stats.evictions - stats.invalidations,
              cache.size())
        << "op " << op;
  }
  const serve::ResultCacheStats stats = cache.stats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(stats.invalidations, 0u);
}

TEST(ResultCacheTest, ZeroCapacityDisablesInsertion) {
  serve::ResultCache cache({.max_entries = 0});
  cache.Insert(0, "k", FakeReport("x"));
  api::SolveReport out;
  EXPECT_FALSE(cache.Lookup(0, "k", &out));
  EXPECT_EQ(cache.size(), 0u);
}

// ---------------------------------------------------------------------------
// Cache-key contract on PoolPlanContext

std::vector<Worker> TestPool(int n = 24) {
  Rng rng(20150323);
  return RandomPool(&rng, n, 0.55, 0.9, 0.05, 0.6);
}

api::SolveRequest BaseRequest(double budget = 1.5) {
  api::SolveRequest request;
  request.solver = "optjs";
  request.budget = budget;
  request.alpha = 0.4;
  return request;
}

/// The byte-identity contract of a hit: the cold report with its wall
/// clock zeroed and `cache_hit` added must serialize to the hit's bytes.
void ExpectHitReplaysCold(const api::SolveReport& cold,
                          const api::SolveReport& hit) {
  api::SolveReport expected = cold;
  expected.wall_seconds = 0.0;
  expected.stats["cache_hit"] = 1.0;
  EXPECT_EQ(expected.ToJson(), hit.ToJson());
}

TEST(ContextCacheTest, HitIsByteIdenticalToColdSolve) {
  for (const std::size_t num_threads : {std::size_t{1}, std::size_t{8}}) {
    auto planned = api::PoolPlanContext::Plan(TestPool());
    ASSERT_TRUE(planned.ok());
    api::PoolPlanContext context = std::move(planned).value();
    context.EnableResultCache();

    const api::SolveRequest request = BaseRequest();
    // Cold and hit both go through the batched path at `num_threads`.
    auto cold = context.SolveMany({&request, 1}, {.num_threads = num_threads});
    ASSERT_TRUE(cold.ok());
    auto hit = context.SolveMany({&request, 1}, {.num_threads = num_threads});
    ASSERT_TRUE(hit.ok());
    ASSERT_EQ(context.result_cache()->stats().hits, 1u);
    ExpectHitReplaysCold(cold.value()[0], hit.value()[0]);
  }
}

TEST(ContextCacheTest, DistinctTuplesNeverCollide) {
  auto planned = api::PoolPlanContext::Plan(TestPool());
  ASSERT_TRUE(planned.ok());
  api::PoolPlanContext context = std::move(planned).value();
  context.EnableResultCache();

  // One request per varied key dimension: budget, alpha, solver, tuning,
  // seed, work cap. All must miss on the first pass (no collisions)...
  std::vector<api::SolveRequest> requests;
  requests.push_back(BaseRequest());
  requests.push_back(BaseRequest(2.0));
  api::SolveRequest alpha = BaseRequest();
  alpha.alpha = 0.6;
  requests.push_back(alpha);
  api::SolveRequest solver = BaseRequest();
  solver.solver = "greedy-value";
  requests.push_back(solver);
  api::SolveRequest tuned = BaseRequest();
  tuned.tuning.optjs.bucket.num_buckets = 32;
  requests.push_back(tuned);
  api::SolveRequest seeded = BaseRequest();
  seeded.solver = "annealing";
  seeded.rng_seed = 7;
  requests.push_back(seeded);
  api::SolveRequest capped = BaseRequest();
  capped.solver = "annealing";
  capped.max_work_units = 50;
  requests.push_back(capped);

  std::vector<api::SolveReport> cold;
  for (const api::SolveRequest& request : requests) {
    auto report = context.Solve(request);
    ASSERT_TRUE(report.ok());
    cold.push_back(report.value());
  }
  const serve::ResultCacheStats after_cold = context.result_cache()->stats();
  EXPECT_EQ(after_cold.hits, 0u);
  EXPECT_EQ(after_cold.insertions, requests.size());

  // ...and each repeat must replay exactly its own cold report.
  for (std::size_t i = 0; i < requests.size(); ++i) {
    auto report = context.Solve(requests[i]);
    ASSERT_TRUE(report.ok());
    ExpectHitReplaysCold(cold[i], report.value());
  }
  EXPECT_EQ(context.result_cache()->stats().hits, requests.size());
}

TEST(ContextCacheTest, NonDeterministicRequestsBypassTheCache) {
  auto planned = api::PoolPlanContext::Plan(TestPool());
  ASSERT_TRUE(planned.ok());
  api::PoolPlanContext context = std::move(planned).value();
  context.EnableResultCache();

  api::SolveRequest deadline = BaseRequest();
  deadline.deadline_ms = 10'000.0;
  ASSERT_TRUE(context.Solve(deadline).ok());
  ASSERT_TRUE(context.Solve(deadline).ok());

  api::SolveRequest stats_collecting = BaseRequest();
  stats_collecting.collect_process_stats = true;
  ASSERT_TRUE(context.Solve(stats_collecting).ok());

  const serve::ResultCacheStats stats = context.result_cache()->stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.insertions, 0u);
  EXPECT_EQ(context.result_cache()->size(), 0u);
}

// ---------------------------------------------------------------------------
// ApplyPoolDelta: epochs, cache keying, shard rebuilds, in-flight safety

TEST(PoolDeltaTest, BumpsEpochAndReplans) {
  auto planned = api::PoolPlanContext::Plan(TestPool());
  ASSERT_TRUE(planned.ok());
  api::PoolPlanContext context = std::move(planned).value();
  context.EnableResultCache();
  EXPECT_EQ(context.pool_epoch(), 0u);

  const api::SolveRequest request = BaseRequest();
  auto before = context.Solve(request);
  ASSERT_TRUE(before.ok());

  // Make the cheapest worker dramatically better; the re-planned pool
  // must produce a (generally different) jury under the same request.
  const api::PoolDeltaUpdate update{0, 0.95, 0.01};
  ASSERT_TRUE(context.ApplyPoolDelta({&update, 1}).ok());
  EXPECT_EQ(context.pool_epoch(), 1u);
  EXPECT_EQ(context.view().quality()[0], 0.95);

  // The old epoch's entry is stale for new traffic: the same request
  // misses and re-solves against the new pool.
  const serve::ResultCacheStats before_stats = context.result_cache()->stats();
  auto after = context.Solve(request);
  ASSERT_TRUE(after.ok());
  const serve::ResultCacheStats after_stats = context.result_cache()->stats();
  EXPECT_EQ(after_stats.hits, before_stats.hits);
  EXPECT_EQ(after_stats.misses, before_stats.misses + 1);
  EXPECT_EQ(context.result_cache()->size(), 2u);  // one entry per epoch
}

TEST(PoolDeltaTest, RejectsBadUpdatesAtomically) {
  auto planned = api::PoolPlanContext::Plan(TestPool());
  ASSERT_TRUE(planned.ok());
  api::PoolPlanContext context = std::move(planned).value();

  const api::PoolDeltaUpdate out_of_range{10'000, 0.9, 0.1};
  EXPECT_EQ(context.ApplyPoolDelta({&out_of_range, 1}).code(),
            StatusCode::kInvalidArgument);
  const api::PoolDeltaUpdate bad_quality{0, 2.0, 0.1};
  EXPECT_EQ(context.ApplyPoolDelta({&bad_quality, 1}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(context.pool_epoch(), 0u);
}

TEST(PoolDeltaTest, RebuildsOnlyTouchedShards) {
  // 64 workers at shard_size 16 -> 4 shards.
  api::PlanOptions plan_options;
  plan_options.shard_size = 16;
  auto planned = api::PoolPlanContext::Plan(TestPool(64), plan_options);
  ASSERT_TRUE(planned.ok());
  api::PoolPlanContext context = std::move(planned).value();
  ASSERT_NE(context.sharded_pool(), nullptr);  // force the lazy build
  ASSERT_EQ(context.sharded_pool()->num_shards(), 4u);

  StatsRegistry::Counter& rebuilds =
      RegisterStatsCounter("pool.shard_rebuilds");
  const std::uint64_t before = rebuilds.value();
  // Two updates inside one shard: exactly one shard rebuild.
  const api::PoolDeltaUpdate updates[] = {{1, 0.8, 0.2}, {2, 0.7, 0.3}};
  ASSERT_TRUE(context.ApplyPoolDelta({updates, 2}).ok());
  EXPECT_EQ(rebuilds.value(), before + 1);
  // And an update in a different shard rebuilds just that one.
  const api::PoolDeltaUpdate far{60, 0.8, 0.2};
  ASSERT_TRUE(context.ApplyPoolDelta({&far, 1}).ok());
  EXPECT_EQ(rebuilds.value(), before + 2);
}

TEST(PoolDeltaTest, InFlightSolvesSurviveChurn) {
  auto planned = api::PoolPlanContext::Plan(TestPool(48));
  ASSERT_TRUE(planned.ok());
  api::PoolPlanContext context = std::move(planned).value();

  // A batch of annealing requests, slow enough to still be in flight
  // when the delta lands.
  std::vector<api::SolveRequest> requests;
  for (int i = 0; i < 6; ++i) {
    api::SolveRequest request = BaseRequest(1.0 + 0.1 * i);
    request.solver = "annealing";
    request.rng_seed = 100 + static_cast<std::uint64_t>(i);
    requests.push_back(request);
  }
  // Reference reports, solved entirely before any churn (wall time
  // zeroed: it is the one legitimately timing-dependent field).
  const auto canonical = [](api::SolveReport report) {
    report.wall_seconds = 0.0;
    return report.ToJson();
  };
  std::vector<std::string> expected;
  for (const api::SolveRequest& request : requests) {
    auto report = context.Solve(request);
    ASSERT_TRUE(report.ok());
    expected.push_back(canonical(report.value()));
  }

  // Churn lands while the batch runs: only once a lease has been taken,
  // so the batch has pinned its epoch before the delta publishes a new
  // one. In-flight requests keep that epoch: every report must succeed
  // AND match the pre-churn reports bit for bit.
  const StatsRegistry::Counter& leased =
      RegisterStatsCounter("plan.instances_leased");
  const std::uint64_t leased_before = leased.value();
  std::optional<Result<std::vector<api::SolveReport>>> batch;
  std::atomic<bool> finished{false};
  std::thread solver([&] {
    batch = context.SolveMany(requests, {.num_threads = 4});
    finished = true;
  });
  while (leased.value() == leased_before && !finished) {
    std::this_thread::yield();
  }
  const api::PoolDeltaUpdate update{0, 0.93, 0.02};
  const Status churned = context.ApplyPoolDelta({&update, 1});
  solver.join();
  ASSERT_TRUE(churned.ok()) << churned;
  ASSERT_TRUE(batch->ok()) << "in-flight batch failed across churn: "
                           << batch->status();
  ASSERT_EQ(batch->value().size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(canonical(batch->value()[i]), expected[i]) << "request " << i;
  }
  // New calls see the new epoch.
  EXPECT_EQ(context.pool_epoch(), 1u);
  auto fresh = context.Solve(requests[0]);
  ASSERT_TRUE(fresh.ok());
}

TEST(PoolDeltaTest, RetiredEpochsAreFreedByTheirLastLease) {
  api::PlanOptions plan_options;
  plan_options.shard_size = 32;
  auto planned = api::PoolPlanContext::Plan(TestPool(256), plan_options);
  ASSERT_TRUE(planned.ok());
  api::PoolPlanContext context = std::move(planned).value();
  ASSERT_NE(context.sharded_pool(), nullptr);  // deltas rebase the index

  const StatsRegistry::Counter& freed =
      RegisterStatsCounter("plan.epochs_freed");
  const StatsRegistry::Counter& leased =
      RegisterStatsCounter("plan.instances_leased");
  const std::uint64_t freed_before = freed.value();
  std::optional<api::PoolPlanContext::InstanceLease> epoch0(
      context.AcquireInstance(1.5, 0.4));
  const Worker worker0("", epoch0->instance().pool->quality()[0],
                       epoch0->instance().pool->cost()[0]);
  const std::uint64_t leased_before = leased.value();

  std::vector<api::SolveRequest> requests;
  for (int i = 0; i < 3; ++i) {
    api::SolveRequest greedy = BaseRequest(1.0 + 0.25 * i);
    greedy.solver = "greedy-mg";
    greedy.tuning.greedy.frontier_k = 8;
    requests.push_back(greedy);
    api::SolveRequest annealing = BaseRequest(1.0 + 0.25 * i);
    annealing.solver = "annealing";
    annealing.rng_seed = 300 + static_cast<std::uint64_t>(i);
    requests.push_back(annealing);
  }
  std::atomic<bool> churning{true};
  std::atomic<int> failed_batches{0};
  std::thread solver([&] {
    do {
      if (!context.SolveMany(requests, {.num_threads = 4}).ok()) {
        ++failed_batches;
      }
    } while (churning);
  });
  while (leased.value() == leased_before && failed_batches == 0) {
    std::this_thread::yield();
  }
  // 100 epochs; each re-estimates worker 0 and one worker elsewhere, so
  // every delta rebuilds a shard or two of the rebased index.
  Status churned;
  double last_quality = worker0.quality;
  for (std::size_t delta = 0; delta < 100 && churned.ok(); ++delta) {
    last_quality = 0.6 + 0.003 * static_cast<double>(delta);
    const api::PoolDeltaUpdate updates[] = {
        {0, last_quality, worker0.cost},
        {1 + (delta * 37) % 255, 0.7, 0.2}};
    churned = context.ApplyPoolDelta({updates, 2});
  }
  churning = false;
  solver.join();
  ASSERT_TRUE(churned.ok()) << churned;
  EXPECT_EQ(failed_batches.load(), 0);
  EXPECT_EQ(context.pool_epoch(), 100u);

  // Epochs 1..99 died with their last batch; epoch 0 lives on in the
  // lease, which still reads its workers and columns.
  EXPECT_EQ(freed.value() - freed_before, 99u);
  EXPECT_EQ(epoch0->instance().pool->quality()[0], worker0.quality);
  EXPECT_EQ(epoch0->view().quality()[0], worker0.quality);
  EXPECT_EQ(epoch0->sharded_pool()->view().quality()[0], worker0.quality);
  EXPECT_EQ(context.view().quality()[0], last_quality);
  epoch0.reset();
  EXPECT_EQ(freed.value() - freed_before, 100u);
}

/// True when two columns hold the same doubles bit for bit (EXPECT_EQ on
/// doubles would let -0.0 pass for 0.0).
bool SameBits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(PoolDeltaTest, ChurnedEpochMatchesAFreshPlan) {
  // A delta copies the current columns and recomputes only the updated
  // rows, so every churned epoch must be the pool a fresh plan of the
  // updated workers builds: the same column bits and the same reports,
  // from a memory plan and from a snapshot plan alike.
  std::vector<Worker> workers = TestPool(300);
  const char* dir = std::getenv("TMPDIR");
  const std::string path =
      std::string(dir != nullptr && dir[0] != '\0' ? dir : "/tmp") +
      "/juryopt_churned_epoch_" + std::to_string(getpid()) + ".snap";
  ASSERT_TRUE(
      PoolSnapshot::Write(path, workers, WorkerPoolView(workers)).ok());
  auto snapshot = PoolSnapshot::Load(path);
  std::remove(path.c_str());
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();

  api::PlanOptions plan_options;
  plan_options.shard_size = 32;
  std::vector<api::PoolPlanContext> contexts;
  contexts.push_back(api::PoolPlanContext::Plan(workers, plan_options).value());
  contexts.push_back(api::PoolPlanContext::PlanFromSnapshot(
                         std::move(snapshot).value(), plan_options)
                         .value());
  for (const api::PoolPlanContext& context : contexts) {
    ASSERT_NE(context.sharded_pool(), nullptr);  // deltas rebase the index
  }

  std::vector<api::SolveRequest> requests;
  for (const char* solver : {"optjs", "annealing", "mvjs", "greedy-mg"}) {
    api::SolveRequest request = BaseRequest(1.0);
    request.solver = solver;
    request.tuning.greedy.frontier_k = 8;
    requests.push_back(request);
  }
  const auto canonical = [](api::SolveReport report) {
    report.wall_seconds = 0.0;
    return report.ToJson();
  };

  Rng rng(2626);
  for (int delta = 0; delta < 40; ++delta) {
    // Eight updates with qualities in [0, 1] plus the edge values 0, 0.5
    // and 1, and zero costs among them; a ninth repeats the first update's
    // index, so the last update of that index must win.
    std::vector<api::PoolDeltaUpdate> updates;
    for (int u = 0; u < 8; ++u) {
      api::PoolDeltaUpdate update;
      update.index = static_cast<std::size_t>(rng.UniformInt(workers.size()));
      update.quality = u < 3 ? 0.5 * u : rng.Uniform(0.0, 1.0);
      update.cost = u % 3 == 0 ? 0.0 : rng.Uniform(0.0, 0.6);
      updates.push_back(update);
    }
    updates.push_back({updates[0].index, rng.Uniform(0.0, 1.0),
                       rng.Uniform(0.0, 0.6)});
    for (const api::PoolDeltaUpdate& update : updates) {
      workers[update.index].quality = update.quality;
      workers[update.index].cost = update.cost;
    }

    const WorkerPoolView fresh_view(workers);
    auto fresh = api::PoolPlanContext::Plan(workers, plan_options);
    ASSERT_TRUE(fresh.ok());
    ASSERT_NE(fresh.value().sharded_pool(), nullptr);
    std::vector<std::string> expected;
    for (const api::SolveRequest& request : requests) {
      auto report = fresh.value().Solve(request);
      ASSERT_TRUE(report.ok()) << report.status();
      expected.push_back(canonical(report.value()));
    }

    for (api::PoolPlanContext& context : contexts) {
      const std::string where = std::string(context.pool_source()) +
                                " plan, delta " + std::to_string(delta);
      ASSERT_TRUE(context.ApplyPoolDelta(updates).ok()) << where;
      const WorkerPoolView& view = context.view();
      EXPECT_TRUE(SameBits(view.quality(), fresh_view.quality())) << where;
      EXPECT_TRUE(SameBits(view.cost(), fresh_view.cost())) << where;
      EXPECT_TRUE(SameBits(view.norm_quality(), fresh_view.norm_quality()))
          << where;
      EXPECT_TRUE(SameBits(view.log_odds(), fresh_view.log_odds())) << where;
      for (std::size_t r = 0; r < requests.size(); ++r) {
        auto report = context.Solve(requests[r]);
        ASSERT_TRUE(report.ok()) << where << ": " << report.status();
        EXPECT_EQ(canonical(report.value()), expected[r])
            << where << ", " << requests[r].solver;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// JuryServer end to end

/// One HTTP/1.1 request as wire bytes.
std::string FormatRequest(const std::string& method, const std::string& target,
                          const std::string& body = "") {
  std::string request = method + " " + target + " HTTP/1.1\r\n";
  request += "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n";
  request += body;
  return request;
}

class TestClient {
 public:
  explicit TestClient(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    // A reply that never comes fails the read instead of hanging the test.
    timeval timeout{};
    timeout.tv_sec = 10;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ = ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                           sizeof(addr)) == 0;
  }
  ~TestClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool connected() const { return connected_; }

  /// One round trip; returns the status code + body.
  std::pair<int, std::string> RoundTrip(const std::string& method,
                                        const std::string& target,
                                        const std::string& body = "") {
    if (!Send(FormatRequest(method, target, body))) return {0, ""};
    return ReadResponse();
  }

  /// Writes `bytes` in one `send`.
  bool Send(const std::string& bytes) {
    return ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL) ==
           static_cast<ssize_t>(bytes.size());
  }

  /// Reads the next response; returns the status code (0 when the reply
  /// does not arrive) + body. Bytes past it stay buffered for the next call.
  std::pair<int, std::string> ReadResponse() {
    std::string response = std::move(pending_);
    pending_.clear();
    char chunk[4096];
    std::size_t header_end = response.find("\r\n\r\n");
    while (header_end == std::string::npos) {
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return {0, response};
      response.append(chunk, static_cast<std::size_t>(n));
      header_end = response.find("\r\n\r\n");
    }
    const std::size_t length_at = response.find("Content-Length: ");
    std::size_t content_length = 0;
    if (length_at != std::string::npos && length_at < header_end) {
      content_length =
          std::strtoull(response.c_str() + length_at + 16, nullptr, 10);
    }
    while (response.size() - header_end - 4 < content_length) {
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return {0, response};
      response.append(chunk, static_cast<std::size_t>(n));
    }
    pending_ = response.substr(header_end + 4 + content_length);
    const int status = std::atoi(response.c_str() + 9);
    return {status, response.substr(header_end + 4, content_length)};
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  std::string pending_;
};

class JuryServerTest : public ::testing::Test {
 protected:
  /// The options the fixture's server starts with.
  virtual serve::ServeOptions Options() const { return {}; }

  void SetUp() override {
    auto planned = api::PoolPlanContext::Plan(TestPool());
    ASSERT_TRUE(planned.ok());
    context_.emplace(std::move(planned).value());
    server_.emplace(&*context_, Options());
    ASSERT_TRUE(server_->Start().ok());
    thread_ = std::thread([this] { EXPECT_TRUE(server_->Run().ok()); });
  }
  void TearDown() override {
    server_->Shutdown();
    thread_.join();
  }

  std::optional<api::PoolPlanContext> context_;
  std::optional<serve::JuryServer> server_;
  std::thread thread_;
};

TEST_F(JuryServerTest, HealthzAndStats) {
  TestClient client(server_->port());
  ASSERT_TRUE(client.connected());
  auto [health_status, health_body] = client.RoundTrip("GET", "/healthz");
  EXPECT_EQ(health_status, 200);
  EXPECT_EQ(health_body, "{\"ok\":true}");
  auto [stats_status, stats_body] = client.RoundTrip("GET", "/stats");
  EXPECT_EQ(stats_status, 200);
  EXPECT_NE(stats_body.find("\"serve.requests\""), std::string::npos);
  EXPECT_NE(stats_body.find("\"pool_epoch\":0"), std::string::npos);
}

TEST_F(JuryServerTest, SolvesAndCachesOverHttp) {
  TestClient client(server_->port());
  ASSERT_TRUE(client.connected());
  const std::string body = BaseRequest().ToJson();
  auto [cold_status, cold_body] = client.RoundTrip("POST", "/solve", body);
  EXPECT_EQ(cold_status, 200);
  EXPECT_NE(cold_body.find("\"solution\""), std::string::npos);
  auto [hit_status, hit_body] = client.RoundTrip("POST", "/solve", body);
  EXPECT_EQ(hit_status, 200);
  EXPECT_NE(hit_body.find("\"cache_hit\":1"), std::string::npos);
}

TEST_F(JuryServerTest, StructuredErrorsNeverKillTheProcess) {
  TestClient client(server_->port());
  ASSERT_TRUE(client.connected());
  auto [parse_status, parse_body] =
      client.RoundTrip("POST", "/solve", "this is not json");
  EXPECT_EQ(parse_status, 400);
  EXPECT_NE(parse_body.find("\"error\""), std::string::npos);
  auto [solver_status, solver_body] = client.RoundTrip(
      "POST", "/solve", "{\"solver\":\"no-such-solver\",\"budget\":1.0}");
  EXPECT_EQ(solver_status, 404);
  EXPECT_NE(solver_body.find("\"error\""), std::string::npos);
  // A request too large for this 24-worker pool is the client's to fix:
  // the exhaustive guard's OutOfRange answers 400, not 500.
  auto [size_status, size_body] = client.RoundTrip(
      "POST", "/solve", "{\"solver\":\"exhaustive\",\"budget\":1.0}");
  EXPECT_EQ(size_status, 400);
  EXPECT_NE(size_body.find("exhaustive JSP guarded to N <= 22, got N = 24"),
            std::string::npos)
      << size_body;
  auto [route_status, route_body] = client.RoundTrip("GET", "/nope");
  EXPECT_EQ(route_status, 404);
  auto [method_status, method_body] = client.RoundTrip("DELETE", "/solve");
  EXPECT_EQ(method_status, 405);
  // The server is still healthy after the abuse.
  auto [health_status, health_body] = client.RoundTrip("GET", "/healthz");
  EXPECT_EQ(health_status, 200);
}

TEST_F(JuryServerTest, EpochBumpMidStreamKeepsServing) {
  TestClient client(server_->port());
  ASSERT_TRUE(client.connected());
  const std::string body = BaseRequest().ToJson();
  auto [first_status, first_body] = client.RoundTrip("POST", "/solve", body);
  EXPECT_EQ(first_status, 200);

  const api::PoolDeltaUpdate update{0, 0.95, 0.01};
  ASSERT_TRUE(context_->ApplyPoolDelta({&update, 1}).ok());

  auto [second_status, second_body] = client.RoundTrip("POST", "/solve", body);
  EXPECT_EQ(second_status, 200);
  // The re-solve ran against the new epoch, not the cached old-epoch
  // entry.
  EXPECT_EQ(second_body.find("\"cache_hit\""), std::string::npos);
  auto [stats_status, stats_body] = client.RoundTrip("GET", "/stats");
  EXPECT_NE(stats_body.find("\"pool_epoch\":1"), std::string::npos);
}

TEST_F(JuryServerTest, PipelinedSolvesAreAnsweredInOrder) {
  // Report bytes up to the wall clock, the one field a cold solve does
  // not reproduce (keys are sorted, so it comes last).
  const auto solved_part = [](const std::string& report) {
    return report.substr(0, report.find("\"wall_seconds\""));
  };
  const api::SolveRequest first = BaseRequest(1.5);
  const api::SolveRequest second = BaseRequest(0.6);
  auto reference = api::PoolPlanContext::Plan(TestPool());
  ASSERT_TRUE(reference.ok());
  auto expected_first = reference.value().Solve(first);
  auto expected_second = reference.value().Solve(second);
  ASSERT_TRUE(expected_first.ok());
  ASSERT_TRUE(expected_second.ok());
  ASSERT_NE(solved_part(expected_first.value().ToJson()),
            solved_part(expected_second.value().ToJson()));

  TestClient client(server_->port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Send(FormatRequest("POST", "/solve", first.ToJson()) +
                          FormatRequest("POST", "/solve", second.ToJson())));
  auto [first_status, first_body] = client.ReadResponse();
  EXPECT_EQ(first_status, 200);
  EXPECT_EQ(solved_part(first_body),
            solved_part(expected_first.value().ToJson()));
  auto [second_status, second_body] = client.ReadResponse();
  EXPECT_EQ(second_status, 200);
  EXPECT_EQ(solved_part(second_body),
            solved_part(expected_second.value().ToJson()));
  // The connection is still usable afterwards.
  auto [health_status, health_body] = client.RoundTrip("GET", "/healthz");
  EXPECT_EQ(health_status, 200);
}

TEST_F(JuryServerTest, SolvesFromManyConnectionsAreAllAnswered) {
  // A slow solve holds the loop while 16 other connections each send one
  // quick solve. Nothing here overloads the server — one solve runs at a
  // time — so every reply must be a 200, none a 503.
  constexpr int kQuick = 16;
  TestClient slow(server_->port());
  ASSERT_TRUE(slow.connected());
  std::vector<std::unique_ptr<TestClient>> quick;
  for (int i = 0; i < kQuick; ++i) {
    quick.push_back(std::make_unique<TestClient>(server_->port()));
    ASSERT_TRUE(quick.back()->connected());
  }
  api::SolveRequest slow_request = BaseRequest();
  slow_request.solver = "annealing";
  slow_request.tuning.annealing.num_restarts = 64;
  slow_request.tuning.annealing.num_threads = 1;
  ASSERT_TRUE(
      slow.Send(FormatRequest("POST", "/solve", slow_request.ToJson())));
  for (int i = 0; i < kQuick; ++i) {
    api::SolveRequest request = BaseRequest(0.5 + 0.1 * i);
    request.solver = "greedy-quality";
    ASSERT_TRUE(
        quick[i]->Send(FormatRequest("POST", "/solve", request.ToJson())));
  }
  auto [slow_status, slow_body] = slow.ReadResponse();
  EXPECT_EQ(slow_status, 200) << slow_body;
  for (int i = 0; i < kQuick; ++i) {
    auto [status, body] = quick[i]->ReadResponse();
    EXPECT_EQ(status, 200) << "connection " << i << ": " << body;
  }
}

class JuryServerDeadlineTest : public JuryServerTest {
 protected:
  serve::ServeOptions Options() const override {
    serve::ServeOptions options;
    options.default_deadline_ms = 1e-3;
    return options;
  }
};

TEST_F(JuryServerDeadlineTest, ExpiredDefaultDeadlineAnswers504WithTheReport) {
  TestClient client(server_->port());
  ASSERT_TRUE(client.connected());
  api::SolveRequest request = BaseRequest();
  request.solver = "annealing";
  auto [status, body] = client.RoundTrip("POST", "/solve", request.ToJson());
  EXPECT_EQ(status, 504) << body;
  EXPECT_NE(body.find("\"code\":504"), std::string::npos) << body;
  // The anytime jury rides along in the error envelope.
  EXPECT_NE(body.find("\"report\":{"), std::string::npos) << body;
  EXPECT_NE(body.find("\"termination_reason\":\"deadline\""),
            std::string::npos)
      << body;
}

}  // namespace
}  // namespace jury

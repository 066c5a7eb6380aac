// bench_serving: closed-loop load harness for the serving layer — an
// in-process `serve::JuryServer` on an ephemeral loopback port, driven by
// keep-alive HTTP client threads at a sweep of concurrency levels.
//
// Protocol, per concurrency level:
//   1. clear the result cache, then issue every distinct request once
//      (the *cold* phase: all cache misses, real solves);
//   2. re-issue the same request set repeatedly (the *warm* phase: all
//      epoch-keyed cache hits), recording per-request latency.
//
// The artifact (`JURY_BENCH_JSON`, committed as BENCH_serving.json) gets
// one row per level: throughput, p50/p99 latency, the measured cache hit
// rate, the cold phase's throughput, and `warm_speedup_vs_cold`. The
// regression gate (scripts/check_scaling_regression.py, "serving"
// section) requires a hit rate of 1, no errors, and a warm p99 below the
// cold per-request time; the speedup ratio is recorded but not gated.
//
// JURY_BENCH_FAST=1 trims the sweep and marks rows `fast_run` (the gate
// skips them). `--connect=HOST:PORT` drives an external server instead;
// no cache control is possible remotely, so only steady-state rows are
// emitted (and no artifact baseline should come from that mode).

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "api/solve.h"
#include "bench_util.h"
#include "serve/result_cache.h"
#include "serve/server.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/simd_dispatch.h"
#include "util/stats_registry.h"

namespace {

using namespace jury;

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Minimal blocking keep-alive HTTP client: one connection, sequential
/// round trips (the closed loop — a client never has two requests in
/// flight).
class HttpClient {
 public:
  ~HttpClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool Connect(const std::string& host, int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) return false;
    return ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof(addr)) == 0;
  }

  /// POSTs `body` to /solve and returns the response body ("" on error).
  std::string Solve(const std::string& body) {
    std::string request = "POST /solve HTTP/1.1\r\nHost: bench\r\n";
    request += "Content-Length: " + std::to_string(body.size());
    request += "\r\n\r\n";
    request += body;
    std::size_t sent = 0;
    while (sent < request.size()) {
      const ssize_t n = ::send(fd_, request.data() + sent,
                               request.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return "";
      sent += static_cast<std::size_t>(n);
    }
    // Read headers, then Content-Length body bytes.
    std::string response;
    std::size_t header_end = std::string::npos;
    char chunk[8192];
    while (header_end == std::string::npos) {
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return "";
      response.append(chunk, static_cast<std::size_t>(n));
      header_end = response.find("\r\n\r\n");
    }
    const std::size_t body_start = header_end + 4;
    std::size_t content_length = 0;
    {
      // Case-exact match is fine: we only talk to jury_serve.
      const std::size_t pos = response.find("Content-Length: ");
      if (pos == std::string::npos || pos > header_end) return "";
      content_length = std::strtoull(response.c_str() + pos + 16, nullptr, 10);
    }
    while (response.size() - body_start < content_length) {
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return "";
      response.append(chunk, static_cast<std::size_t>(n));
    }
    return response.substr(body_start, content_length);
  }

 private:
  int fd_ = -1;
};

struct PhaseResult {
  double seconds = 0.0;
  std::size_t requests = 0;
  std::size_t cache_hits = 0;
  std::size_t errors = 0;
  std::vector<double> latencies_ms;
};

/// Closed loop: `concurrency` client threads pull request indices from a
/// shared counter until `total` requests have completed.
PhaseResult RunPhase(const std::string& host, int port,
                     const std::vector<std::string>& bodies,
                     std::size_t concurrency, std::size_t total) {
  std::atomic<std::size_t> next{0};
  std::mutex merge_mutex;
  PhaseResult merged;
  const double start = NowSeconds();
  std::vector<std::thread> clients;
  clients.reserve(concurrency);
  for (std::size_t c = 0; c < concurrency; ++c) {
    clients.emplace_back([&, c] {
      HttpClient client;
      if (!client.Connect(host, port)) {
        std::lock_guard<std::mutex> lock(merge_mutex);
        merged.errors += 1;
        return;
      }
      PhaseResult local;
      while (true) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= total) break;
        const std::string& body = bodies[i % bodies.size()];
        const double sent = NowSeconds();
        const std::string response = client.Solve(body);
        const double elapsed_ms = (NowSeconds() - sent) * 1e3;
        local.requests += 1;
        local.latencies_ms.push_back(elapsed_ms);
        if (response.empty() || response.find("\"error\"") == 0) {
          local.errors += 1;
        } else if (response.find("\"cache_hit\":1") != std::string::npos) {
          local.cache_hits += 1;
        }
      }
      std::lock_guard<std::mutex> lock(merge_mutex);
      merged.requests += local.requests;
      merged.cache_hits += local.cache_hits;
      merged.errors += local.errors;
      merged.latencies_ms.insert(merged.latencies_ms.end(),
                                 local.latencies_ms.begin(),
                                 local.latencies_ms.end());
    });
  }
  for (std::thread& t : clients) t.join();
  merged.seconds = NowSeconds() - start;
  return merged;
}

double Percentile(std::vector<double>* values, double q) {
  if (values->empty()) return 0.0;
  std::sort(values->begin(), values->end());
  const std::size_t index = std::min(
      values->size() - 1,
      static_cast<std::size_t>(q * static_cast<double>(values->size())));
  return (*values)[index];
}

}  // namespace

int main(int argc, char** argv) {
  std::string connect_host;
  int connect_port = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--connect=", 0) == 0) {
      const std::string target = arg.substr(10);
      const std::size_t colon = target.find(':');
      if (colon == std::string::npos) {
        std::cerr << "error: --connect wants HOST:PORT\n";
        return 1;
      }
      connect_host = target.substr(0, colon);
      connect_port = std::atoi(target.c_str() + colon + 1);
    } else {
      std::cerr << "error: unknown flag " << arg << "\n";
      return 1;
    }
  }

  bench::PrintHeader(
      "BENCH_serving: closed-loop load on the jury_serve endpoint",
      "per concurrency level: cold pass (cache cleared, all misses), then "
      "warm passes (same requests, epoch-keyed cache hits)");

  const bool fast = GetEnvFlag("JURY_BENCH_FAST");
  const bool external = !connect_host.empty();

  // The workload: one mid-size pool, a set of distinct OPTJS requests
  // (varying budget) heavy enough that a solve dwarfs a cache lookup.
  constexpr int kPoolSize = 120;
  const std::size_t distinct = fast ? 8 : 32;
  const std::size_t warm_passes = fast ? 4 : 8;
  std::vector<std::size_t> concurrencies =
      fast ? std::vector<std::size_t>{1, 4}
           : std::vector<std::size_t>{1, 2, 4, 8};

  Rng rng(20150323);
  std::vector<Worker> workers = bench::PaperPool(&rng, kPoolSize, 0.7);
  double total_cost = 0.0;
  for (const Worker& w : workers) total_cost += w.cost;

  std::vector<std::string> bodies;
  bodies.reserve(distinct);
  for (std::size_t i = 0; i < distinct; ++i) {
    api::SolveRequest request;
    request.solver = "optjs";
    request.alpha = 0.4;
    request.budget =
        total_cost * (0.25 + 0.5 * static_cast<double>(i) /
                                 static_cast<double>(std::max<std::size_t>(
                                     1, distinct - 1)));
    bodies.push_back(request.ToJson());
  }

  std::optional<api::PoolPlanContext> context;
  std::optional<serve::JuryServer> server;
  std::thread server_thread;
  std::string host = connect_host;
  int port = connect_port;
  if (!external) {
    api::PlanOptions plan_options;
    plan_options.assume_validated = true;
    auto planned = api::PoolPlanContext::Plan(workers, plan_options);
    if (!planned.ok()) {
      std::cerr << "error: " << planned.status() << "\n";
      return 1;
    }
    context.emplace(std::move(planned).value());
    serve::ServeOptions options;
    options.cache_entries = 4096;
    server.emplace(&*context, options);
    const Status started = server->Start();
    if (!started.ok()) {
      std::cerr << "error: " << started << "\n";
      return 1;
    }
    host = options.host;
    port = server->port();
    server_thread = std::thread([&server] {
      const Status ran = server->Run();
      if (!ran.ok()) std::cerr << "server error: " << ran << "\n";
    });
  }

  Json rows = Json::Array();
  for (const std::size_t concurrency : concurrencies) {
    PhaseResult cold;
    if (!external) {
      context->result_cache()->Clear();
      cold = RunPhase(host, port, bodies, concurrency, distinct);
    }
    const PhaseResult warm =
        RunPhase(host, port, bodies, concurrency, distinct * warm_passes);

    std::vector<double> latencies = warm.latencies_ms;
    const double p50 = Percentile(&latencies, 0.50);
    const double p99 = Percentile(&latencies, 0.99);
    const double warm_rps =
        warm.seconds > 0.0 ? static_cast<double>(warm.requests) / warm.seconds
                           : 0.0;
    const double cold_rps =
        cold.seconds > 0.0 ? static_cast<double>(cold.requests) / cold.seconds
                           : 0.0;
    const double warm_speedup = cold_rps > 0.0 ? warm_rps / cold_rps : 0.0;
    const double hit_rate =
        warm.requests > 0
            ? static_cast<double>(warm.cache_hits) /
                  static_cast<double>(warm.requests)
            : 0.0;

    std::cout << "concurrency " << concurrency << ": " << warm_rps
              << " req/s warm (" << cold_rps << " cold), p50 " << p50
              << " ms, p99 " << p99 << " ms, hit rate " << hit_rate
              << ", warm speedup " << warm_speedup << "x, errors "
              << cold.errors + warm.errors << "\n";

    rows.Append(Json::Object()
                    .Set("concurrency", static_cast<std::uint64_t>(concurrency))
                    .Set("distinct_requests",
                         static_cast<std::uint64_t>(distinct))
                    .Set("requests", static_cast<std::uint64_t>(warm.requests))
                    .Set("seconds", warm.seconds)
                    .Set("requests_per_second", warm_rps)
                    .Set("p50_ms", p50)
                    .Set("p99_ms", p99)
                    .Set("cache_hit_rate", hit_rate)
                    .Set("cold_requests",
                         static_cast<std::uint64_t>(cold.requests))
                    .Set("cold_seconds", cold.seconds)
                    .Set("cold_requests_per_second", cold_rps)
                    .Set("warm_speedup_vs_cold", warm_speedup)
                    .Set("errors",
                         static_cast<std::uint64_t>(cold.errors + warm.errors))
                    .Set("fast_run", fast));
  }

  if (!external) {
    server->Shutdown();
    server_thread.join();
  }

  const char* path = std::getenv("JURY_BENCH_JSON");
  if (path != nullptr && path[0] != '\0') {
    Json simd_levels = Json::Array();
    simd_levels.Append(std::string("scalar"));
    if (simd::Avx2Available()) simd_levels.Append(std::string("avx2"));
    Json doc = Json::Object();
    doc.Set("host",
            Json::Object()
                .Set("hardware_threads",
                     static_cast<std::uint64_t>(
                         std::max(1u, std::thread::hardware_concurrency())))
                .Set("simd_levels", simd_levels));
    doc.Set("serving", rows);
    doc.Set("process_stats", StatsRegistry::Global().ToJsonValue());
    std::ofstream out(path);
    out << doc.Dump() << "\n";
    std::cout << "Wrote serving JSON to " << path << "\n";
  }
  return 0;
}

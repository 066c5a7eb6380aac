// jury_serve: the serving-layer HTTP/JSON endpoint — one long-lived
// `PoolPlanContext` answering a stream of jury-selection queries from a
// single-threaded epoll loop that solves each request inline
// (`serve::JuryServer`).
//
// Usage:
//   ./build/jury_serve [workers.csv] [flags]
//
// Flags:
//   --port=P            listen port (default 0 = ephemeral; the bound
//                       port is printed either way)
//   --host=H            listen address (default 127.0.0.1)
//   --cache-entries=N   result-cache capacity (default 1024; 0 disables)
//   --deadline-ms=D     default per-request deadline; expired solves
//                       answer 504 with the partial report embedded
//   --pool-snapshot=PATH  plan from a binary pool snapshot instead of CSV
//
// With no CSV, serves the paper's Figure-1 pool as a demo.
//
// Routes: GET /healthz, GET /stats, POST /solve (SolveRequest JSON in,
// SolveReport JSON out — the same wire shape as `SolveRequest::ToJson`).
//
// Prints exactly one `listening on HOST:PORT` line to stdout once bound
// (scripts wait for it), serves until SIGTERM/SIGINT, then flushes the
// replies still queued and exits 0.
//
// Robustness contract (enforced by scripts/cli_robustness_test.sh):
// malformed request bodies, unknown solvers, and oversized JSON all get
// structured `{"error":...}` responses; no request bytes can kill the
// process. Bad *flags* exit non-zero with an error on stderr.

#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "api/solve.h"
#include "model/worker_io.h"
#include "serve/server.h"

namespace {

using jury::Result;
using jury::Status;
using jury::Worker;

struct ServeArgs {
  std::string csv_path;
  std::string pool_snapshot;
  jury::serve::ServeOptions options;
};

bool ParseUint(std::string_view text, std::uint64_t* out) {
  if (text.empty()) return false;
  std::uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return false;
    if (value > (UINT64_MAX - (c - '0')) / 10) return false;
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  *out = value;
  return true;
}

bool ParseDouble(std::string_view text, double* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  const std::string owned(text);
  const double value = std::strtod(owned.c_str(), &end);
  if (end == nullptr || *end != '\0') return false;
  *out = value;
  return true;
}

Result<ServeArgs> ParseArgs(int argc, char** argv) {
  ServeArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value_of = [&arg](std::string_view prefix) {
      return arg.substr(prefix.size());
    };
    std::uint64_t uint_value = 0;
    double double_value = 0.0;
    if (arg.rfind("--port=", 0) == 0) {
      if (!ParseUint(value_of("--port="), &uint_value) || uint_value > 65535) {
        return Status::InvalidArgument("bad --port value");
      }
      args.options.port = static_cast<int>(uint_value);
    } else if (arg.rfind("--host=", 0) == 0) {
      args.options.host = std::string(value_of("--host="));
      if (args.options.host.empty()) {
        return Status::InvalidArgument("bad --host value");
      }
    } else if (arg.rfind("--cache-entries=", 0) == 0) {
      if (!ParseUint(value_of("--cache-entries="), &uint_value)) {
        return Status::InvalidArgument("bad --cache-entries value");
      }
      args.options.cache_entries = static_cast<std::size_t>(uint_value);
    } else if (arg.rfind("--deadline-ms=", 0) == 0) {
      if (!ParseDouble(value_of("--deadline-ms="), &double_value) ||
          double_value < 0.0) {
        return Status::InvalidArgument("bad --deadline-ms value");
      }
      args.options.default_deadline_ms = double_value;
    } else if (arg.rfind("--pool-snapshot=", 0) == 0) {
      args.pool_snapshot = std::string(value_of("--pool-snapshot="));
    } else if (arg.rfind("--", 0) == 0) {
      return Status::InvalidArgument("unknown flag: " + std::string(arg));
    } else if (args.csv_path.empty()) {
      args.csv_path = std::string(arg);
    } else {
      return Status::InvalidArgument("unexpected argument: " +
                                     std::string(arg));
    }
  }
  return args;
}

jury::serve::JuryServer* g_server = nullptr;

void HandleSignal(int) {
  // Async-signal-safe: Shutdown is one eventfd write.
  if (g_server != nullptr) g_server->Shutdown();
}

}  // namespace

int main(int argc, char** argv) {
  auto parsed = ParseArgs(argc, argv);
  if (!parsed.ok()) {
    std::cerr << "error: " << parsed.status() << "\n";
    return 1;
  }
  ServeArgs args = std::move(parsed).value();

  std::optional<jury::api::PoolPlanContext> context;
  if (!args.pool_snapshot.empty()) {
    auto planned = jury::api::PoolPlanContext::PlanFromSnapshot(
        args.pool_snapshot);
    if (!planned.ok()) {
      std::cerr << "error: " << planned.status() << "\n";
      return 1;
    }
    context.emplace(std::move(planned).value());
  } else {
    std::vector<Worker> workers;
    if (!args.csv_path.empty()) {
      auto loaded = jury::LoadWorkersCsv(args.csv_path);
      if (!loaded.ok()) {
        std::cerr << "error: " << loaded.status() << "\n";
        return 1;
      }
      workers = std::move(loaded).value();
    } else {
      std::cout << "(no CSV given; serving the paper's Figure-1 pool)\n";
      workers = {{"A", 0.77, 9.0}, {"B", 0.70, 5.0}, {"C", 0.80, 6.0},
                 {"D", 0.65, 7.0}, {"E", 0.60, 5.0}, {"F", 0.60, 2.0},
                 {"G", 0.75, 3.0}};
    }
    jury::api::PlanOptions plan_options;
    plan_options.assume_validated = true;
    auto planned =
        jury::api::PoolPlanContext::Plan(std::move(workers), plan_options);
    if (!planned.ok()) {
      std::cerr << "error: " << planned.status() << "\n";
      return 1;
    }
    context.emplace(std::move(planned).value());
  }

  jury::serve::JuryServer server(&*context, args.options);
  const Status started = server.Start();
  if (!started.ok()) {
    std::cerr << "error: " << started << "\n";
    return 1;
  }

  g_server = &server;
  std::signal(SIGTERM, &HandleSignal);
  std::signal(SIGINT, &HandleSignal);

  std::cout << "listening on " << args.options.host << ":" << server.port()
            << std::endl;  // flushed: scripts block on this line

  const Status ran = server.Run();
  g_server = nullptr;
  if (!ran.ok()) {
    std::cerr << "error: " << ran << "\n";
    return 1;
  }
  std::cout << "drained; shutting down\n";
  return 0;
}

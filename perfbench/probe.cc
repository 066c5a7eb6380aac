// perfbench_probe: the compiled half of the benchmark in perfbench/run.py.
//
// run.py generates every input (pools, request bodies, delta batches) from
// the workload seed and checks the replies; this program does what must be
// timed from native code, in one client process:
//
//   prepare-snapshot  converts a generated pool CSV into a PoolSnapshot.
//   served            spawns `jury_serve`, times set-up (spawn to first
//                     healthy reply plus the cache warm), then drives the
//                     measured phase over keep-alive connections and diffs
//                     GET /stats around it.
//   churn             an in-process PoolPlanContext planned from a snapshot,
//                     replaying an op list of pool deltas and frontier
//                     solves, one fresh context per round.
//   trace             replays a workload's inputs in-process through each
//                     layer's public functions, recording one span per call,
//                     alternating with a bare replay to time the tracing.
//
// Every mode writes its raw samples to `--out` as JSON; run.py turns them
// into metrics. A connection never carries two requests at once: each
// round trip waits for the whole reply before the next request is sent.

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/solve.h"
#include "core/annealing.h"
#include "core/frontier.h"
#include "core/greedy.h"
#include "core/objective.h"
#include "jq/bucket.h"
#include "model/pool_snapshot.h"
#include "model/worker_io.h"
#include "model/worker_pool_view.h"
#include "serve/http.h"
#include "serve/result_cache.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/simd_dispatch.h"
#include "util/stats_registry.h"

extern char** environ;

namespace {

using namespace jury;

using Clock = std::chrono::steady_clock;

double Now() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

/// The spawned server, if any: `Fail` must not leave it running.
pid_t g_server_pid = -1;

[[noreturn]] void Fail(const std::string& message) {
  std::cerr << "perfbench_probe: " << message << "\n";
  if (g_server_pid > 0) {
    ::kill(g_server_pid, SIGKILL);
    ::waitpid(g_server_pid, nullptr, 0);
  }
  std::exit(2);
}

// ------------------------------------------------------------------ flags

class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      const std::size_t eq = arg.find('=');
      if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
        Fail("bad flag: " + arg);
      }
      values_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
    }
  }
  std::string Get(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end()) Fail("missing --" + key);
    return it->second;
  }
  std::string GetOr(const std::string& key, const std::string& fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  double Number(const std::string& key) const {
    return std::strtod(Get(key).c_str(), nullptr);
  }

 private:
  std::map<std::string, std::string> values_;
};

std::vector<std::string> ReadLines(const std::string& path) {
  std::vector<std::string> lines;
  if (path.empty()) return lines;
  std::ifstream in(path);
  if (!in) Fail("cannot read " + path);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

std::vector<std::size_t> ReadIndices(const std::string& path) {
  std::vector<std::size_t> indices;
  for (const std::string& line : ReadLines(path)) {
    indices.push_back(std::strtoull(line.c_str(), nullptr, 10));
  }
  return indices;
}

// ------------------------------------------------------------- JSON output

template <typename T>
Json ToJsonArray(const std::vector<T>& values) {
  Json array = Json::Array();
  for (const T& value : values) array.Append(value);
  return array;
}

/// A reply body as a JSON document for the run's output. A body that is
/// not JSON becomes null, and an error names it.
Json ParsedBody(const std::string& body, const std::string& label,
                std::vector<std::string>* errors) {
  auto parsed = Json::Parse(body);
  if (!parsed.ok()) {
    errors->push_back(label + ": reply is not JSON");
    return Json();
  }
  return std::move(parsed).value();
}

void WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text << "\n";
  if (!out) Fail("cannot write " + path);
}

/// A mode's output object, starting with the host facts recorded beside
/// every run.
Json OutputWithEnvironment() {
  const char* threads = std::getenv("JURYOPT_THREADS");
  Json out = Json::Object();
  out.Set("hardware_threads", std::uint64_t{std::max(
                                  1u, std::thread::hardware_concurrency())})
      .Set("simd_level", simd::LevelName(simd::ActiveLevel()))
      .Set("juryopt_threads_env", threads == nullptr ? "" : threads);
  return out;
}

// ------------------------------------------------------------- host probes

/// `field` (e.g. "VmHWM:") of /proc/<pid>/status, in KiB.
std::uint64_t ProcStatusKb(const std::string& pid, const std::string& field) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field, 0) == 0) {
      return std::strtoull(line.c_str() + field.size(), nullptr, 10);
    }
  }
  return 0;
}

struct CpuTimes {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};

CpuTimes ReadCpuTimes() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  CpuTimes times;
  std::uint64_t value = 0;
  for (int field = 0; field < 8 && (in >> value); ++field) {
    times.total += value;
    if (field == 7) times.steal = value;
  }
  return times;
}

double StealShare(const CpuTimes& before, const CpuTimes& after) {
  const std::uint64_t total = after.total - before.total;
  return total == 0 ? 0.0
                    : static_cast<double>(after.steal - before.steal) /
                          static_cast<double>(total);
}

/// The reply with its two run-dependent fields blanked: `wall_seconds`
/// (the measured solve time) and `stats.cache_hit` (set only on hits).
std::string Normalized(std::string body) {
  const std::string wall = "\"wall_seconds\":";
  std::size_t pos = body.find(wall);
  if (pos != std::string::npos) {
    const std::size_t start = pos + wall.size();
    const std::size_t end = body.find_first_of(",}", start);
    if (end != std::string::npos) {
      body.erase(start, end - start);
      body.insert(start, 1, '0');
    }
  }
  const std::string hit = "\"cache_hit\":";
  pos = body.find(hit);
  if (pos != std::string::npos) {
    std::size_t end = body.find_first_of(",}", pos);
    if (end == std::string::npos) return body;
    if (body[end] == ',') {
      ++end;
    } else if (pos > 0 && body[pos - 1] == ',') {
      --pos;
    }
    body.erase(pos, end - pos);
  }
  return body;
}

double ReportWallSeconds(const std::string& body) {
  const std::string wall = "\"wall_seconds\":";
  const std::size_t pos = body.find(wall);
  if (pos == std::string::npos) return 0.0;
  return std::strtod(body.c_str() + pos + wall.size(), nullptr);
}

std::string HttpPost(const std::string& body) {
  return "POST /solve HTTP/1.1\r\nHost: perfbench\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

// ------------------------------------------------------------- HTTP client

struct HttpReply {
  int status = 0;
  std::string body;
};

/// One keep-alive connection. `RoundTrip` sends a request and reads its
/// whole reply before returning, so the connection never has two requests
/// in flight (`jury_serve` drops pipelined /solve bytes).
class HttpConnection {
 public:
  HttpConnection() = default;
  ~HttpConnection() { Close(); }
  HttpConnection(const HttpConnection&) = delete;
  HttpConnection& operator=(const HttpConnection&) = delete;

  bool Connect(int port) {
    Close();
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) return false;
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    return ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof(addr)) == 0;
  }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
    pending_.clear();
  }

  bool RoundTrip(const std::string& wire, HttpReply* reply) {
    std::size_t sent = 0;
    while (sent < wire.size()) {
      const ssize_t n =
          ::send(fd_, wire.data() + sent, wire.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    std::size_t header_end = pending_.find("\r\n\r\n");
    while (header_end == std::string::npos) {
      if (!ReadMore()) return false;
      header_end = pending_.find("\r\n\r\n");
    }
    if (pending_.rfind("HTTP/1.1 ", 0) != 0) return false;
    reply->status = std::atoi(pending_.c_str() + 9);
    std::size_t length = 0;
    const std::string key = "\r\ncontent-length:";
    for (std::size_t i = 0; i + key.size() <= header_end; ++i) {
      if (strncasecmp(pending_.c_str() + i, key.c_str(), key.size()) == 0) {
        length = std::strtoull(pending_.c_str() + i + key.size(), nullptr, 10);
        break;
      }
    }
    const std::size_t body_start = header_end + 4;
    while (pending_.size() < body_start + length) {
      if (!ReadMore()) return false;
    }
    reply->body = pending_.substr(body_start, length);
    pending_.erase(0, body_start + length);
    return true;
  }

  bool Get(const std::string& target, HttpReply* reply) {
    return RoundTrip("GET " + target + " HTTP/1.1\r\nHost: perfbench\r\n\r\n",
                     reply);
  }

 private:
  bool ReadMore() {
    char chunk[16384];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    pending_.append(chunk, static_cast<std::size_t>(n));
    return true;
  }

  int fd_ = -1;
  std::string pending_;
};

// ------------------------------------------------------------- the server

/// Pins the calling thread (and what it later spawns) to CPUs
/// [first, first + count). On hosts with fewer than four CPUs nothing is
/// pinned: the split below needs one CPU for the client.
void PinToCpus(unsigned first, unsigned count) {
  if (std::thread::hardware_concurrency() < 4) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (unsigned cpu = first; cpu < first + count; ++cpu) CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

/// The server gets every CPU but the last; the client keeps the last one,
/// so the two never compete for a CPU and neither migrates between runs.
void PinServerSide() {
  PinToCpus(0, std::thread::hardware_concurrency() - 1);
}
void PinClientSide() {
  PinToCpus(std::thread::hardware_concurrency() - 1, 1);
}

/// A spawned `jury_serve`: its stdout is piped back so the bound port can
/// be read from the `listening on HOST:PORT` line.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { Stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Spawns `argv` and waits for its listening line; returns the port.
  int Start(const std::vector<std::string>& argv) {
    int pipe_fds[2];
    if (::pipe2(pipe_fds, O_CLOEXEC) != 0) Fail("pipe2 failed");
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, pipe_fds[1], STDOUT_FILENO);
    std::vector<char*> args;
    for (const std::string& arg : argv) args.push_back(const_cast<char*>(arg.c_str()));
    args.push_back(nullptr);
    const int rc = posix_spawnp(&pid_, args[0], &actions, nullptr,
                                args.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(pipe_fds[1]);
    out_fd_ = pipe_fds[0];
    if (rc != 0) {
      pid_ = -1;
      Fail("cannot spawn " + argv[0]);
    }
    g_server_pid = pid_;
    std::string output;
    const double deadline = Now() + 60.0;
    while (Now() < deadline) {
      const std::size_t at = output.find("listening on ");
      const std::size_t eol =
          at == std::string::npos ? at : output.find('\n', at);
      if (eol != std::string::npos) {
        const std::size_t colon = output.rfind(':', eol);
        return std::atoi(output.c_str() + colon + 1);
      }
      pollfd pfd{out_fd_, POLLIN, 0};
      if (::poll(&pfd, 1, 1000) <= 0) continue;
      char chunk[512];
      const ssize_t n = ::read(out_fd_, chunk, sizeof(chunk));
      if (n <= 0) break;
      output.append(chunk, static_cast<std::size_t>(n));
    }
    Fail("server did not report its port: " + output);
  }

  pid_t pid() const { return pid_; }

  /// SIGTERM (graceful drain), then waits for the exit; SIGKILL after 30 s.
  /// Returns the wait status, or -1 when no server was running.
  int Stop() {
    if (pid_ < 0) return -1;
    ::kill(pid_, SIGTERM);
    const double deadline = Now() + 30.0;
    char chunk[512];
    while (Now() < deadline) {
      pollfd pfd{out_fd_, POLLIN, 0};
      if (::poll(&pfd, 1, 200) > 0 && ::read(out_fd_, chunk, sizeof(chunk)) <= 0) {
        break;
      }
    }
    int status = 0;
    if (Now() >= deadline) ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
    ::close(out_fd_);
    out_fd_ = -1;
    pid_ = -1;
    g_server_pid = -1;
    return status;
  }

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
};

// ------------------------------------------------------------ served mode

struct HitSample {
  double latency_ms = 0.0;  // from the due time to the full reply
  double late_ms = 0.0;     // send time minus due time
};

/// Checks a hit reply against the warm (cold) reply of the same request:
/// byte for byte except `wall_seconds` and `stats.cache_hit`; every later
/// hit of that request must then repeat the first hit's bytes exactly.
class HitChecker {
 public:
  explicit HitChecker(const std::vector<std::string>* warm_replies)
      : warm_replies_(warm_replies), first_hit_(warm_replies->size()) {}

  std::optional<std::string> Check(std::size_t index, const HttpReply& reply) {
    if (reply.status != 200) {
      return "hit " + std::to_string(index) + ": status " +
             std::to_string(reply.status);
    }
    if (reply.body.find("\"cache_hit\":") == std::string::npos) {
      return "hit " + std::to_string(index) + ": reply is not a cache hit";
    }
    std::optional<std::string>& first = first_hit_[index];
    if (!first.has_value()) {
      if (Normalized(reply.body) != Normalized((*warm_replies_)[index])) {
        return "hit " + std::to_string(index) + ": differs from its cold reply";
      }
      first = reply.body;
    } else if (reply.body != *first) {
      return "hit " + std::to_string(index) + ": differs from its first hit";
    }
    return std::nullopt;
  }

 private:
  const std::vector<std::string>* warm_replies_;
  std::vector<std::optional<std::string>> first_hit_;
};

/// Plans a pool CSV the way `jury_serve` does.
api::PoolPlanContext PlanCsv(const std::string& path) {
  auto workers = LoadWorkersCsv(path);
  if (!workers.ok()) Fail("cannot load " + path);
  api::PlanOptions options;
  options.assume_validated = true;
  auto context = api::PoolPlanContext::Plan(std::move(workers).value(), options);
  if (!context.ok()) Fail("cannot plan " + path);
  return std::move(context).value();
}

api::PoolPlanContext PlanSnapshot(const std::string& path) {
  auto context = api::PoolPlanContext::PlanFromSnapshot(path);
  if (!context.ok()) Fail("cannot plan from " + path);
  return std::move(context).value();
}

/// Re-solves every `sample_every`-th (request, reply) pair untimed on the
/// server's pool and compares the reports, `wall_seconds` aside.
void CompareInProcess(const std::string& pool_csv,
                      const std::vector<std::string>& requests,
                      const std::vector<std::string>& replies,
                      std::size_t sample_every, const std::string& label,
                      std::size_t* compared, std::vector<std::string>* errors) {
  api::PoolPlanContext context = PlanCsv(pool_csv);
  for (std::size_t i = 0; i < replies.size(); i += sample_every) {
    auto request = api::SolveRequest::FromJsonText(requests[i]);
    if (!request.ok()) Fail("bad generated request: " + requests[i]);
    auto report = context.Solve(request.value());
    ++*compared;
    if (!report.ok() ||
        Normalized(report.value().ToJson()) != Normalized(replies[i])) {
      errors->push_back(label + " " + std::to_string(i) +
                        ": differs from the in-process solve");
    }
  }
}

int RunServed(const Flags& flags) {
  const std::string workload = flags.Get("workload");
  const bool cold_mode = workload == "cold_optjs";
  const std::string pool_csv = flags.Get("pool");
  const std::vector<std::string> warm = ReadLines(flags.Get("warm"));
  const std::vector<std::string> cold = ReadLines(flags.GetOr("cold", ""));
  const std::vector<std::size_t> loop = ReadIndices(flags.GetOr("loop", ""));
  const std::vector<std::size_t> hits = ReadIndices(flags.GetOr("hits", ""));
  const double seconds = flags.Number("seconds");
  const int setups = static_cast<int>(flags.Number("setups"));
  const std::size_t block = static_cast<std::size_t>(flags.Number("block"));
  const double hit_rate = std::strtod(flags.GetOr("hit-rate", "0").c_str(), nullptr);
  const std::size_t hit_conns =
      std::strtoull(flags.GetOr("hit-conns", "0").c_str(), nullptr, 10);
  const std::size_t sample_every =
      std::strtoull(flags.GetOr("sample-every", "0").c_str(), nullptr, 10);
  const std::string out_dir = flags.Get("out");
  const std::vector<std::string> server_argv = {flags.Get("server"), pool_csv};

  std::vector<std::string> errors;
  std::size_t attempted = 0;
  std::vector<double> setup_s;
  std::vector<std::string> warm_replies(warm.size());
  std::vector<double> warm_latency_ms(warm.size());
  ServerProcess server;
  HttpConnection main_conn;
  int port = 0;
  for (int s = 0; s < setups; ++s) {
    if (s > 0) {
      main_conn.Close();
      server.Stop();
    }
    const double start = Now();
    PinServerSide();
    port = server.Start(server_argv);
    PinClientSide();
    if (!main_conn.Connect(port)) Fail("cannot connect to the server");
    HttpReply reply;
    if (!main_conn.Get("/healthz", &reply) || reply.status != 200) {
      Fail("server is not healthy");
    }
    for (std::size_t i = 0; i < warm.size(); ++i) {
      const double sent = Now();
      if (!main_conn.RoundTrip(HttpPost(warm[i]), &reply) ||
          reply.status != 200) {
        Fail("cache warm request " + std::to_string(i) + " failed");
      }
      warm_latency_ms[i] = (Now() - sent) * 1e3;
      warm_replies[i] = reply.body;
    }
    setup_s.push_back(Now() - start);
  }
  attempted += warm.size();

  std::vector<HttpConnection> hit_connections(cold_mode ? hit_conns : 0);
  for (HttpConnection& conn : hit_connections) {
    if (!conn.Connect(port)) Fail("cannot connect the hit stream");
  }
  HttpReply stats_before;
  if (!main_conn.Get("/stats", &stats_before)) Fail("GET /stats failed");
  const CpuTimes cpu_before = ReadCpuTimes();

  // Open-loop cache hits (cold_optjs): hit k is due at start + k / rate and
  // goes out on connection k mod C as soon as that connection is free; its
  // latency runs from the due time, so waiting behind a solve counts.
  std::atomic<bool> stop{false};
  std::vector<std::vector<HitSample>> hit_samples(hit_connections.size());
  std::vector<std::vector<std::string>> hit_errors(hit_connections.size());
  std::vector<std::thread> hit_threads;
  const double start = Now();
  for (std::size_t c = 0; c < hit_connections.size(); ++c) {
    hit_threads.emplace_back([&, c] {
      HitChecker checker(&warm_replies);
      for (std::size_t k = c;; k += hit_connections.size()) {
        const double due = start + static_cast<double>(k) / hit_rate;
        std::this_thread::sleep_until(
            Clock::time_point(std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(due))));
        if (stop.load()) break;
        const std::size_t index = hits[k % hits.size()];
        const double sent = Now();
        HttpReply reply;
        if (!hit_connections[c].RoundTrip(HttpPost(warm[index]), &reply)) {
          hit_errors[c].push_back("hit connection failed");
          break;
        }
        const double done = Now();
        hit_samples[c].push_back({(done - due) * 1e3, (sent - due) * 1e3});
        if (auto error = checker.Check(index, reply)) {
          hit_errors[c].push_back(*error);
        }
      }
    });
  }

  // The closed loop, in whole blocks until the run time is spent.
  std::vector<double> latency_ms;
  std::vector<double> wall_s;
  std::vector<std::string> cold_replies;
  std::vector<double> block_s;
  std::size_t completed = 0;
  HitChecker loop_checker(&warm_replies);
  // The hit loop wraps around its order file; the cold list does not.
  const std::size_t length = cold_mode ? cold.size() : SIZE_MAX / 2;
  for (std::size_t begin = 0; begin + block <= length; begin += block) {
    const double block_start = Now();
    for (std::size_t i = begin; i < begin + block; ++i) {
      const std::size_t index = cold_mode ? i : loop[i % loop.size()];
      const std::string wire = HttpPost(cold_mode ? cold[i] : warm[index]);
      HttpReply reply;
      const double sent = Now();
      const bool ok = main_conn.RoundTrip(wire, &reply);
      const double done = Now();
      if (!ok) Fail("connection to the server failed");
      latency_ms.push_back((done - sent) * 1e3);
      ++completed;
      if (cold_mode) {
        if (reply.status != 200) {
          errors.push_back("cold " + std::to_string(i) + ": status " +
                           std::to_string(reply.status));
        }
        wall_s.push_back(ReportWallSeconds(reply.body));
        cold_replies.push_back(std::move(reply.body));
      } else if (auto error = loop_checker.Check(index, reply)) {
        errors.push_back(*error);
      }
    }
    block_s.push_back(Now() - block_start);
    if (Now() - start >= seconds) break;
  }
  const double elapsed = Now() - start;
  stop.store(true);
  for (std::thread& thread : hit_threads) thread.join();
  const CpuTimes cpu_after = ReadCpuTimes();
  HttpReply stats_after;
  if (!main_conn.Get("/stats", &stats_after)) Fail("GET /stats failed");
  const std::uint64_t hwm_kb = ProcStatusKb(std::to_string(server.pid()), "VmHWM:");
  main_conn.Close();
  hit_connections.clear();
  const int exit_status = server.Stop();
  if (!WIFEXITED(exit_status) || WEXITSTATUS(exit_status) != 0) {
    errors.push_back("server did not drain and exit cleanly");
  }

  std::vector<double> hit_latency_ms;
  std::vector<double> hit_late_ms;
  for (std::size_t c = 0; c < hit_samples.size(); ++c) {
    for (const HitSample& sample : hit_samples[c]) {
      hit_latency_ms.push_back(sample.latency_ms);
      hit_late_ms.push_back(sample.late_ms);
    }
    errors.insert(errors.end(), hit_errors[c].begin(), hit_errors[c].end());
  }
  attempted += completed + hit_latency_ms.size();

  // Untimed: sampled replies against in-process solves of the same bytes.
  std::size_t compared = 0;
  if (sample_every > 0) {
    if (cold_mode) {
      CompareInProcess(pool_csv, cold, cold_replies, sample_every, "cold",
                       &compared, &errors);
    } else {
      CompareInProcess(pool_csv, warm, warm_replies, sample_every, "warm",
                       &compared, &errors);
    }
  }

  Json cold_json = Json::Array();
  for (std::size_t i = 0; i < cold_replies.size(); ++i) {
    cold_json.Append(
        ParsedBody(cold_replies[i], "cold " + std::to_string(i), &errors));
  }
  Json warm_json = Json::Array();
  std::vector<double> warm_wall_s;
  for (std::size_t i = 0; i < warm_replies.size(); ++i) {
    warm_json.Append(
        ParsedBody(warm_replies[i], "warm " + std::to_string(i), &errors));
    warm_wall_s.push_back(ReportWallSeconds(warm_replies[i]));
  }
  Json before = ParsedBody(stats_before.body, "GET /stats", &errors);
  Json after = ParsedBody(stats_after.body, "GET /stats", &errors);

  Json out = OutputWithEnvironment();
  out.Set("setup_s", ToJsonArray(setup_s))
      .Set("elapsed_s", elapsed)
      .Set("completed", std::uint64_t{completed})
      .Set("block_s", ToJsonArray(block_s))
      .Set("latency_ms", ToJsonArray(latency_ms))
      .Set("wall_s", ToJsonArray(wall_s))
      .Set("hit_latency_ms", ToJsonArray(hit_latency_ms))
      .Set("hit_late_ms", ToJsonArray(hit_late_ms))
      .Set("warm_latency_ms", ToJsonArray(warm_latency_ms))
      .Set("warm_wall_s", ToJsonArray(warm_wall_s))
      .Set("peak_rss_kb", std::uint64_t{hwm_kb})
      .Set("steal_share", StealShare(cpu_before, cpu_after))
      .Set("attempted", std::uint64_t{attempted})
      .Set("compared_in_process", std::uint64_t{compared})
      .Set("errors", ToJsonArray(errors))
      .Set("stats_before", std::move(before))
      .Set("stats_after", std::move(after))
      .Set("cold_replies", std::move(cold_json))
      .Set("warm_replies", std::move(warm_json));
  WriteFile(out_dir + "/served.json", out.Dump());
  return 0;
}

// ------------------------------------------------------------- churn mode

struct ChurnOp {
  bool is_solve = false;
  std::string body;
  api::SolveRequest request;
  std::vector<api::PoolDeltaUpdate> updates;
};

/// Op lines: `S <request JSON>` or `D <index> <quality> <cost> ...`.
std::vector<ChurnOp> ReadChurnOps(const std::string& path) {
  std::vector<ChurnOp> ops;
  for (const std::string& line : ReadLines(path)) {
    ChurnOp op;
    if (line.rfind("S ", 0) == 0) {
      op.is_solve = true;
      op.body = line.substr(2);
      auto request = api::SolveRequest::FromJsonText(op.body);
      if (!request.ok()) Fail("bad generated request: " + op.body);
      op.request = std::move(request).value();
    } else if (line.rfind("D ", 0) == 0) {
      std::istringstream in(line.substr(2));
      api::PoolDeltaUpdate update;
      while (in >> update.index >> update.quality >> update.cost) {
        op.updates.push_back(update);
      }
    } else {
      Fail("bad op line: " + line);
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

/// The process's registry in the shape of `GET /stats`, so run.py diffs
/// library and served runs alike.
Json RegistryStats() {
  Json stats = Json::Object();
  stats.Set("registry", StatsRegistry::Global().ToJsonValue());
  return stats;
}

int RunChurn(const Flags& flags) {
  const std::string snapshot = flags.Get("snapshot");
  const std::vector<ChurnOp> ops = ReadChurnOps(flags.Get("ops"));
  const double seconds = flags.Number("seconds");
  const std::size_t sample_every =
      static_cast<std::size_t>(flags.Number("sample-every"));
  const std::string out_dir = flags.Get("out");

  std::vector<std::string> errors;
  std::vector<std::string> reference(ops.size());  // round 0's juries
  std::vector<double> setup_s;
  std::vector<double> solve_ms;
  std::vector<double> lease_hit_solve_ms;
  std::vector<double> delta_ms;
  std::vector<double> overhead_ms;
  double solve_wall_s = 0.0;
  double op_s = 0.0;
  std::vector<double> round_op_s;
  std::size_t timed_ops = 0;
  std::size_t attempted = 0;
  std::size_t frontier_checks = 0;
  std::vector<double> rss_kb_per_bump;
  Json stats_before;
  const CpuTimes cpu_before = ReadCpuTimes();
  double timed_start = 0.0;

  // Round 0 checks every reply; later rounds are timed and must repeat
  // round 0's juries exactly. Each round plans a fresh context, so the
  // retired epochs of one round are freed before the next.
  for (std::size_t round = 0;; ++round) {
    const bool checking = round == 0;
    if (round == 1) {
      timed_start = Now();
      stats_before = RegistryStats();
    }
    if (!checking && Now() - timed_start >= seconds) break;
    const double setup_start = Now();
    api::PoolPlanContext context = PlanSnapshot(snapshot);
    context.sharded_pool();
    { auto lease = context.AcquireInstance(0.0, 0.5); }
    setup_s.push_back(Now() - setup_start);

    const double timed_op_s_before = op_s;
    bool after_bump = false;
    for (std::size_t j = 0; j < ops.size(); ++j) {
      const ChurnOp& op = ops[j];
      ++attempted;
      if (!op.is_solve) {
        if (checking) {
          rss_kb_per_bump.push_back(
              static_cast<double>(ProcStatusKb("self", "VmRSS:")));
        }
        const double begin = Now();
        const Status status = context.ApplyPoolDelta(op.updates);
        const double end = Now();
        if (!status.ok()) errors.push_back("delta " + std::to_string(j) + " failed");
        if (!checking) {
          delta_ms.push_back((end - begin) * 1e3);
          op_s += end - begin;
          ++timed_ops;
        }
        after_bump = true;
        continue;
      }
      const double begin = Now();
      Result<api::SolveReport> report = context.Solve(op.request);
      const double end = Now();
      if (!report.ok()) {
        errors.push_back("solve " + std::to_string(j) + " failed");
        continue;
      }
      const std::string solution = report.value().solution.ToJsonValue().Dump();
      if (checking) {
        reference[j] = solution;
        if (sample_every > 0 && j % sample_every == 0) {
          api::SolveRequest full = op.request;
          full.tuning.greedy.frontier_k = 0;
          auto full_report = context.Solve(full);
          ++frontier_checks;
          if (!full_report.ok() ||
              !(full_report.value().solution == report.value().solution)) {
            errors.push_back("solve " + std::to_string(j) +
                             ": frontier jury differs from the full scan");
          }
        }
      } else {
        if (solution != reference[j]) {
          errors.push_back("solve " + std::to_string(j) + " in round " +
                           std::to_string(round) + " differs from round 0");
        }
        const double ms = (end - begin) * 1e3;
        solve_ms.push_back(ms);
        if (!after_bump) lease_hit_solve_ms.push_back(ms);
        overhead_ms.push_back(ms - report.value().wall_seconds * 1e3);
        solve_wall_s += report.value().wall_seconds;
        op_s += end - begin;
        ++timed_ops;
      }
      after_bump = false;
    }
    if (checking) {
      rss_kb_per_bump.push_back(
          static_cast<double>(ProcStatusKb("self", "VmRSS:")));
    } else {
      round_op_s.push_back(op_s - timed_op_s_before);
    }
  }
  const double elapsed = Now() - timed_start;
  Json stats_after = RegistryStats();

  Json solutions = Json::Array();
  for (std::size_t j = 0; j < ops.size(); ++j) {
    if (!ops[j].is_solve) continue;
    solutions.Append(reference[j].empty()
                         ? Json()
                         : ParsedBody(reference[j], "solve " + std::to_string(j),
                                      &errors));
  }

  Json out = OutputWithEnvironment();
  out.Set("setup_s", ToJsonArray(setup_s))
      .Set("elapsed_s", elapsed)
      .Set("op_s", op_s)
      .Set("round_op_s", ToJsonArray(round_op_s))
      .Set("timed_ops", std::uint64_t{timed_ops})
      .Set("latency_ms", ToJsonArray(solve_ms))
      .Set("lease_hit_latency_ms", ToJsonArray(lease_hit_solve_ms))
      .Set("delta_ms", ToJsonArray(delta_ms))
      .Set("overhead_ms", ToJsonArray(overhead_ms))
      .Set("solve_wall_s", solve_wall_s)
      .Set("rss_kb_per_bump", ToJsonArray(rss_kb_per_bump))
      .Set("peak_rss_kb", std::uint64_t{ProcStatusKb("self", "VmHWM:")})
      .Set("steal_share", StealShare(cpu_before, ReadCpuTimes()))
      .Set("attempted", std::uint64_t{attempted})
      .Set("frontier_checks", std::uint64_t{frontier_checks})
      .Set("stats_before", std::move(stats_before))
      .Set("stats_after", std::move(stats_after))
      .Set("errors", ToJsonArray(errors))
      .Set("solutions", std::move(solutions));
  WriteFile(out_dir + "/churn.json", out.Dump());
  return 0;
}

// ------------------------------------------------------------- trace mode

/// In-memory spans, written out when the replay ends. Disabled tracers
/// record nothing, so the untraced pass runs the same calls bare.
class Tracer {
 public:
  struct Span {
    const char* name;
    double start;
    double end;
    long parent;
    long request;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  long Open(const char* name, long request) {
    if (!enabled_) return -1;
    const long parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({name, Now(), 0.0, parent, request});
    open_.push_back(static_cast<long>(spans_.size()) - 1);
    return open_.back();
  }
  void Close(long index) {
    if (index < 0) return;
    spans_[static_cast<std::size_t>(index)].end = Now();
    open_.pop_back();
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<long> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, long request)
      : tracer_(tracer), index_(tracer->Open(name, request)) {}
  ~ScopedSpan() { tracer_->Close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  long index_;
};

/// Layer counts gathered beside the spans.
struct TraceCounts {
  double annealing_moves = 0;
  double eval_full = 0;
  double eval_incremental = 0;
  double refine_keys = 0;
  double frontier_scanned = 0;
  double frontier_scans = 0;
  double solves = 0;
  double phase_requests = 0;
  double shard_rebuilds = 0;
  double bumps = 0;
};

/// The served path of one request, replayed call by call: HTTP parse, JSON
/// bind, cache key, cache lookup, (on a miss) the in-process solve, report
/// JSON, HTTP response.
void ReplayServedRequest(Tracer* tracer, long id, const std::string& body,
                         api::PoolPlanContext* context,
                         serve::ResultCache* cache, TraceCounts* counts) {
  ScopedSpan root(tracer, "request", id);
  const std::string wire = HttpPost(body);
  {
    ScopedSpan span(tracer, "serve.http_parse", id);
    serve::HttpParser parser;
    parser.Feed(wire);
    if (!parser.complete()) Fail("replayed request did not parse");
  }
  Result<api::SolveRequest> request = Status::Internal("unbound");
  {
    ScopedSpan span(tracer, "api.json_bind", id);
    request = api::SolveRequest::FromJsonText(body);
  }
  if (!request.ok()) Fail("bad generated request: " + body);
  std::string key;
  {
    ScopedSpan span(tracer, "api.cache_key", id);
    key = request.value().ToJson();
  }
  api::SolveReport report;
  bool hit = false;
  {
    ScopedSpan span(tracer, "api.cache_lookup", id);
    hit = cache->Lookup(0, key, &report);
  }
  if (!hit) {
    Result<api::SolveReport> solved = Status::Internal("unsolved");
    {
      ScopedSpan span(tracer, "api.solve", id);
      solved = context->Solve(request.value());
    }
    if (!solved.ok()) Fail("replayed solve failed: " + body);
    report = std::move(solved).value();
    counts->solves += 1;
    counts->eval_full += static_cast<double>(report.evaluations.full);
    counts->eval_incremental +=
        static_cast<double>(report.evaluations.incremental);
    cache->Insert(0, key, report);
  }
  std::string json;
  {
    ScopedSpan span(tracer, "api.report_json", id);
    json = report.ToJson();
  }
  {
    ScopedSpan span(tracer, "serve.http_format", id);
    const std::string response = serve::FormatHttpResponse(200, "OK", json, true);
    if (response.empty()) Fail("empty response");
  }
}

/// The OPTJS phases as separate public calls on the request's inputs:
/// lease, annealing, the two greedy fallbacks, and the tight JQ
/// re-estimates of all three juries. Not an asserted decomposition of
/// `SolveOptjs`; the same calls keep working when a solve changes inside.
void ReplayOptjsPhases(Tracer* tracer, long id, const api::SolveRequest& request,
                       api::PoolPlanContext* context, TraceCounts* counts) {
  ScopedSpan root(tracer, "phases", id);
  const OptjsOptions& optjs = request.tuning.optjs;
  std::optional<api::PoolPlanContext::InstanceLease> lease;
  {
    ScopedSpan span(tracer, "api.lease", id);
    lease.emplace(context->AcquireInstance(request.budget, request.alpha));
  }
  const JspInstance& instance = lease->instance();
  const WorkerPoolView& view = context->view();
  const BucketBvObjective objective(optjs.bucket);
  AnnealingOptions annealing = optjs.annealing;
  annealing.use_incremental &= optjs.use_incremental;
  annealing.num_threads = optjs.num_threads;
  GreedyOptions greedy;
  greedy.use_incremental = optjs.use_incremental;
  greedy.num_threads = optjs.num_threads;
  std::vector<JspSolution> juries;
  {
    ScopedSpan span(tracer, "core.annealing", id);
    Rng rng(request.rng_seed);
    AnnealingStats stats;
    auto solved = SolveAnnealing(instance, view, objective, &rng, annealing, &stats);
    if (!solved.ok()) Fail("replayed annealing failed");
    juries.push_back(std::move(solved).value());
    counts->annealing_moves += static_cast<double>(stats.moves_attempted);
  }
  {
    ScopedSpan span(tracer, "core.fallbacks", id);
    auto by_quality = SolveGreedyByQuality(instance, view, objective, greedy);
    auto by_value = SolveGreedyByValuePerCost(instance, view, objective, greedy);
    if (!by_quality.ok() || !by_value.ok()) Fail("replayed fallback failed");
    juries.push_back(std::move(by_quality).value());
    juries.push_back(std::move(by_value).value());
  }
  {
    ScopedSpan span(tracer, "jq.refine", id);
    for (const JspSolution& jury : juries) {
      if (jury.selected.empty()) continue;
      BucketJqOptions tight = optjs.bucket;
      tight.num_buckets = std::max(
          tight.num_buckets, 200 * static_cast<int>(jury.selected.size() + 1));
      BucketJqStats stats;
      if (!EstimateJq(jury.ToJury(instance), instance.alpha, tight, &stats).ok()) {
        Fail("replayed refinement failed");
      }
      counts->refine_keys += static_cast<double>(stats.keys_expanded);
    }
  }
  counts->phase_requests += 1;
}

/// One churn op: a frontier solve (lease, the core greedy-mg call with its
/// frontier counters, and the library solve itself) or a pool delta.
void ReplayChurnOp(Tracer* tracer, long id, const ChurnOp& op,
                   api::PoolPlanContext* context, TraceCounts* counts) {
  if (!op.is_solve) {
    const std::uint64_t rebuilds_before =
        StatsRegistry::Global().Snapshot()["pool.shard_rebuilds"];
    {
      ScopedSpan span(tracer, "model.apply_delta", id);
      if (!context->ApplyPoolDelta(op.updates).ok()) Fail("replayed delta failed");
    }
    counts->shard_rebuilds += static_cast<double>(
        StatsRegistry::Global().Snapshot()["pool.shard_rebuilds"] - rebuilds_before);
    counts->bumps += 1;
    return;
  }
  {
    ScopedSpan span(tracer, "api.lease", id);
    auto lease = context->AcquireInstance(op.request.budget, op.request.alpha);
  }
  {
    ScopedSpan root(tracer, "frontier", id);
    auto lease = context->AcquireInstance(op.request.budget, op.request.alpha);
    const BucketBvObjective objective(op.request.tuning.bucket);
    GreedyOptions greedy = op.request.tuning.greedy;
    greedy.sharded_pool = context->sharded_pool();
    FrontierScanStats stats;
    greedy.frontier_stats = &stats;
    ScopedSpan span(tracer, "core.greedy_mg", id);
    if (!SolveGreedyMarginalGain(lease.instance(), context->view(), objective,
                                 greedy).ok()) {
      Fail("replayed greedy-mg failed");
    }
    counts->frontier_scanned += static_cast<double>(stats.candidates_scanned);
    counts->frontier_scans += static_cast<double>(stats.scans);
  }
  Result<api::SolveReport> report = Status::Internal("unsolved");
  {
    ScopedSpan span(tracer, "api.solve", id);
    report = context->Solve(op.request);
  }
  if (!report.ok()) Fail("replayed solve failed: " + op.body);
  counts->solves += 1;
  counts->eval_full += static_cast<double>(report.value().evaluations.full);
  counts->eval_incremental +=
      static_cast<double>(report.value().evaluations.incremental);
}

std::string SpansCsv(const Tracer& tracer, double origin) {
  std::string out = "name,start_us,end_us,parent,request\n";
  char line[160];
  for (const Tracer::Span& span : tracer.spans()) {
    std::snprintf(line, sizeof(line), "%s,%.3f,%.3f,%ld,%ld\n", span.name,
                  (span.start - origin) * 1e6, (span.end - origin) * 1e6,
                  span.parent, span.request);
    out += line;
  }
  return out;
}

/// A workload's generated inputs, as the trace replays them.
struct TraceInputs {
  std::string workload;
  std::string snapshot;              // large_pool_churn
  std::vector<ChurnOp> ops;          // large_pool_churn
  std::string pool_csv;              // served workloads
  std::vector<std::string> warm;     // served workloads
  std::vector<std::string> cold;     // cold_optjs
  std::vector<std::size_t> loop;     // hot_hits
};

/// One replay mode: its own tracer, counts, context and cache, all fresh at
/// the start, so neither mode warms the other's state.
struct Replayer {
  explicit Replayer(bool tracing) : tracer(tracing) {}
  Tracer tracer;
  TraceCounts counts;
  std::optional<api::PoolPlanContext> context;
  serve::ResultCache cache;
  std::vector<double> block_s;
};

/// Plans the replayer's context, recording the model set-up spans on
/// churn. On hot_hits it also fills the cache untraced from the warm set,
/// as the server's set-up does, so the replayed loop is all hits.
void SetUpReplayer(const TraceInputs& in, Replayer* r) {
  if (in.workload == "large_pool_churn") {
    {
      ScopedSpan span(&r->tracer, "model.snapshot_plan", -1);
      r->context.emplace(PlanSnapshot(in.snapshot));
    }
    ScopedSpan span(&r->tracer, "model.shard_build", -1);
    r->context->sharded_pool();
    return;
  }
  r->context.emplace(PlanCsv(in.pool_csv));
  if (in.workload == "hot_hits") {
    Tracer off(false);
    TraceCounts discard;
    for (const std::string& body : in.warm) {
      ReplayServedRequest(&off, -1, body, &*r->context, &r->cache, &discard);
    }
  }
}

/// Replays op `i` of the workload through `r`: a churn op, a hit of the
/// loop, or a distinct cold request followed by its OPTJS phases.
void ReplayOp(const TraceInputs& in, std::size_t i, Replayer* r) {
  const long id = static_cast<long>(i);
  if (in.workload == "large_pool_churn") {
    ReplayChurnOp(&r->tracer, id, in.ops[i], &*r->context, &r->counts);
  } else if (in.workload == "hot_hits") {
    ReplayServedRequest(&r->tracer, id, in.warm[in.loop[i % in.loop.size()]],
                        &*r->context, &r->cache, &r->counts);
  } else {
    ReplayServedRequest(&r->tracer, id, in.cold[i], &*r->context, &r->cache,
                        &r->counts);
    auto request = api::SolveRequest::FromJsonText(in.cold[i]);
    ReplayOptjsPhases(&r->tracer, id, request.value(), &*r->context,
                      &r->counts);
  }
}

int RunTrace(const Flags& flags) {
  TraceInputs in;
  in.workload = flags.Get("workload");
  if (in.workload == "large_pool_churn") {
    in.snapshot = flags.Get("snapshot");
    in.ops = ReadChurnOps(flags.Get("ops"));
  } else {
    in.pool_csv = flags.Get("pool");
    in.warm = ReadLines(flags.Get("warm"));
    in.cold = ReadLines(flags.GetOr("cold", ""));
    in.loop = ReadIndices(flags.GetOr("loop", ""));
  }
  const double seconds = flags.Number("seconds");
  const std::string out_dir = flags.Get("out");
  const double origin = Now();

  // Bare and traced replays of the same ops, each on its own context,
  // alternate block by block (swapping which goes first) until the time is
  // spent, so host drift slows both alike. Their time ratio is the tracing
  // overhead; the spread of the per-block ratios is its noise.
  Replayer bare(false);
  Replayer traced(true);
  SetUpReplayer(in, &bare);
  SetUpReplayer(in, &traced);
  const std::size_t length = in.workload == "large_pool_churn" ? in.ops.size()
                             : in.workload == "hot_hits"       ? SIZE_MAX
                                                               : in.cold.size();
  const std::size_t block = in.workload == "hot_hits" ? 64 : 1;
  const double start = Now();
  std::size_t ops = 0;
  while (ops < length && (ops == 0 || Now() - start < seconds)) {
    const std::size_t end = std::min(length, ops + block);
    Replayer* order[2] = {&bare, &traced};
    if (bare.block_s.size() % 2 == 1) std::swap(order[0], order[1]);
    for (Replayer* r : order) {
      const double begin = Now();
      for (std::size_t i = ops; i < end; ++i) ReplayOp(in, i, r);
      r->block_s.push_back(Now() - begin);
    }
    ops = end;
  }

  WriteFile(out_dir + "/spans.csv", SpansCsv(traced.tracer, origin));
  const TraceCounts& counts = traced.counts;
  Json out = OutputWithEnvironment();
  out.Set("ops", std::uint64_t{ops})
      .Set("bare_block_s", ToJsonArray(bare.block_s))
      .Set("traced_block_s", ToJsonArray(traced.block_s))
      .Set("annealing_moves", counts.annealing_moves)
      .Set("eval_full", counts.eval_full)
      .Set("eval_incremental", counts.eval_incremental)
      .Set("refine_keys", counts.refine_keys)
      .Set("frontier_scanned", counts.frontier_scanned)
      .Set("frontier_scans", counts.frontier_scans)
      .Set("solves", counts.solves)
      .Set("phase_requests", counts.phase_requests)
      .Set("shard_rebuilds", counts.shard_rebuilds)
      .Set("bumps", counts.bumps);
  WriteFile(out_dir + "/trace.json", out.Dump());
  return 0;
}

int RunPrepareSnapshot(const Flags& flags) {
  auto workers = LoadWorkersCsv(flags.Get("csv"));
  if (!workers.ok()) Fail("cannot load " + flags.Get("csv"));
  const WorkerPoolView view(workers.value());
  const Status written =
      PoolSnapshot::Write(flags.Get("out"), workers.value(), view);
  if (!written.ok()) Fail("cannot write the snapshot");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) Fail("usage: perfbench_probe MODE --flag=value ...");
  const std::string mode = argv[1];
  const Flags flags(argc, argv);
  if (mode == "served") return RunServed(flags);
  if (mode == "churn") return RunChurn(flags);
  if (mode == "trace") return RunTrace(flags);
  if (mode == "prepare-snapshot") return RunPrepareSnapshot(flags);
  Fail("unknown mode " + mode);
}

#ifndef JURYOPT_SERVE_SERVER_H_
#define JURYOPT_SERVE_SERVER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>

#include "api/solve.h"
#include "serve/http.h"
#include "util/status.h"

namespace jury::serve {

/// \brief Knobs of `JuryServer` — the thin HTTP/JSON endpoint over one
/// `PoolPlanContext`.
struct ServeOptions {
  /// Listen address. Loopback by default: the endpoint is a serving-layer
  /// demo and a load-harness target, not a hardened public frontend.
  std::string host = "127.0.0.1";
  /// Listen port; 0 binds an ephemeral port (read it back via `port()`).
  int port = 0;
  /// `EnableResultCache` capacity applied to the context at `Start` when
  /// the context has no cache yet. 0 leaves caching off.
  std::size_t cache_entries = 1024;
  /// Wire-level size guards (431 / 413).
  HttpLimits limits;
  /// Deadline imposed on requests that do not carry their own, in
  /// milliseconds (0 = none). Deadline-carrying requests bypass the
  /// result cache by design, so a default deadline trades cacheability
  /// for bounded tail latency.
  double default_deadline_ms = 0.0;
};

/// \brief The serving layer's HTTP endpoint: a single-threaded epoll
/// loop speaking the existing `SolveRequest` JSON binding over
/// `PoolPlanContext::Solve`.
///
/// Design: the event loop owns all connection state, and each
/// `POST /solve` is solved inline on the loop thread; its response is
/// queued (and written as far as the socket takes it) as soon as the
/// solve returns. One solve runs at a time, and requests that arrive
/// meanwhile (cache hits included) wait for it. Parallelism inside a
/// solve (OPTJS's fallbacks, parallel scans) still fans out on the
/// process work-stealing scheduler. The server adds no locking on the
/// solve path.
///
/// Routes:
///  * `GET /healthz`  -> `{"ok":true}`
///  * `GET /stats`    -> process `StatsRegistry` snapshot + cache stats
///  * `POST /solve`   -> `SolveRequest` JSON in, `SolveReport` JSON out
///
/// Error mapping (JSON envelope `{"error":{"code":...,"message":...}}`):
/// parse/validation failures and requests too large for the pool (the
/// exhaustive and exact-JQ size guards' OutOfRange) -> 400, unknown
/// solver -> 404, resource exhaustion -> 503, an expired deadline -> 504
/// (the body embeds the anytime report), anything else -> 500 (an
/// exception escaping a solve included). Malformed wire bytes and
/// oversized requests are answered (400/413/431), never fatal — the
/// robustness suite drives this with the fuzz corpora.
///
/// `Shutdown()` is async-signal-safe (one `write` to an eventfd): the
/// loop stops accepting, flushes every queued response, then returns
/// from `Run` (graceful drain).
class JuryServer {
 public:
  /// The context must outlive the server. Does not take ownership.
  JuryServer(api::PoolPlanContext* context, ServeOptions options = {});
  ~JuryServer();
  JuryServer(const JuryServer&) = delete;
  JuryServer& operator=(const JuryServer&) = delete;

  /// Binds, listens, and builds the epoll set. Call once before `Run`.
  Status Start();
  /// The bound port (the resolved one when `options.port` was 0). Valid
  /// after a successful `Start`.
  int port() const { return bound_port_; }

  /// Serves until `Shutdown`, then drains and returns. Call from one
  /// thread only.
  Status Run();

  /// Requests a graceful stop. Safe from any thread and from signal
  /// handlers (a single eventfd write).
  void Shutdown();

 private:
  struct Connection {
    int fd = -1;
    HttpParser parser;
    /// Received bytes not yet parsed: a partial request, or requests
    /// pipelined behind the one being answered.
    std::string inbuf;
    std::string outbuf;
    std::size_t outbuf_sent = 0;
    bool close_after_write = false;
  };

  Status Listen();
  void AcceptNew();
  void HandleReadable(std::uint64_t conn_id);
  /// Parses and dispatches buffered requests, in order, until the buffer
  /// runs dry or the connection is closing.
  void ParseBuffered(std::uint64_t conn_id);
  void HandleWritable(std::uint64_t conn_id);
  /// Routes one complete request and queues its response.
  void Dispatch(std::uint64_t conn_id);
  /// `POST /solve`: parses, validates and solves the request inline.
  void HandleSolve(std::uint64_t conn_id, const HttpRequest& http_request);
  void QueueResponse(std::uint64_t conn_id, int status,
                     const std::string& body, bool keep_alive);
  void QueueError(std::uint64_t conn_id, int status,
                  const std::string& message, bool keep_alive);
  void CloseConnection(std::uint64_t conn_id);
  void UpdateInterest(std::uint64_t conn_id);
  bool Draining() const { return shutdown_requested_; }
  bool DrainComplete() const;

  api::PoolPlanContext* context_;
  ServeOptions options_;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int shutdown_fd_ = -1;  // eventfd: Shutdown() -> loop wakeup
  int bound_port_ = 0;
  bool shutdown_requested_ = false;

  std::uint64_t next_conn_id_ = 1;
  std::unordered_map<std::uint64_t, Connection> connections_;
};

}  // namespace jury::serve

#endif  // JURYOPT_SERVE_SERVER_H_

#include "serve/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <exception>
#include <utility>

#include "serve/result_cache.h"
#include "serve/serve_stats.h"
#include "util/json.h"
#include "util/stats_registry.h"

namespace jury::serve {

namespace {

constexpr std::size_t kReadChunk = 16 * 1024;
constexpr int kMaxEpollEvents = 64;

// epoll tags of the two non-connection fds; connection ids count up
// from 1 and can never reach these.
constexpr std::uint64_t kListenTag = ~std::uint64_t{0};
constexpr std::uint64_t kShutdownTag = ~std::uint64_t{0} - 1;

Status Errno(const char* what) {
  return Status::Internal(std::string(what) + ": " + std::strerror(errno));
}

void CloseFd(int* fd) {
  if (*fd >= 0) {
    ::close(*fd);
    *fd = -1;
  }
}

int HttpStatusFor(const Status& status) {
  switch (status.code()) {
    case StatusCode::kInvalidArgument:
    case StatusCode::kOutOfRange:  // the request is too large for the pool
      return 400;
    case StatusCode::kNotFound:
      return 404;
    case StatusCode::kResourceExhausted:
      return 503;
    default:
      return 500;
  }
}

std::string ErrorBody(int status, const std::string& message) {
  std::string body = "{\"error\":{\"code\":";
  body += std::to_string(status);
  body += ",\"message\":";
  body += Json::Quote(message);
  body += "}}";
  return body;
}

/// HTTP/1.1 defaults to keep-alive; `Connection: close` (or HTTP/1.0
/// without `Connection: keep-alive`) opts out.
bool WantsKeepAlive(const HttpRequest& request) {
  const auto it = request.headers.find("connection");
  if (it != request.headers.end()) {
    if (it->second == "close") return false;
    if (it->second == "keep-alive") return true;
  }
  return request.version != "HTTP/1.0";
}

}  // namespace

JuryServer::JuryServer(api::PoolPlanContext* context, ServeOptions options)
    : context_(context), options_(std::move(options)) {}

JuryServer::~JuryServer() {
  for (auto& [id, conn] : connections_) CloseFd(&conn.fd);
  connections_.clear();
  CloseFd(&listen_fd_);
  CloseFd(&shutdown_fd_);
  CloseFd(&epoll_fd_);
}

Status JuryServer::Start() {
  if (epoll_fd_ >= 0) return Status::FailedPrecondition("already started");
  if (options_.cache_entries > 0 && context_->result_cache() == nullptr) {
    context_->EnableResultCache(options_.cache_entries);
  }
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) return Errno("epoll_create1");
  shutdown_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (shutdown_fd_ < 0) return Errno("eventfd");
  JURY_RETURN_NOT_OK(Listen());

  epoll_event event{};
  event.events = EPOLLIN;
  event.data.u64 = kListenTag;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &event) != 0) {
    return Errno("epoll_ctl(listen)");
  }
  event.data.u64 = kShutdownTag;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, shutdown_fd_, &event) != 0) {
    return Errno("epoll_ctl(shutdown)");
  }
  return Status::OK();
}

Status JuryServer::Listen() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return Errno("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("unparseable listen host: " + options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return Errno("bind");
  }
  if (::listen(listen_fd_, 128) != 0) return Errno("listen");

  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) != 0) {
    return Errno("getsockname");
  }
  bound_port_ = ntohs(bound.sin_port);
  return Status::OK();
}

void JuryServer::Shutdown() {
  // Async-signal-safe: a single write to an eventfd.
  const std::uint64_t one = 1;
  if (shutdown_fd_ >= 0) {
    [[maybe_unused]] ssize_t n =
        ::write(shutdown_fd_, &one, sizeof(one));
  }
}

bool JuryServer::DrainComplete() const {
  for (const auto& [id, conn] : connections_) {
    if (conn.outbuf_sent < conn.outbuf.size()) return false;
  }
  return true;
}

Status JuryServer::Run() {
  if (epoll_fd_ < 0) return Status::FailedPrecondition("Start() first");
  epoll_event events[kMaxEpollEvents];
  while (true) {
    if (Draining()) {
      // Idle keep-alive connections hold nothing we owe them; close them
      // so the drain converges on unsent responses only.
      std::vector<std::uint64_t> idle;
      for (const auto& [id, conn] : connections_) {
        if (conn.outbuf_sent >= conn.outbuf.size()) idle.push_back(id);
      }
      for (std::uint64_t id : idle) CloseConnection(id);
      if (DrainComplete()) break;
    }
    const int n = ::epoll_wait(epoll_fd_, events, kMaxEpollEvents, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("epoll_wait");
    }
    for (int i = 0; i < n; ++i) {
      const std::uint64_t tag = events[i].data.u64;
      if (tag == kListenTag) {
        AcceptNew();
      } else if (tag == kShutdownTag) {
        std::uint64_t value = 0;
        while (::read(shutdown_fd_, &value, sizeof(value)) > 0) {
        }
        shutdown_requested_ = true;
        if (listen_fd_ >= 0) {
          ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
          CloseFd(&listen_fd_);
        }
      } else {
        const std::uint64_t conn_id = tag;
        if (connections_.count(conn_id) == 0) continue;  // closed mid-batch
        const std::uint32_t flags = events[i].events;
        if ((flags & (EPOLLHUP | EPOLLERR)) != 0) {
          CloseConnection(conn_id);
          continue;
        }
        if ((flags & EPOLLOUT) != 0) HandleWritable(conn_id);
        if (connections_.count(conn_id) != 0 && (flags & EPOLLIN) != 0) {
          HandleReadable(conn_id);
        }
      }
    }
  }
  for (auto& [id, conn] : connections_) CloseFd(&conn.fd);
  connections_.clear();
  return Status::OK();
}

void JuryServer::AcceptNew() {
  while (true) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN or transient accept failure
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    const std::uint64_t conn_id = next_conn_id_++;
    Connection conn;
    conn.fd = fd;
    conn.parser = HttpParser(options_.limits);
    epoll_event event{};
    event.events = EPOLLIN;
    event.data.u64 = conn_id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &event) != 0) {
      ::close(fd);
      continue;
    }
    connections_.emplace(conn_id, std::move(conn));
  }
}

void JuryServer::UpdateInterest(std::uint64_t conn_id) {
  auto it = connections_.find(conn_id);
  if (it == connections_.end()) return;
  Connection& conn = it->second;
  epoll_event event{};
  event.data.u64 = conn_id;
  if (!conn.close_after_write) event.events |= EPOLLIN;
  if (conn.outbuf_sent < conn.outbuf.size()) event.events |= EPOLLOUT;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &event);
}

void JuryServer::CloseConnection(std::uint64_t conn_id) {
  auto it = connections_.find(conn_id);
  if (it == connections_.end()) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, it->second.fd, nullptr);
  CloseFd(&it->second.fd);
  connections_.erase(it);
}

void JuryServer::HandleReadable(std::uint64_t conn_id) {
  auto it = connections_.find(conn_id);
  if (it == connections_.end()) return;
  Connection& conn = it->second;
  char chunk[kReadChunk];
  bool peer_closed = false;
  while (true) {
    const ssize_t n = ::recv(conn.fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      conn.inbuf.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) peer_closed = true;
    break;  // EAGAIN, error, or orderly close
  }

  ParseBuffered(conn_id);

  if (connections_.count(conn_id) == 0) return;
  Connection& c = connections_.at(conn_id);
  if (peer_closed) {
    if (c.outbuf_sent >= c.outbuf.size()) {
      CloseConnection(conn_id);
      return;
    }
    c.close_after_write = true;
  }
  UpdateInterest(conn_id);
}

void JuryServer::ParseBuffered(std::uint64_t conn_id) {
  // Each request is answered (its response queued) before the next one
  // is parsed, so pipelined requests are answered in order.
  while (connections_.count(conn_id) != 0) {
    Connection& c = connections_.at(conn_id);
    if (c.inbuf.empty() || c.close_after_write) break;
    const std::size_t consumed = c.parser.Feed(c.inbuf);
    c.inbuf.erase(0, consumed);
    if (c.parser.failed()) {
      QueueError(conn_id, c.parser.error_status(), c.parser.error_reason(),
                 /*keep_alive=*/false);
      break;
    }
    if (!c.parser.complete()) break;
    Dispatch(conn_id);
    if (connections_.count(conn_id) != 0) {
      connections_.at(conn_id).parser.Reset();
    }
  }
}

void JuryServer::Dispatch(std::uint64_t conn_id) {
  Connection& conn = connections_.at(conn_id);
  const HttpRequest& request = conn.parser.request();
  ServeRequests().Increment();
  const bool keep_alive = WantsKeepAlive(request);

  if (request.method == "GET" && request.target == "/healthz") {
    QueueResponse(conn_id, 200, "{\"ok\":true}", keep_alive);
    return;
  }
  if (request.method == "GET" && request.target == "/stats") {
    std::string body = "{\"cache\":";
    if (const ResultCache* cache = context_->result_cache()) {
      const ResultCacheStats stats = cache->stats();
      Json c = Json::Object();
      c.Set("entries", std::uint64_t{cache->size()});
      c.Set("evictions", stats.evictions);
      c.Set("hits", stats.hits);
      c.Set("insertions", stats.insertions);
      c.Set("invalidations", stats.invalidations);
      c.Set("misses", stats.misses);
      body += c.Dump();
    } else {
      body += "null";
    }
    body += ",\"pool_epoch\":";
    body += std::to_string(context_->pool_epoch());
    body += ",\"registry\":";
    body += StatsRegistry::Global().ToJson();
    body += "}";
    QueueResponse(conn_id, 200, body, keep_alive);
    return;
  }
  if (request.method == "POST" && request.target == "/solve") {
    HandleSolve(conn_id, request);
    return;
  }
  if (request.target == "/healthz" || request.target == "/stats" ||
      request.target == "/solve") {
    QueueError(conn_id, 405, "method not allowed on " + request.target,
               keep_alive);
    return;
  }
  QueueError(conn_id, 404, "no such route: " + request.target, keep_alive);
}

void JuryServer::HandleSolve(std::uint64_t conn_id,
                             const HttpRequest& http_request) {
  const bool keep_alive = WantsKeepAlive(http_request);
  auto parsed = api::SolveRequest::FromJsonText(http_request.body);
  if (!parsed.ok()) {
    QueueError(conn_id, 400, parsed.status().message(), keep_alive);
    return;
  }
  api::SolveRequest request = std::move(parsed).value();
  const Status valid = request.Validate();
  if (!valid.ok()) {
    QueueError(conn_id, 400, valid.message(), keep_alive);
    return;
  }
  if (request.deadline_ms == 0.0 && options_.default_deadline_ms > 0.0) {
    request.deadline_ms = options_.default_deadline_ms;
  }

  Result<api::SolveReport> result = [&]() -> Result<api::SolveReport> {
    try {
      return context_->Solve(request);
    } catch (const std::exception& error) {
      // The loop outlives any one request: an escaped exception is a 500.
      return Status::Internal(error.what());
    }
  }();
  int status = 200;
  std::string body;
  if (!result.ok()) {
    status = HttpStatusFor(result.status());
    body = ErrorBody(status, result.status().message());
  } else if (result.value().terminated_early &&
             result.value().termination_reason == "deadline") {
    // 504-style error, but the anytime jury is still in the envelope —
    // a caller that wants the partial result can take it.
    status = 504;
    body = "{\"error\":{\"code\":504,\"message\":";
    body += Json::Quote("deadline expired before the solve completed");
    body += "},\"report\":";
    body += result.value().ToJson();
    body += "}";
  } else {
    body = result.value().ToJson();
  }
  QueueResponse(conn_id, status, body, keep_alive);
}

void JuryServer::QueueError(std::uint64_t conn_id, int status,
                            const std::string& message, bool keep_alive) {
  QueueResponse(conn_id, status, ErrorBody(status, message), keep_alive);
}

void JuryServer::QueueResponse(std::uint64_t conn_id, int status,
                               const std::string& body, bool keep_alive) {
  auto it = connections_.find(conn_id);
  if (it == connections_.end()) return;
  Connection& conn = it->second;
  if (!keep_alive) conn.close_after_write = true;
  conn.outbuf +=
      FormatHttpResponse(status, HttpReasonPhrase(status), body,
                         !conn.close_after_write);
  HandleWritable(conn_id);
}

void JuryServer::HandleWritable(std::uint64_t conn_id) {
  auto it = connections_.find(conn_id);
  if (it == connections_.end()) return;
  Connection& conn = it->second;
  while (conn.outbuf_sent < conn.outbuf.size()) {
    const ssize_t n =
        ::send(conn.fd, conn.outbuf.data() + conn.outbuf_sent,
               conn.outbuf.size() - conn.outbuf_sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      CloseConnection(conn_id);
      return;
    }
    conn.outbuf_sent += static_cast<std::size_t>(n);
  }
  if (conn.outbuf_sent >= conn.outbuf.size()) {
    conn.outbuf.clear();
    conn.outbuf_sent = 0;
    if (conn.close_after_write) {
      CloseConnection(conn_id);
      return;
    }
  }
  UpdateInterest(conn_id);
}

}  // namespace jury::serve

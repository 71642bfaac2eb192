#include "obs/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>

#include "common/json.h"
#include "obs/exposition.h"
#include "obs/http.h"
#include "trace/trace.h"

namespace relcont {
namespace obs {

namespace {

/// Buffered line reader over a connected socket. Lines are LF-terminated
/// (a trailing CR is stripped, so CRLF clients work too).
class FdLineReader {
 public:
  explicit FdLineReader(int fd) : fd_(fd) {}

  /// False on EOF or error with no pending complete line.
  bool ReadLine(std::string* line) {
    while (true) {
      size_t newline = buffer_.find('\n', pos_);
      if (newline != std::string::npos) {
        size_t end = newline;
        if (end > pos_ && buffer_[end - 1] == '\r') --end;
        line->assign(buffer_, pos_, end - pos_);
        pos_ = newline + 1;
        if (pos_ > 4096) {
          buffer_.erase(0, pos_);
          pos_ = 0;
        }
        return true;
      }
      char chunk[4096];
      ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        timed_out_ = true;  // SO_RCVTIMEO expired mid-read.
        return false;
      }
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<size_t>(n));
      // A protocol or header line this long is hostile input — bail.
      if (buffer_.size() - pos_ > (1u << 20)) return false;
    }
  }

  /// True once a ReadLine failed because the socket's receive timeout
  /// expired (as opposed to EOF or a hard error).
  bool timed_out() const { return timed_out_; }

 private:
  int fd_;
  std::string buffer_;
  size_t pos_ = 0;
  bool timed_out_ = false;
};

bool SendAll(int fd, std::string_view data) {
  while (!data.empty()) {
    ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    data.remove_prefix(static_cast<size_t>(n));
  }
  return true;
}

}  // namespace

ObsServer::ObsServer(ContainmentService* service, ServerOptions options)
    : service_(service), options_(options) {}

ObsServer::~ObsServer() {
  watchdog_stop_.store(true, std::memory_order_release);
  Shutdown();
  if (drain_watchdog_.joinable()) drain_watchdog_.join();
  ReapConnections(/*all=*/true);
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

Status ObsServer::Start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  int enable = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &enable,
               sizeof(enable));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) < 0) {
    Status status = Status::InvalidArgument(
        "cannot bind port " + std::to_string(options_.port) + ": " +
        std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  if (::listen(listen_fd_, 64) < 0) {
    Status status =
        Status::Internal(std::string("listen: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) ==
      0) {
    port_ = ntohs(addr.sin_port);
  }
  // Seed the crash handler's statusz snapshot before traffic; the
  // watchdog refreshes it from here on.
  RefreshFlightStatusz();
  // RequestDrain is async-signal-safe, so it cannot spawn this thread
  // itself — it only flips an atomic the watchdog polls.
  if (!drain_watchdog_.joinable()) {
    drain_watchdog_ = std::thread([this] { DrainWatchdog(); });
  }
  return Status::OK();
}

void ObsServer::Serve() {
  while (!stopping_.load(std::memory_order_acquire)) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener shut down (or a fatal accept error)
    }
    ReapConnections(/*all=*/false);
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    Connection* raw = conn.get();
    {
      std::lock_guard<std::mutex> lock(conn_mu_);
      connections_.push_back(std::move(conn));
    }
    raw->thread = std::thread([this, raw] { HandleConnection(raw); });
  }
  // Drain: wake every live session (their reads fail), then join.
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (const auto& conn : connections_) {
      if (!conn->done.load(std::memory_order_acquire)) {
        ::shutdown(conn->fd, SHUT_RDWR);
      }
    }
  }
  ReapConnections(/*all=*/true);
}

void ObsServer::Shutdown() {
  stopping_.store(true, std::memory_order_release);
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
}

void ObsServer::RequestDrain() {
  draining_.store(true, std::memory_order_release);
  service_->metrics().set_draining(true);
}

void ObsServer::RefreshFlightStatusz() {
  service_->metrics().flight().StoreStatuszSnapshot(
      RenderStatuszJson(service_->Snapshot()));
}

void ObsServer::DrainWatchdog() {
  const auto tick = std::chrono::milliseconds(10);
  int ticks = 0;
  while (!watchdog_stop_.load(std::memory_order_acquire) &&
         !stopping_.load(std::memory_order_acquire)) {
    // Keep the crash black box's pre-rendered /statusz copy about a second
    // fresh (the signal handler cannot render one itself).
    if (++ticks >= 100) {
      ticks = 0;
      RefreshFlightStatusz();
    }
    if (draining_.load(std::memory_order_acquire)) {
      // Grace period: /healthz already answers 503, so a router has this
      // long to deregister the node before the listener closes.
      auto deadline = std::chrono::steady_clock::now() +
                      std::chrono::milliseconds(options_.drain_grace_ms);
      while (std::chrono::steady_clock::now() < deadline &&
             !watchdog_stop_.load(std::memory_order_acquire) &&
             !stopping_.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(tick);
      }
      if (!watchdog_stop_.load(std::memory_order_acquire)) Shutdown();
      return;
    }
    std::this_thread::sleep_for(tick);
  }
}

void ObsServer::ReapConnections(bool all) {
  std::list<std::unique_ptr<Connection>> finished;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    if (all) {
      finished.swap(connections_);
    } else {
      for (auto it = connections_.begin(); it != connections_.end();) {
        if ((*it)->done.load(std::memory_order_acquire)) {
          finished.push_back(std::move(*it));
          it = connections_.erase(it);
        } else {
          ++it;
        }
      }
    }
  }
  for (const auto& conn : finished) {
    if (conn->thread.joinable()) conn->thread.join();
  }
}

void ObsServer::HandleConnection(Connection* conn) {
  int fd = conn->fd;
  service_->metrics().IncOpenConnections();
  FdLineReader reader(fd);
  std::string line;
  if (reader.ReadLine(&line)) {
    if (LooksLikeHttp(line)) {
      // Hostile-input caps on the request head; a client exceeding them
      // is answered 431, a client stalling mid-head 408. Both rejections
      // are counted so a flood of them is visible in /metrics.
      constexpr size_t kMaxRequestLineBytes = 8192;
      constexpr size_t kMaxHeadBytes = 32768;
      constexpr int kMaxHeaderLines = 100;
      if (line.size() > kMaxRequestLineBytes) {
        service_->metrics().RecordHttpRejected(431);
        SendAll(fd, RenderHttpResponse(431, "text/plain; charset=utf-8",
                                       "request line too long\n"));
      } else {
        if (options_.http_header_timeout_ms > 0) {
          timeval tv{};
          tv.tv_sec = options_.http_header_timeout_ms / 1000;
          tv.tv_usec =
              static_cast<long>(options_.http_header_timeout_ms % 1000) *
              1000;
          ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
        }
        // Collect the rest of the request head (headers until blank line).
        std::string head = line;
        head += '\n';
        std::string header;
        bool complete = false;
        bool oversized = false;
        int header_lines = 0;
        while (reader.ReadLine(&header)) {
          if (header.empty()) {
            complete = true;
            break;
          }
          head += header;
          head += '\n';
          if (++header_lines > kMaxHeaderLines ||
              head.size() > kMaxHeadBytes) {
            oversized = true;
            break;
          }
        }
        if (oversized) {
          service_->metrics().RecordHttpRejected(431);
          SendAll(fd, RenderHttpResponse(431, "text/plain; charset=utf-8",
                                         "request head too large\n"));
        } else if (!complete && reader.timed_out()) {
          service_->metrics().RecordHttpRejected(408);
          SendAll(fd, RenderHttpResponse(
                          408, "text/plain; charset=utf-8",
                          "timed out reading request head\n"));
        } else {
          // EOF before the blank line still serves what arrived (legacy
          // behaviour); a malformed head is answered 400 by ServeHttp.
          ServeHttp(fd, head);
        }
      }
    } else {
      // A long-lived protocol session: this connection's own DEFINE
      // namespace and worker arena, against the shared service.
      ServerSession session(service_, options_.batch_threads);
      if (options_.access_log != nullptr) {
        AccessLog* log = options_.access_log;
        session.set_decision_observer(
            [log](const DecisionRequest& request,
                  const DecisionResponse& response) {
              log->Record(request, response);
            });
      }
      do {
        std::string response = session.HandleLine(line);
        if (!response.empty() && !SendAll(fd, response)) break;
      } while (reader.ReadLine(&line));
    }
  }
  ::close(fd);
  service_->metrics().DecOpenConnections();
  conn->done.store(true, std::memory_order_release);
}

void ObsServer::ServeHttp(int fd, const std::string& head) {
  Result<HttpRequest> parsed = ParseHttpRequest(head);
  if (!parsed.ok()) {
    SendAll(fd, RenderHttpResponse(400, "text/plain; charset=utf-8",
                                   parsed.status().ToString() + "\n"));
    return;
  }
  const HttpRequest& request = *parsed;
  bool head_only = request.method == "HEAD";
  if (request.method != "GET" && !head_only) {
    SendAll(fd, RenderHttpResponse(405, "text/plain; charset=utf-8",
                                   "only GET and HEAD are supported\n",
                                   head_only));
    return;
  }
  std::string path = request.path();
  if (path == "/metrics") {
    std::string body = RenderPrometheusText(service_->Snapshot());
    SendAll(fd, RenderHttpResponse(
                    200, "text/plain; version=0.0.4; charset=utf-8", body,
                    head_only));
  } else if (path == "/statusz") {
    // Same MetricsSnapshot (and renderer) as the STATUSZ protocol verb,
    // so the two surfaces cannot drift.
    std::string body = RenderStatuszJson(service_->Snapshot());
    SendAll(fd, RenderHttpResponse(200, "application/json", body,
                                   head_only));
  } else if (path == "/requestz") {
    // Same renderers as the REQUESTZ protocol verb; the lockstep test in
    // obs_server_test asserts byte equality between the two surfaces.
    // path() strips the query string, so parse ?id=N off the raw target.
    uint64_t id = 0;
    bool bad_query = false;
    const size_t query = request.target.find('?');
    if (query != std::string::npos) {
      const std::string args = request.target.substr(query + 1);
      if (args.rfind("id=", 0) == 0) {
        char* end = nullptr;
        id = std::strtoull(args.c_str() + 3, &end, 10);
        bad_query = end == nullptr || *end != '\0' || id == 0;
      } else {
        bad_query = true;
      }
    }
    if (bad_query) {
      SendAll(fd, RenderHttpResponse(400, "text/plain; charset=utf-8",
                                     "expected /requestz or /requestz?id=N\n",
                                     head_only));
    } else if (id == 0) {
      SendAll(fd, RenderHttpResponse(
                      200, "application/json",
                      RenderRequestzListJson(service_->metrics().flight()),
                      head_only));
    } else if (std::optional<FlightRecorder::Retained> entry =
                   service_->metrics().flight().FindRetained(id)) {
      SendAll(fd, RenderHttpResponse(200, "application/json",
                                     RenderRequestzEventJson(*entry),
                                     head_only));
    } else {
      SendAll(fd, RenderHttpResponse(404, "text/plain; charset=utf-8",
                                     "request id " + std::to_string(id) +
                                         " not retained\n",
                                     head_only));
    }
  } else if (path == "/healthz") {
    if (service_->metrics().draining()) {
      SendAll(fd, RenderHttpResponse(503, "text/plain; charset=utf-8",
                                     "draining\n", head_only));
    } else {
      SendAll(fd, RenderHttpResponse(200, "text/plain; charset=utf-8",
                                     "ok\n", head_only));
    }
  } else if (path == "/buildz") {
    SendAll(fd, RenderHttpResponse(200, "application/json", BuildzJson(),
                                   head_only));
  } else {
    SendAll(fd, RenderHttpResponse(404, "text/plain; charset=utf-8",
                                   "not found — try /metrics, /statusz, "
                                   "/requestz, /healthz, /buildz\n",
                                   head_only));
  }
}

std::string ObsServer::BuildzJson() const {
  MetricsSnapshot snapshot = service_->Snapshot();
  const ServiceConfig& config = service_->config();
  std::string out = "{\"version\":";
  json::AppendEscaped(snapshot.version, &out);
  out += ",\"trace_compiled_in\":";
  out += trace::kCompiledIn ? "true" : "false";
  out += ",\"trace_requests\":";
  out += config.trace_requests ? "true" : "false";
  out += ",\"start_time_unix_seconds\":";
  out += std::to_string(snapshot.values[SeriesIndex("start_time_seconds")]);
  out += ",\"uptime_seconds\":";
  out += std::to_string(snapshot.uptime_seconds);
  out += ",\"cache_capacity\":";
  out += std::to_string(service_->cache().capacity());
  out += ",\"cache_shards\":";
  out += std::to_string(service_->cache().num_shards());
  out += ",\"batch_threads\":";
  out += std::to_string(options_.batch_threads);
  out += "}\n";
  return out;
}

}  // namespace obs
}  // namespace relcont

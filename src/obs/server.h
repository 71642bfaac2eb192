#ifndef RELCONT_OBS_SERVER_H_
#define RELCONT_OBS_SERVER_H_

#include <atomic>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "common/status.h"
#include "service/protocol.h"
#include "service/service.h"

namespace relcont {
namespace obs {

struct ServerOptions {
  /// TCP port to listen on; 0 asks the kernel for an ephemeral port (read
  /// it back with port() after Start — the test harness does).
  int port = 0;
  /// Fan-out width of BATCH END inside each protocol session.
  int batch_threads = 4;
  /// How long RequestDrain keeps the listener open (answering /healthz
  /// with 503 "draining") before closing it, so a router can deregister
  /// the node first. 0 closes immediately.
  int drain_grace_ms = 0;
  /// Receive timeout while reading an HTTP request head; a client that
  /// stalls mid-request is answered 408 and dropped. <= 0 disables.
  int http_header_timeout_ms = 5000;
};

/// The networked front end of the containment service: one TCP listener
/// that speaks two dialects, distinguished by the first line a client
/// sends.
///
///   * A containment-protocol line (CATALOG, DEFINE, CONTAINED?, ...)
///     turns the connection into a long-lived protocol session — one
///     ServerSession per connection, so DEFINEs are session-local and
///     many clients run concurrently against the shared service.
///   * An HTTP request line serves one observability request and closes:
///     GET /metrics (Prometheus text exposition, rendered from the same
///     MetricsSnapshot as the METRICS verb), GET /statusz (JSON, same
///     snapshot as the STATUSZ verb), GET /healthz (503 while draining),
///     GET /buildz. Oversized request heads are answered 431 and slow
///     clients 408 — both counted in the metrics.
///
/// Lifecycle: Start() binds and listens; Serve() blocks accepting
/// connections until Shutdown() (async-signal-safe: callable from a
/// SIGINT/SIGTERM handler) closes the listener; Serve() then shuts down
/// every live connection and joins all session threads before returning.
class ObsServer {
 public:
  ObsServer(ContainmentService* service, ServerOptions options);
  ~ObsServer();

  ObsServer(const ObsServer&) = delete;
  ObsServer& operator=(const ObsServer&) = delete;

  /// Binds and listens. After this, port() is the actual bound port.
  Status Start();
  int port() const { return port_; }

  /// Accept loop; blocks until Shutdown. One thread per connection.
  void Serve();

  /// Stops the accept loop. Async-signal-safe (an atomic store and a
  /// shutdown(2) on the listening socket).
  void Shutdown();

  /// Begins a graceful drain: /healthz flips to 503 "draining" immediately
  /// (so load balancers stop routing here), and after drain_grace_ms the
  /// watchdog thread calls Shutdown(). Async-signal-safe (two atomic
  /// stores); callable from a SIGTERM handler. Idempotent.
  void RequestDrain();

 private:
  struct Connection {
    int fd = -1;
    std::atomic<bool> done{false};
    std::thread thread;
  };

  void HandleConnection(Connection* conn);
  void ServeHttp(int fd, const std::string& head);
  std::string BuildzJson() const;
  /// Joins finished connection threads; `all` waits for the rest too.
  void ReapConnections(bool all);
  /// Body of the drain watchdog thread: waits for RequestDrain, sleeps
  /// out the grace period, then calls Shutdown(). Also refreshes the
  /// flight recorder's pre-rendered statusz snapshot about once a second.
  void DrainWatchdog();
  /// Re-renders /statusz into the flight recorder's crash-dump buffer.
  void RefreshFlightStatusz();

  ContainmentService* service_;
  ServerOptions options_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> watchdog_stop_{false};
  std::thread drain_watchdog_;
  std::mutex conn_mu_;
  std::list<std::unique_ptr<Connection>> connections_;
};

}  // namespace obs
}  // namespace relcont

#endif  // RELCONT_OBS_SERVER_H_

// The containment-decision server. Two transports share one service:
//
//   * stdin/stdout (default): each line is one request of the protocol in
//     docs/SERVICE.md, so the binary composes with pipes and harnesses.
//   * TCP (--port N): a listener that runs one protocol session per
//     connection and additionally answers HTTP GETs — /metrics (Prometheus
//     text exposition), /statusz (JSON status), /healthz, /buildz. SIGINT
//     shuts it down immediately; SIGTERM starts a graceful drain —
//     /healthz answers 503 "draining" for --drain-grace-ms so a load
//     balancer can deregister the node, then the listener closes and live
//     sessions are drained before exit.
//
//   $ ./build/examples/relcont_serve
//   > CATALOG cars VIEW redcars(C, M, Y) :- cardesc(C, M, red, Y).
//   OK catalog cars v1 views=1 patterns=0
//   > DEFINE q1 q1(C) :- cardesc(C, M, Col, Y).
//   OK query q1 rules=1
//   > CONTAINED? q1 q1 @cars
//   YES section3 MISS 184us
//
//   $ ./build/examples/relcont_serve --port 8080 &
//   $ curl -s localhost:8080/metrics | head
//
// Flags:
//   --batch            suppress the prompt (for piped input)
//   --threads N        fan-out width for BATCH BEGIN/END groups (default 4)
//   --cache N          decision-cache capacity in entries (default 4096)
//   --trace            trace every request into the METRICS aggregates
//   --port N           serve TCP + HTTP on port N instead of stdin/stdout
//   --access-log FILE  append one JSONL wide event per request (every verb)
//                      to FILE
//   --log-sample R     log every R-th request id only (default 1 = all)
//   --default-timeout-ms N  deadline for requests without timeout_ms=
//                      (default 0 = unbounded); expired requests answer
//                      ERR BoundReached, not a verdict
//   --window-secs N    trailing window for the long latency percentiles in
//                      METRICS / STATUSZ / /statusz (default 60, max 126)
//   --drain-grace-ms N how long SIGTERM keeps /healthz at 503 before the
//                      listener closes (default 0 = immediate)
//   --flight-ring N    flight-recorder wide-event ring slots, rounded up
//                      to a power of two (default 1024)
//   --flight-arena-kb N  retention-arena byte cap for tail-sampled span
//                      trees, in KB (default 512)
//   --crash-dump FILE  write the crash black box (ring wide events + the
//                      last statusz snapshot) to FILE on SIGSEGV/SIGABRT
//                      (default: stderr; the handler is always installed)

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>

#include "obs/access_log.h"
#include "obs/flight.h"
#include "obs/server.h"
#include "obs/window.h"
#include "service/protocol.h"

namespace {

relcont::obs::ObsServer* g_server = nullptr;

void HandleSignal(int signum) {
  // Async-signal-safe: both entry points are atomic stores (plus a
  // shutdown(2) for the immediate path). SIGTERM drains gracefully so a
  // router sees /healthz flip before the port goes away; SIGINT stops now.
  if (g_server == nullptr) return;
  if (signum == SIGTERM) {
    g_server->RequestDrain();
  } else {
    g_server->Shutdown();
  }
}

int Usage() {
  std::fprintf(stderr,
               "usage: relcont_serve [--batch] [--threads N] [--cache N] "
               "[--trace]\n"
               "                     [--port N] [--access-log FILE] "
               "[--log-sample R]\n"
               "                     [--default-timeout-ms N] [--window-secs N]\n"
               "                     [--drain-grace-ms N] [--flight-ring N] "
               "[--flight-arena-kb N]\n"
               "                     [--crash-dump FILE]\n");
  return 2;
}

/// Strict positive-integer flag parsing: the whole token must be digits
/// and the value must be in [min, max]. atoi-style garbage ("4x", "", "-2")
/// is a usage error, not a silent zero.
bool ParseIntFlag(const char* flag, const char* text, long long min,
                  long long max, long long* out) {
  if (text == nullptr || *text == '\0') return false;
  char* end = nullptr;
  errno = 0;
  long long value = std::strtoll(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || value < min ||
      value > max) {
    std::fprintf(stderr, "relcont_serve: %s needs an integer in [%lld, %lld], "
                 "got '%s'\n", flag, min, max, text);
    return false;
  }
  *out = value;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool interactive = true;
  long long threads = 4;
  long long port = -1;  // -1 = stdio mode
  long long drain_grace_ms = 0;
  std::string access_log_path;
  std::string crash_dump_path;
  long long log_sample = 1;
  relcont::ServiceConfig config;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (std::strcmp(arg, "--batch") == 0) {
      interactive = false;
    } else if (std::strcmp(arg, "--trace") == 0) {
      config.trace_requests = true;
    } else if (std::strcmp(arg, "--threads") == 0) {
      if (!ParseIntFlag(arg, value, 1, 1024, &threads)) return Usage();
      ++i;
    } else if (std::strcmp(arg, "--cache") == 0) {
      long long cache = 0;
      if (!ParseIntFlag(arg, value, 1, 1LL << 30, &cache)) return Usage();
      config.cache_capacity = static_cast<size_t>(cache);
      ++i;
    } else if (std::strcmp(arg, "--port") == 0) {
      if (!ParseIntFlag(arg, value, 1, 65535, &port)) return Usage();
      ++i;
    } else if (std::strcmp(arg, "--access-log") == 0) {
      if (value == nullptr || *value == '\0') return Usage();
      access_log_path = value;
      ++i;
    } else if (std::strcmp(arg, "--log-sample") == 0) {
      if (!ParseIntFlag(arg, value, 1, 1LL << 30, &log_sample)) return Usage();
      ++i;
    } else if (std::strcmp(arg, "--default-timeout-ms") == 0) {
      long long timeout = 0;
      if (!ParseIntFlag(arg, value, 1, 1LL << 40, &timeout)) return Usage();
      config.default_timeout_ms = timeout;
      ++i;
    } else if (std::strcmp(arg, "--window-secs") == 0) {
      long long window = 0;
      if (!ParseIntFlag(arg, value, 1, relcont::obs::WindowRing::kMaxWindowSecs,
                        &window)) {
        return Usage();
      }
      config.window_secs = static_cast<int>(window);
      ++i;
    } else if (std::strcmp(arg, "--drain-grace-ms") == 0) {
      if (!ParseIntFlag(arg, value, 0, 1LL << 30, &drain_grace_ms)) {
        return Usage();
      }
      ++i;
    } else if (std::strcmp(arg, "--flight-ring") == 0) {
      long long ring = 0;
      if (!ParseIntFlag(arg, value, 1, 1LL << 24, &ring)) return Usage();
      config.flight_ring_capacity = static_cast<size_t>(ring);
      ++i;
    } else if (std::strcmp(arg, "--flight-arena-kb") == 0) {
      long long arena_kb = 0;
      if (!ParseIntFlag(arg, value, 1, 1LL << 22, &arena_kb)) return Usage();
      config.flight_arena_kb = static_cast<size_t>(arena_kb);
      ++i;
    } else if (std::strcmp(arg, "--crash-dump") == 0) {
      if (value == nullptr || *value == '\0') return Usage();
      crash_dump_path = value;
      ++i;
    } else {
      return Usage();
    }
  }

  relcont::ContainmentService service(config);
  // The crash black box covers both transports: on SIGSEGV/SIGABRT the
  // handler dumps the flight ring and the last statusz snapshot before
  // the default disposition re-terminates the process.
  relcont::obs::InstallCrashHandler(
      &service.metrics().flight(),
      crash_dump_path.empty() ? nullptr : crash_dump_path.c_str());

  std::unique_ptr<relcont::obs::AccessLog> access_log;
  if (!access_log_path.empty()) {
    relcont::obs::AccessLogOptions log_options;
    log_options.path = access_log_path;
    log_options.sample = static_cast<uint64_t>(log_sample);
    auto opened = relcont::obs::AccessLog::Open(std::move(log_options));
    if (!opened.ok()) {
      std::fprintf(stderr, "relcont_serve: %s\n",
                   opened.status().ToString().c_str());
      return 1;
    }
    access_log = std::move(*opened);
    // Every request of every verb, on either transport, ends in the
    // metrics' RecordFlight, which hands its wide event to the log.
    service.metrics().set_access_log(access_log.get());
  }

  if (port >= 0) {
    relcont::obs::ServerOptions server_options;
    server_options.port = static_cast<int>(port);
    server_options.batch_threads = static_cast<int>(threads);
    server_options.drain_grace_ms = static_cast<int>(drain_grace_ms);
    relcont::obs::ObsServer server(&service, server_options);
    relcont::Status status = server.Start();
    if (!status.ok()) {
      std::fprintf(stderr, "relcont_serve: %s\n", status.ToString().c_str());
      return 1;
    }
    g_server = &server;
    std::signal(SIGINT, HandleSignal);
    std::signal(SIGTERM, HandleSignal);
    std::fprintf(stderr,
                 "relcont_serve: listening on port %d "
                 "(protocol over TCP; GET /metrics /statusz /requestz "
                 "/healthz /buildz)\n",
                 server.port());
    server.Serve();
    g_server = nullptr;
    std::fprintf(stderr, "relcont_serve: shut down\n");
    return 0;
  }

  relcont::ServerSession session(&service, static_cast<int>(threads));
  if (interactive) {
    std::printf("relcont serve — HELP for the protocol\n> ");
  }
  std::string line;
  while (std::getline(std::cin, line)) {
    std::string response = session.HandleLine(line);
    std::fputs(response.c_str(), stdout);
    std::fflush(stdout);
    if (interactive) std::printf("> ");
  }
  return 0;
}

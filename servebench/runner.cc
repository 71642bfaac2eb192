#include "runner.h"

#include <arpa/inet.h>
#include <dirent.h>
#include <malloc.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <thread>

#include "constraints/dense_order.h"
#include "obs/server.h"
#include "relcont/cegar.h"
#include "service/protocol.h"
#include "tracer.h"

namespace servebench {

using relcont::ContainmentService;
using relcont::ServerSession;

void PassResult::NoteMismatch(const std::string& what) {
  ++mismatches;
  if (mismatch_samples.size() < 5) mismatch_samples.push_back(what);
}

std::vector<double> PassResult::Latencies(bool any_verb, Verb verb,
                                          int segment) const {
  std::vector<double> out;
  for (const Sample& s : samples) {
    if ((any_verb || s.verb == verb) && (segment < 0 || s.segment == segment)) {
      out.push_back(s.us);
    }
  }
  return out;
}

double PassResult::ThroughputRps(int segment) const {
  uint64_t requests = 0;
  double us = 0;
  for (const Sample& s : samples) {
    if (segment >= 0 && s.segment != segment) continue;
    ++requests;
    us += s.us;
  }
  return us > 0 ? requests / (us / 1e6) : 0;
}

namespace {

/// A "VmRSS:"-style field of /proc/self/status, in kB (0 if absent).
long StatusKb(const char* field) {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  long kb = 0;
  size_t n = std::strlen(field);
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, field, n) == 0) {
      kb = std::atol(line + n);
      break;
    }
  }
  std::fclose(f);
  return kb;
}

/// The service's own peak memory. Started after the earlier set-ups are
/// torn down, just before the set-up that stays up for the timed sequence:
/// it returns the heap's free pages to the kernel (so the service cannot
/// reuse pages the oracle or an earlier set-up left resident), resets the
/// kernel's high-water mark and takes the resident set as the baseline.
/// PeakMb is then the peak that set-up and the timed sequence added on
/// top of it.
class ServiceRss {
 public:
  void Start() {
    malloc_trim(0);
    FILE* f = std::fopen("/proc/self/clear_refs", "w");
    if (f == nullptr || std::fputs("5", f) < 0) {
      std::fprintf(stderr, "servebench: cannot reset the peak RSS mark\n");
    }
    if (f != nullptr) std::fclose(f);
    base_kb_ = StatusKb("VmRSS:");
  }
  double PeakMb() const {
    return static_cast<double>(StatusKb("VmHWM:") - base_kb_) / 1024.0;
  }

 private:
  long base_kb_ = 0;
};

/// Steps of `client`'s timed sequence that record a latency sample.
size_t TimedRequests(const ClientScript& client) {
  size_t n = 0;
  for (const Step& step : client.steps) {
    if (step.verb == Verb::kContained || step.verb == Verb::kPlan ||
        step.verb == Verb::kCatalog) {
      ++n;
    }
  }
  return n;
}

/// Allocates and touches room for `n` samples, so recording them adds
/// nothing to the resident set that ServiceRss watches.
void ReserveSamples(size_t n, PassResult* out) {
  out->samples.assign(n, Sample{});
  out->samples.clear();
}

/// The segment of step `i` of a sequence of `n` steps.
uint16_t SegmentOf(size_t i, size_t n) {
  return static_cast<uint16_t>(i * kSegments / std::max<size_t>(1, n));
}

std::string FirstLine(const std::string& reply) {
  return reply.substr(0, reply.find('\n'));
}

/// Process-wide engine counters (CEGAR, dense order), read around the
/// calls that belong to the service under test.
struct EngineCounters {
  uint64_t cegar_proposals = 0, cegar_iterations = 0, propagations = 0;

  static EngineCounters Now() {
    EngineCounters out;
    relcont::CegarGlobalCounters& cegar = relcont::GlobalCegarCounters();
    out.cegar_proposals = cegar.proposals.load(std::memory_order_relaxed);
    out.cegar_iterations = cegar.iterations.load(std::memory_order_relaxed);
    out.propagations =
        relcont::constraints::GlobalDenseOrderStats().propagations.load(
            std::memory_order_relaxed);
    return out;
  }
  void AddDelta(const EngineCounters& before, const EngineCounters& after) {
    cegar_proposals += after.cegar_proposals - before.cegar_proposals;
    cegar_iterations += after.cegar_iterations - before.cegar_iterations;
    propagations += after.propagations - before.propagations;
  }
};

/// Cache statistics of the service under test, before/after a pass.
struct CacheCounters {
  relcont::CacheStats cache;
  relcont::PlanCacheStats plan;

  static CacheCounters Of(ContainmentService* service) {
    return {service->cache().Stats(), service->planner().cache().Stats()};
  }
};

void AddCounts(const CacheCounters& before, const CacheCounters& after,
               const EngineCounters& engine, ExactCounts* counts) {
  (*counts)["cache.hits"] = after.cache.hits - before.cache.hits;
  (*counts)["cache.misses"] = after.cache.misses - before.cache.misses;
  (*counts)["cache.evictions"] = after.cache.evictions - before.cache.evictions;
  (*counts)["plan_cache.hits"] = after.plan.hits - before.plan.hits;
  (*counts)["plan_cache.misses"] = after.plan.misses - before.plan.misses;
  (*counts)["plan_cache.evictions"] =
      after.plan.evictions - before.plan.evictions;
  (*counts)["plan_cache.invalidated"] =
      after.plan.invalidated - before.plan.invalidated;
  (*counts)["cegar.proposals"] = engine.cegar_proposals;
  (*counts)["cegar.iterations"] = engine.cegar_iterations;
  (*counts)["dense_order.propagations"] = engine.propagations;
}

/// Records one protocol reply: its latency sample, ERR replies, oracle
/// mismatches and the reply-level exact counts.
void RecordReply(const Script& script, const Step& step, const Sample& sample,
                 const std::string& first, PassResult* out) {
  ++out->attempted;
  out->samples.push_back(sample);
  if (first.rfind("ERR", 0) == 0) ++out->errors;
  std::string mismatch = CheckReply(script, step, first);
  if (!mismatch.empty()) {
    out->NoteMismatch(step.line->substr(0, 60) + ": " + mismatch);
  }
  bool hit = ReplyIsHit(first);
  switch (step.verb) {
    case Verb::kContained:
      ++out->counts[hit ? "contained.hit" : "contained.miss"];
      ++out->counts["regime." + ReplyRegime(first)];
      break;
    case Verb::kPlan:
      ++out->counts[hit ? "plan.hit" : "plan.miss"];
      break;
    case Verb::kCatalog:
      ++out->counts["catalog.writes"];
      break;
    default:
      break;
  }
}

/// Sends a set-up line and checks the reply starts with `want`.
void SetupLine(ServerSession* session, const std::string& line,
               const std::string& want, PassResult* out) {
  std::string first = FirstLine(session->HandleLine(line));
  if (first.rfind(want, 0) != 0) {
    out->NoteMismatch("set-up '" + line.substr(0, 60) + "': " + first);
  }
}

struct InProcessEnv {
  std::unique_ptr<ContainmentService> service;
  std::vector<std::unique_ptr<ServerSession>> sessions;

  void Stop() {
    sessions.clear();
    service.reset();
  }

  void Setup(const Script& script, PassResult* out) {
    service = std::make_unique<ContainmentService>();
    for (size_t c = 0; c < script.clients.size(); ++c) {
      sessions.push_back(std::make_unique<ServerSession>(service.get()));
    }
    for (int index : script.initial_catalogs) {
      SetupLine(sessions[0].get(), script.catalogs[index].ProtocolLine(),
                "OK catalog", out);
    }
    for (size_t c = 0; c < script.clients.size(); ++c) {
      for (const std::string& line : script.clients[c].defines) {
        SetupLine(sessions[c].get(), line, "OK query", out);
      }
    }
    for (size_t c = 0; c < script.clients.size(); ++c) {
      for (const Step& step : script.clients[c].warmup) {
        std::string first = FirstLine(sessions[c]->HandleLine(*step.line));
        std::string mismatch = CheckReply(script, step, first);
        if (!mismatch.empty()) out->NoteMismatch("warm-up: " + mismatch);
      }
    }
  }
};

/// Moves the calling thread (with `whole_process`, every thread of the
/// process) across the CPUs it may run on, one CPU per slice of the
/// sequence. On a shared machine the CPUs run at different, drifting speeds
/// (their hardware siblings belong to other tenants); a run that visits all
/// of them measures the machine, not the CPU it happened to start on.
class CpuRotation {
 public:
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;
  explicit CpuRotation(bool whole_process = false)
      : whole_process_(whole_process) {
    CPU_ZERO(&original_);
    if (sched_getaffinity(0, sizeof(original_), &original_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &original_)) cpus_.push_back(cpu);
    }
  }
  ~CpuRotation() {
    if (!cpus_.empty()) Apply(original_);
  }
  /// Pins the thread to the CPU of `slice`.
  void Enter(size_t slice) {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[slice % cpus_.size()], &one);
    Apply(one);
  }

 private:
  void Apply(const cpu_set_t& set) {
    if (!whole_process_) {
      sched_setaffinity(0, sizeof(set), &set);
      return;
    }
    DIR* tasks = opendir("/proc/self/task");
    if (tasks == nullptr) return;
    while (dirent* task = readdir(tasks)) {
      if (task->d_name[0] == '.') continue;
      sched_setaffinity(static_cast<pid_t>(std::atoi(task->d_name)),
                        sizeof(set), &set);
    }
    closedir(tasks);
  }

  bool whole_process_;
  cpu_set_t original_;
  std::vector<int> cpus_;
};

/// Median wall time of `setups` set-ups; `env.Stop()` tears the previous
/// one down outside the timed window, and so does `rotation`, if given,
/// which moves set-up `i` to the CPU of slice `i`. The last set-up stays
/// up, and `rss` starts watching just before it.
template <typename Env, typename SetupFn>
double MedianSetup(int setups, Env* env, ServiceRss* rss,
                   CpuRotation* rotation, SetupFn&& setup) {
  std::vector<double> seconds;
  const int n = std::max(1, setups);
  for (int i = 0; i < n; ++i) {
    env->Stop();
    if (rotation != nullptr) rotation->Enter(i);
    if (i == n - 1) rss->Start();
    seconds.push_back(TimeUs(setup) / 1e6);
  }
  return Quantile(seconds, 0.5);
}

}  // namespace

PassResult RunInProcess(const Script& script, int setups, Tracer* tracer) {
  PassResult out;
  size_t requests = 0;
  for (const ClientScript& c : script.clients) requests += TimedRequests(c);
  ReserveSamples(requests, &out);
  ServiceRss rss;
  InProcessEnv env;
  out.setup_s =
      MedianSetup(setups, &env, &rss, nullptr, [&] { env.Setup(script, &out); });
  if (tracer != nullptr) {
    tracer->Attach(env.service.get());
    tracer->Setup();
  }
  CacheCounters before = CacheCounters::Of(env.service.get());
  EngineCounters engine;
  size_t longest = 0;
  for (const ClientScript& c : script.clients) {
    longest = std::max(longest, c.steps.size());
  }
  // About 40 slices per run, whatever its length.
  const size_t slice = std::max<size_t>(1, longest / 40);
  CpuRotation rotation;
  Clock::time_point loop_start = Clock::now();
  for (size_t i = 0; i < longest; ++i) {
    if (i % slice == 0) rotation.Enter(i / slice);
    for (size_t c = 0; c < script.clients.size(); ++c) {
      if (i >= script.clients[c].steps.size()) continue;
      const Step& step = script.clients[c].steps[i];
      if (step.verb == Verb::kReconnect) {
        env.sessions[c] = std::make_unique<ServerSession>(env.service.get());
        for (const std::string& line : script.clients[c].defines) {
          SetupLine(env.sessions[c].get(), line, "OK query", &out);
        }
        continue;
      }
      if (step.verb == Verb::kScrapeMetrics ||
          step.verb == Verb::kScrapeStatusz) {
        if (tracer != nullptr) tracer->OnStep(step, 0, "");
        continue;
      }
      EngineCounters e0 = EngineCounters::Now();
      Clock::time_point t0 = Clock::now();
      std::string reply = env.sessions[c]->HandleLine(*step.line);
      double us = MicrosSince(t0);
      engine.AddDelta(e0, EngineCounters::Now());
      std::string first = FirstLine(reply);
      RecordReply(script, step,
                  Sample{us, step.verb,
                         SegmentOf(i, script.clients[c].steps.size())},
                  first, &out);
      if (tracer != nullptr) tracer->OnStep(step, us, first);
    }
  }
  out.loop_us = MicrosSince(loop_start);
  out.rss_peak_mb = rss.PeakMb();
  AddCounts(before, CacheCounters::Of(env.service.get()), engine, &out.counts);
  return out;
}

namespace {

/// One persistent protocol connection with line buffering.
class Connection {
 public:
  Connection() = default;
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;
  ~Connection() { Close(); }

  bool Connect(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    buffer_.clear();
    pos_ = 0;
    return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
           0;
  }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  bool Write(const std::string& data) {
    size_t sent = 0;
    while (sent < data.size()) {
      ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent,
                         MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  /// Reads one '\n'-terminated line (without the newline); false on EOF.
  bool ReadLine(std::string* line) {
    for (;;) {
      size_t nl = buffer_.find('\n', pos_);
      if (nl != std::string::npos) {
        line->assign(buffer_, pos_, nl - pos_);
        pos_ = nl + 1;
        if (pos_ > 65536) {
          buffer_.erase(0, pos_);
          pos_ = 0;
        }
        return true;
      }
      char chunk[16384];
      ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

  /// Reads until the peer closes; returns everything read.
  std::string ReadAll() {
    std::string out = buffer_.substr(pos_);
    char chunk[16384];
    ssize_t n;
    while ((n = ::recv(fd_, chunk, sizeof(chunk), 0)) > 0) {
      out.append(chunk, static_cast<size_t>(n));
    }
    return out;
  }

  /// Sends one protocol line and reads its reply; for PLAN? the plan body
  /// (rules=N lines) is read too. Returns the reply's first line.
  bool Request(const std::string& line, Verb verb, std::string* first) {
    if (!Write(line + "\n") || !ReadLine(first)) return false;
    if (verb == Verb::kPlan) {
      std::string rule;
      for (int i = ReplyPlanRules(*first); i > 0; --i) {
        if (!ReadLine(&rule)) return false;
      }
    }
    return true;
  }

 private:
  int fd_ = -1;
  std::string buffer_;
  size_t pos_ = 0;
};

/// GET `path` on a fresh connection; true on a 200 reply.
bool HttpGet(int port, const std::string& path) {
  Connection conn;
  if (!conn.Connect(port) ||
      !conn.Write("GET " + path + " HTTP/1.1\r\nHost: localhost\r\n\r\n")) {
    return false;
  }
  std::string reply = conn.ReadAll();
  return reply.rfind("HTTP/1.1 200", 0) == 0 ||
         reply.rfind("HTTP/1.0 200", 0) == 0;
}

struct TcpEnv {
  std::unique_ptr<ContainmentService> service;
  std::unique_ptr<relcont::obs::ObsServer> server;
  std::thread serve_thread;
  std::vector<std::unique_ptr<Connection>> conns;

  ~TcpEnv() { Stop(); }

  void Stop() {
    conns.clear();
    if (server != nullptr) server->Shutdown();
    if (serve_thread.joinable()) serve_thread.join();
    server.reset();
    service.reset();
  }

  void SetupLine(Connection* conn, const std::string& line,
                 const std::string& want, PassResult* out) {
    std::string first;
    if (!conn->Request(line, Verb::kCatalog, &first) ||
        first.rfind(want, 0) != 0) {
      out->NoteMismatch("set-up '" + line.substr(0, 60) + "': " + first);
    }
  }

  bool Setup(const Script& script, PassResult* out) {
    service = std::make_unique<ContainmentService>();
    server = std::make_unique<relcont::obs::ObsServer>(
        service.get(), relcont::obs::ServerOptions{});
    if (!server->Start().ok()) return false;
    serve_thread = std::thread([this] { server->Serve(); });
    for (size_t c = 0; c < script.clients.size(); ++c) {
      conns.push_back(std::make_unique<Connection>());
      if (!conns.back()->Connect(server->port())) return false;
    }
    for (int index : script.initial_catalogs) {
      SetupLine(conns[0].get(), script.catalogs[index].ProtocolLine(),
                "OK catalog", out);
    }
    for (size_t c = 0; c < script.clients.size(); ++c) {
      for (const std::string& line : script.clients[c].defines) {
        SetupLine(conns[c].get(), line, "OK query", out);
      }
      for (const Step& step : script.clients[c].warmup) {
        std::string first;
        conns[c]->Request(*step.line, step.verb, &first);
        std::string mismatch = CheckReply(script, step, first);
        if (!mismatch.empty()) out->NoteMismatch("warm-up: " + mismatch);
      }
    }
    return true;
  }
};

/// Runs step `i` of client `c` on its connection.
void TcpStep(const Script& script, size_t c, size_t i, int port,
             Connection* conn, PassResult* out) {
  const std::vector<Step>& steps = script.clients[c].steps;
  const Step& step = steps[i];
  switch (step.verb) {
    case Verb::kReconnect: {
      conn->Close();
      double us = TimeUs([&] {
        if (!conn->Connect(port)) out->NoteMismatch("reconnect failed");
      });
      out->connect_us.push_back(us);
      for (const std::string& line : script.clients[c].defines) {
        std::string first;
        if (!conn->Request(line, Verb::kCatalog, &first) ||
            first.rfind("OK query", 0) != 0) {
          out->NoteMismatch("re-DEFINE: " + first);
        }
      }
      break;
    }
    case Verb::kScrapeMetrics:
    case Verb::kScrapeStatusz: {
      bool metrics = step.verb == Verb::kScrapeMetrics;
      bool ok = true;
      double us = TimeUs(
          [&] { ok = HttpGet(port, metrics ? "/metrics" : "/statusz"); });
      if (!ok) out->NoteMismatch("scrape failed");
      (metrics ? out->scrape_metrics_us : out->scrape_statusz_us)
          .push_back(us);
      break;
    }
    default: {
      std::string first;
      Clock::time_point t0 = Clock::now();
      bool ok = conn->Request(*step.line, step.verb, &first);
      double us = MicrosSince(t0);
      if (!ok) first = "ERR connection lost";
      RecordReply(script, step,
                  Sample{us, step.verb, SegmentOf(i, steps.size())},
                  first, out);
      break;
    }
  }
}

}  // namespace

PassResult RunTcp(const Script& script, int setups) {
  PassResult out;
  size_t requests = 0;
  for (const ClientScript& c : script.clients) requests += TimedRequests(c);
  ReserveSamples(requests, &out);
  ServiceRss rss;
  TcpEnv env;
  // The client and every server thread share one CPU at a time (threads
  // the server starts later inherit it), so each round trip is two
  // context switches on that CPU and never waits for an idle vCPU to wake.
  CpuRotation rotation(/*whole_process=*/true);
  bool started = true;
  out.setup_s = MedianSetup(setups, &env, &rss, &rotation, [&] {
    started = env.Setup(script, &out) && started;
  });
  if (!started) {
    out.NoteMismatch("server did not start");
    return out;
  }
  CacheCounters before = CacheCounters::Of(env.service.get());
  EngineCounters e0 = EngineCounters::Now();
  size_t longest = 0;
  for (const ClientScript& c : script.clients) {
    longest = std::max(longest, c.steps.size());
  }
  // About 40 slices per run, as in process.
  const size_t slice = std::max<size_t>(1, longest / 40);
  for (size_t i = 0; i < longest; ++i) {
    if (i % slice == 0) rotation.Enter(i / slice);
    for (size_t c = 0; c < script.clients.size(); ++c) {
      if (i >= script.clients[c].steps.size()) continue;
      TcpStep(script, c, i, env.server->port(), env.conns[c].get(), &out);
    }
  }
  out.rss_peak_mb = rss.PeakMb();
  EngineCounters engine;
  engine.AddDelta(e0, EngineCounters::Now());
  AddCounts(before, CacheCounters::Of(env.service.get()), engine, &out.counts);
  env.Stop();
  return out;
}

}  // namespace servebench

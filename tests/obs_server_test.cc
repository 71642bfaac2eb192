// Tests for the TCP front end (obs::ObsServer): the line protocol over a
// socket, concurrent isolated sessions, HTTP endpoint routing, and the
// acceptance property that GET /metrics and the METRICS verb agree —
// they render the same MetricsSnapshot. Run under TSan in CI.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "gtest/gtest.h"
#include "obs/access_log.h"
#include "obs/server.h"
#include "relcont/pi2p_reduction.h"
#include "service/service.h"

namespace relcont {
namespace {

// ---------------------------------------------------------------------------
// Minimal blocking socket client.

class Client {
 public:
  explicit Client(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(port));
    connected_ = ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                           sizeof(addr)) == 0;
  }
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool connected() const { return connected_; }

  bool Send(const std::string& data) {
    size_t sent = 0;
    while (sent < data.size()) {
      ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent,
                         MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  /// One LF-terminated line (stripped of the terminator), "" on EOF.
  std::string ReadLine() {
    std::string line;
    char c;
    while (::recv(fd_, &c, 1, 0) == 1) {
      if (c == '\n') return line;
      line.push_back(c);
    }
    return line;
  }

  /// Everything until the peer closes.
  std::string ReadAll() {
    std::string out;
    char chunk[4096];
    ssize_t n;
    while ((n = ::recv(fd_, chunk, sizeof(chunk), 0)) > 0) {
      out.append(chunk, static_cast<size_t>(n));
    }
    return out;
  }

  /// Half-close: no more requests, but responses still flow back.
  void FinishSending() { ::shutdown(fd_, SHUT_WR); }

 private:
  int fd_ = -1;
  bool connected_ = false;
};

struct HttpReply {
  std::string status_line;
  std::map<std::string, std::string> headers;
  std::string body;
};

HttpReply Get(int port, const std::string& target,
              const std::string& method = "GET") {
  Client client(port);
  EXPECT_TRUE(client.connected());
  client.Send(method + " " + target + " HTTP/1.1\r\nHost: test\r\n\r\n");
  std::string raw = client.ReadAll();
  HttpReply reply;
  size_t head_end = raw.find("\r\n\r\n");
  if (head_end == std::string::npos) {
    reply.status_line = raw;
    return reply;
  }
  reply.body = raw.substr(head_end + 4);
  std::istringstream head(raw.substr(0, head_end));
  std::getline(head, reply.status_line);
  if (!reply.status_line.empty() && reply.status_line.back() == '\r') {
    reply.status_line.pop_back();
  }
  std::string line;
  while (std::getline(head, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    size_t colon = line.find(": ");
    if (colon != std::string::npos) {
      reply.headers[line.substr(0, colon)] = line.substr(colon + 2);
    }
  }
  return reply;
}

// ---------------------------------------------------------------------------
// Fixture: a service with one catalog, served on an ephemeral port.

class ObsServerTest : public testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(service_
                    .catalogs()
                    .Register("cars",
                              "redcars(C, M, Y) :- cardesc(C, M, red, Y).\n"
                              "allcars(C, M, Col) :- cardesc(C, M, Col, Y).\n")
                    .ok());
    StartServer();
  }

  void StartServer() {
    obs::ServerOptions options;
    options.port = 0;  // ephemeral: tests never collide on a fixed port
    options.batch_threads = 2;
    StartServerWith(options);
  }

  void StartServerWith(obs::ServerOptions options) {
    options.port = 0;
    server_ = std::make_unique<obs::ObsServer>(&service_, options);
    Status status = server_->Start();
    ASSERT_TRUE(status.ok()) << status.ToString();
    ASSERT_GT(server_->port(), 0);
    serve_thread_ = std::thread([this] { server_->Serve(); });
  }

  /// Stops the running server so a test can restart it with custom
  /// options via StartServerWith.
  void StopServer() {
    server_->Shutdown();
    if (serve_thread_.joinable()) serve_thread_.join();
  }

  void TearDown() override {
    server_->Shutdown();
    if (serve_thread_.joinable()) serve_thread_.join();
  }

  int port() const { return server_->port(); }

  /// Waits until every earlier connection has been torn down (the server
  /// closes a socket before it decrements the gauge).
  void WaitForNoOpenConnections() {
    for (int i = 0; i < 2000 && service_.metrics().open_connections() != 0;
         ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_EQ(service_.metrics().open_connections(), 0);
  }

  /// Runs one CONTAINED? decision over a fresh protocol connection.
  std::string RunDecision(const std::string& q1_head = "q1",
                          const std::string& q2_head = "q2") {
    Client client(port());
    EXPECT_TRUE(client.connected());
    client.Send("DEFINE " + q1_head + " " + q1_head +
                "(C) :- cardesc(C, M, red, Y).\n");
    EXPECT_NE(client.ReadLine().find("OK"), std::string::npos);
    client.Send("DEFINE " + q2_head + " " + q2_head +
                "(C) :- cardesc(C, M, Col, Y).\n");
    EXPECT_NE(client.ReadLine().find("OK"), std::string::npos);
    client.Send("CONTAINED? " + q1_head + " " + q2_head + " @cars\n");
    return client.ReadLine();
  }

  ContainmentService service_;
  std::unique_ptr<obs::ObsServer> server_;
  std::thread serve_thread_;
};

TEST_F(ObsServerTest, SpeaksTheProtocolOverTcp) {
  std::string verdict = RunDecision();
  EXPECT_EQ(verdict.substr(0, 3), "YES") << verdict;
}

TEST_F(ObsServerTest, DeepChainAnswersOverTcp) {
  // A 35,001-rule nonrecursive chain (0.82 MB, under the 1 MiB line cap):
  // its unfolding is 35,000 resolution steps deep on a session thread.
  std::string define = "DEFINE deep";
  for (int i = 0; i < 35000; ++i) {
    define += " p" + std::to_string(i) + "(C) :- p" + std::to_string(i + 1) +
              "(C).";
  }
  define += " p35000(C) :- cardesc(C, M, red, Y).\n";
  Client client(port());
  ASSERT_TRUE(client.connected());
  client.Send(define);
  EXPECT_EQ(client.ReadLine().rfind("OK", 0), 0u);
  client.Send("DEFINE all all(C) :- cardesc(C, M, Col, Y).\n");
  EXPECT_EQ(client.ReadLine().rfind("OK", 0), 0u);
  client.Send("CONTAINED? deep all @cars\n");
  std::string verdict = client.ReadLine();
  EXPECT_EQ(verdict.rfind("YES", 0), 0u) << verdict;
}

TEST_F(ObsServerTest, SessionsAreIsolatedAndConcurrent) {
  Client a(port());
  Client b(port());
  ASSERT_TRUE(a.connected());
  ASSERT_TRUE(b.connected());
  // The same query name means different things in each session.
  a.Send("DEFINE q q(C) :- cardesc(C, M, red, Y).\n");
  b.Send("DEFINE q q(C) :- cardesc(C, M, Col, Y).\n");
  EXPECT_NE(a.ReadLine().find("OK"), std::string::npos);
  EXPECT_NE(b.ReadLine().find("OK"), std::string::npos);
  // Session B never defined q2; session A resolves both.
  a.Send("DEFINE q2 q2(C) :- cardesc(C, M, Col, Y).\n");
  EXPECT_NE(a.ReadLine().find("OK"), std::string::npos);
  b.Send("CONTAINED? q q2 @cars\n");
  EXPECT_EQ(b.ReadLine().substr(0, 3), "ERR");
  a.Send("CONTAINED? q q2 @cars\n");
  EXPECT_EQ(a.ReadLine().substr(0, 3), "YES");
}

TEST_F(ObsServerTest, ManyConcurrentClients) {
  constexpr int kClients = 8;
  std::vector<std::thread> threads;
  std::vector<std::string> verdicts(kClients);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([this, i, &verdicts] {
      verdicts[i] = RunDecision("qa" + std::to_string(i),
                                "qb" + std::to_string(i));
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::string& verdict : verdicts) {
    EXPECT_EQ(verdict.substr(0, 3), "YES") << verdict;
  }
}

TEST_F(ObsServerTest, HealthzAnswersOk) {
  HttpReply reply = Get(port(), "/healthz");
  EXPECT_EQ(reply.status_line, "HTTP/1.1 200 OK");
  EXPECT_EQ(reply.body, "ok\n");
}

TEST_F(ObsServerTest, BuildzReportsIdentityAsJson) {
  HttpReply reply = Get(port(), "/buildz");
  EXPECT_EQ(reply.status_line, "HTTP/1.1 200 OK");
  EXPECT_EQ(reply.headers["Content-Type"], "application/json");
  Result<json::Value> parsed = json::Parse(reply.body);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << reply.body;
  EXPECT_TRUE(parsed->Find("version")->is_string());
  EXPECT_TRUE(parsed->Find("trace_compiled_in")->is_bool());
  EXPECT_GT(parsed->Find("cache_capacity")->number_value, 0);
  EXPECT_DOUBLE_EQ(parsed->Find("batch_threads")->number_value, 2);
}

TEST_F(ObsServerTest, UnknownPathIs404AndBadMethodIs405) {
  EXPECT_EQ(Get(port(), "/nope").status_line, "HTTP/1.1 404 Not Found");
  EXPECT_EQ(Get(port(), "/metrics", "POST").status_line,
            "HTTP/1.1 405 Method Not Allowed");
}

/// Satellite: between RequestDrain (SIGTERM) and listener close, /healthz
/// answers 503 "draining" so a load balancer can deregister the node, and
/// the flag is visible in the shared snapshot.
TEST_F(ObsServerTest, HealthzReportsDrainingDuringGrace) {
  StopServer();
  obs::ServerOptions options;
  options.batch_threads = 2;
  options.drain_grace_ms = 60000;  // TearDown's Shutdown preempts this
  StartServerWith(options);

  EXPECT_EQ(Get(port(), "/healthz").status_line, "HTTP/1.1 200 OK");
  server_->RequestDrain();
  HttpReply reply = Get(port(), "/healthz");
  EXPECT_EQ(reply.status_line, "HTTP/1.1 503 Service Unavailable");
  EXPECT_EQ(reply.body, "draining\n");
  EXPECT_NE(Get(port(), "/metrics").body.find("relcont_draining 1"),
            std::string::npos);
  EXPECT_NE(Get(port(), "/statusz").body.find("\"draining\":true"),
            std::string::npos);
}

/// After the grace period the watchdog closes the listener: Serve returns
/// and new connections are refused.
TEST_F(ObsServerTest, DrainClosesListenerAfterGrace) {
  StopServer();
  obs::ServerOptions options;
  options.batch_threads = 2;
  options.drain_grace_ms = 50;
  StartServerWith(options);
  int drained_port = port();
  server_->RequestDrain();
  serve_thread_.join();  // Serve unblocks once the watchdog shuts down
  Client late(drained_port);
  EXPECT_TRUE(!late.connected() || late.ReadAll().empty());
}

/// Satellite: parser hardening. An oversized request line or header block
/// is answered 431 and counted; a client that stalls mid-head is cut off
/// with 408 after --http-header-timeout and counted.
TEST_F(ObsServerTest, OversizedRequestHeadIs431AndCounted) {
  Client line_client(port());
  ASSERT_TRUE(line_client.connected());
  line_client.Send("GET /" + std::string(9000, 'a') + " HTTP/1.1\r\n\r\n");
  std::string raw = line_client.ReadAll();
  EXPECT_EQ(raw.substr(0, 12), "HTTP/1.1 431") << raw.substr(0, 64);

  Client header_client(port());
  ASSERT_TRUE(header_client.connected());
  std::string request = "GET /healthz HTTP/1.1\r\n";
  for (int i = 0; i < 16; ++i) {
    request += "X-Pad-" + std::to_string(i) + ": " +
               std::string(4000, 'b') + "\r\n";
  }
  request += "\r\n";
  header_client.Send(request);
  raw = header_client.ReadAll();
  EXPECT_EQ(raw.substr(0, 12), "HTTP/1.1 431") << raw.substr(0, 64);

  EXPECT_NE(
      Get(port(), "/metrics")
          .body.find("relcont_http_rejected_total{code=\"431\"} 2"),
      std::string::npos);
}

TEST_F(ObsServerTest, SlowClientMidHeadIs408AndCounted) {
  StopServer();
  obs::ServerOptions options;
  options.batch_threads = 2;
  options.http_header_timeout_ms = 150;
  StartServerWith(options);

  Client client(port());
  ASSERT_TRUE(client.connected());
  client.Send("GET /healthz HTTP/1.1\r\nHost: test\r\n");  // no blank line
  std::string raw = client.ReadAll();  // server must cut us off
  EXPECT_EQ(raw.substr(0, 12), "HTTP/1.1 408") << raw.substr(0, 64);
  EXPECT_NE(
      Get(port(), "/metrics")
          .body.find("relcont_http_rejected_total{code=\"408\"} 1\n"),
      std::string::npos);
}

TEST_F(ObsServerTest, MalformedHttpIs400) {
  Client client(port());
  ASSERT_TRUE(client.connected());
  client.Send("GET badtarget HTTP/1.1\r\n\r\n");
  std::string raw = client.ReadAll();
  EXPECT_EQ(raw.substr(0, 17), "HTTP/1.1 400 Bad ");
}

/// The acceptance property: the METRICS verb answers exactly the bytes
/// `GET /metrics` serves — one renderer, one snapshot — apart from the
/// uptime line, which moves between the two scrapes.
TEST_F(ObsServerTest, MetricsEndpointMatchesMetricsVerb) {
  // Generate traffic: two decisions (one MISS, one HIT via the cache).
  EXPECT_EQ(RunDecision().substr(0, 3), "YES");
  EXPECT_EQ(RunDecision().substr(0, 3), "YES");
  // Both scrapes must see one open connection — their own.
  WaitForNoOpenConnections();

  // METRICS over a protocol connection (half-close ends the session).
  Client verb(port());
  ASSERT_TRUE(verb.connected());
  verb.Send("METRICS\n");
  verb.FinishSending();
  std::string text = verb.ReadAll();
  WaitForNoOpenConnections();

  // /metrics over HTTP.
  HttpReply reply = Get(port(), "/metrics");
  EXPECT_EQ(reply.status_line, "HTTP/1.1 200 OK");
  EXPECT_EQ(reply.headers["Content-Type"],
            "text/plain; version=0.0.4; charset=utf-8");

  auto mask_uptime = [](std::string body) {
    const std::string key = "\nrelcont_uptime_seconds ";
    size_t pos = body.find(key);
    EXPECT_NE(pos, std::string::npos);
    if (pos == std::string::npos) return body;
    pos += key.size();
    body.replace(pos, body.find('\n', pos) - pos, "<masked>");
    return body;
  };
  EXPECT_EQ(mask_uptime(text), mask_uptime(reply.body));
  // Sanity: the traffic we generated is visible, not just zero == zero.
  EXPECT_NE(text.find("\nrelcont_requests_total 2\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("relcont_window_latency_requests{verb=\"contained\","
                      "regime=\"all\",window=\"60s\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("\nrelcont_open_connections 1\n"), std::string::npos);
}

/// The same no-drift property for the third surface: the STATUSZ protocol
/// verb and GET /statusz render the same MetricsSnapshot as JSON, so over
/// a live socket their stable fields must agree.
TEST_F(ObsServerTest, StatuszEndpointMatchesStatuszVerb) {
  EXPECT_EQ(RunDecision().substr(0, 3), "YES");
  EXPECT_EQ(RunDecision().substr(0, 3), "YES");

  Client verb(port());
  ASSERT_TRUE(verb.connected());
  verb.Send("STATUSZ\n");
  verb.FinishSending();
  std::string verb_json = verb.ReadAll();

  HttpReply reply = Get(port(), "/statusz");
  EXPECT_EQ(reply.status_line, "HTTP/1.1 200 OK");
  EXPECT_EQ(reply.headers["Content-Type"], "application/json");

  Result<json::Value> from_verb = json::Parse(verb_json);
  ASSERT_TRUE(from_verb.ok()) << verb_json;
  Result<json::Value> from_http = json::Parse(reply.body);
  ASSERT_TRUE(from_http.ok()) << reply.body;

  // Uptime differs between the two snapshots; every cumulative field must
  // not. Compare the request totals, cache counters, and the windowed
  // latency rows (the 60s window spans both scrape instants).
  auto requests = [](const json::Value& v, const char* key) {
    return v.Find("requests")->Find(key)->number_value;
  };
  for (const char* key : {"total", "errors", "cache_hits", "plan_requests",
                          "unknown_verbs"}) {
    EXPECT_DOUBLE_EQ(requests(*from_verb, key), requests(*from_http, key))
        << key;
  }
  EXPECT_DOUBLE_EQ(requests(*from_verb, "total"), 2);
  EXPECT_DOUBLE_EQ(from_verb->Find("cache")->Find("hits")->number_value,
                   from_http->Find("cache")->Find("hits")->number_value);
  EXPECT_DOUBLE_EQ(from_verb->Find("cache")->Find("hit_rate")->number_value,
                   from_http->Find("cache")->Find("hit_rate")->number_value);

  auto window_row = [](const json::Value& v, const std::string& verb_name,
                       const std::string& regime, int window_secs)
      -> const json::Value* {
    for (const json::Value& row :
         v.Find("windows")->Find("latency")->array) {
      if (row.Find("verb")->string_value == verb_name &&
          row.Find("regime")->string_value == regime &&
          row.Find("window_secs")->number_value == window_secs) {
        return &row;
      }
    }
    return nullptr;
  };
  const json::Value* verb_row = window_row(*from_verb, "contained", "all", 60);
  const json::Value* http_row = window_row(*from_http, "contained", "all", 60);
  ASSERT_NE(verb_row, nullptr) << verb_json;
  ASSERT_NE(http_row, nullptr) << reply.body;
  EXPECT_DOUBLE_EQ(verb_row->Find("count")->number_value, 2);
  for (const char* key : {"count", "p50_us", "p90_us", "p99_us", "max_us"}) {
    EXPECT_DOUBLE_EQ(verb_row->Find(key)->number_value,
                     http_row->Find(key)->number_value)
        << key;
  }
}

/// Acceptance criterion for the plan service: PLAN? and REWRITE? round-trip
/// over a live TCP socket, a warm PLAN? is a cache HIT, and the planner's
/// counters show up in both METRICS and /metrics.
TEST_F(ObsServerTest, PlanAndRewriteRoundTripOverTcp) {
  Client client(port());
  ASSERT_TRUE(client.connected());
  client.Send("DEFINE pq pq(C) :- cardesc(C, M, red, Y).\n");
  EXPECT_NE(client.ReadLine().find("OK"), std::string::npos);
  client.Send("PLAN? pq @cars\n");
  std::string header = client.ReadLine();
  ASSERT_EQ(header.rfind("OK plan catalog=cars v1 kind=ucq rules=", 0), 0u)
      << header;
  EXPECT_NE(header.find(" MISS "), std::string::npos);
  // The plan body: rules=N executable rules, one per line, over the
  // sources.
  size_t rules_pos = header.find("rules=") + 6;
  int num_rules = std::atoi(header.c_str() + rules_pos);
  ASSERT_GT(num_rules, 0) << header;
  std::vector<std::string> plan_lines;
  for (int i = 0; i < num_rules; ++i) {
    plan_lines.push_back(client.ReadLine());
    EXPECT_EQ(plan_lines.back().rfind("pq(", 0), 0u) << plan_lines.back();
    EXPECT_TRUE(plan_lines.back().find("redcars(") != std::string::npos ||
                plan_lines.back().find("allcars(") != std::string::npos)
        << plan_lines.back();
  }

  client.Send("PLAN? pq @cars\n");
  std::string warm = client.ReadLine();
  EXPECT_NE(warm.find(" HIT "), std::string::npos) << warm;
  for (int i = 0; i < num_rules; ++i) {
    EXPECT_EQ(client.ReadLine(), plan_lines[static_cast<size_t>(i)]);
  }

  client.Send("DEFINE pq2 pq2(C) :- cardesc(C, M, Col, Y).\n");
  EXPECT_NE(client.ReadLine().find("OK"), std::string::npos);
  client.Send("REWRITE? pq pq2 @cars\n");
  std::string rewrite = client.ReadLine();
  EXPECT_EQ(rewrite.rfind("YES plan MISS ", 0), 0u) << rewrite;

  // The planner traffic is visible in both renderings of the snapshot.
  Client verb(port());
  ASSERT_TRUE(verb.connected());
  verb.Send("METRICS\n");
  verb.FinishSending();
  std::string text = verb.ReadAll();
  EXPECT_NE(text.find("\nrelcont_plan_requests_total 2\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("\nrelcont_rewrite_requests_total 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("\nrelcont_plan_cache_hits_total 1\n"),
            std::string::npos);
  HttpReply metrics = Get(port(), "/metrics");
  EXPECT_NE(metrics.body.find("relcont_plan_requests_total 2"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("relcont_rewrite_requests_total 1"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("relcont_plan_cache_hits_total 1"),
            std::string::npos);
}

/// Satellite: CATALOG? introspection over a live socket answers one line of
/// JSON that parses and reflects names, versions, view counts, and
/// adornments.
TEST_F(ObsServerTest, CatalogIntrospectionOverTcp) {
  ASSERT_TRUE(service_.catalogs()
                  .Register("paths", "v0(X, Y) :- e(X, Y).\n",
                            {{"v0", "bf"}})
                  .ok());
  Client client(port());
  ASSERT_TRUE(client.connected());
  client.Send("CATALOG?\n");
  std::string line = client.ReadLine();
  Result<json::Value> parsed = json::Parse(line);
  ASSERT_TRUE(parsed.ok()) << line;
  const json::Value* catalogs = parsed->Find("catalogs");
  ASSERT_NE(catalogs, nullptr);
  ASSERT_EQ(catalogs->array.size(), 2u);  // sorted: cars, paths
  EXPECT_EQ(catalogs->array[0].Find("name")->string_value, "cars");
  EXPECT_EQ(catalogs->array[0].Find("views")->number_value, 2);
  EXPECT_TRUE(catalogs->array[0].Find("patterns")->array.empty());
  const json::Value& paths = catalogs->array[1];
  EXPECT_EQ(paths.Find("name")->string_value, "paths");
  EXPECT_EQ(paths.Find("version")->number_value, 1);
  ASSERT_EQ(paths.Find("patterns")->array.size(), 1u);
  EXPECT_EQ(paths.Find("patterns")->array[0].Find("adornment")->string_value,
            "bf");

  client.Send("CATALOG? paths\n");
  std::string single = client.ReadLine();
  Result<json::Value> one = json::Parse(single);
  ASSERT_TRUE(one.ok()) << single;
  EXPECT_EQ(one->Find("catalogs")->array.size(), 1u);
}

/// Satellite: a typo'd verb over the wire gets the distinct unknown-verb
/// error line, and the counter lands in the Prometheus exposition under
/// the exact name relcont_unknown_verb_total.
TEST_F(ObsServerTest, UnknownVerbOverTcpIsCountedAndDistinct) {
  Client client(port());
  ASSERT_TRUE(client.connected());
  client.Send("PLANE? q @cars\n");
  EXPECT_EQ(client.ReadLine(), "ERR unknown-verb 'PLANE?' — try HELP");
  HttpReply metrics = Get(port(), "/metrics");
  EXPECT_NE(metrics.body.find("relcont_unknown_verb_total 1"),
            std::string::npos);
}

/// Acceptance criterion: a PLAN? past its deadline answers a bound error —
/// never a wrong (truncated) plan. Uses the same hard QBF catalog as the
/// CONTAINED? deadline test below.
TEST_F(ObsServerTest, PlanPastDeadlineAnswersBoundReached) {
  Interner gen;
  QbfFormula f = RandomQbf(/*num_exists=*/2, /*num_forall=*/8,
                           /*num_clauses=*/16, /*seed=*/11);
  Result<Pi2pInstance> inst = BuildPi2pReduction(f, &gen);
  ASSERT_TRUE(inst.ok()) << inst.status().ToString();
  std::string views_text;
  for (const ViewDefinition& v : inst->views.views()) {
    views_text += v.rule.ToString(gen);
    views_text += '\n';
  }
  ASSERT_TRUE(service_.catalogs().Register("qbf", views_text).ok());
  std::string query_text;
  for (const Rule& r : inst->q1.program.rules) {
    if (!query_text.empty()) query_text += ' ';
    query_text += r.ToString(gen);
  }
  Client client(port());
  ASSERT_TRUE(client.connected());
  client.Send("DEFINE hq " + query_text + "\n");
  EXPECT_NE(client.ReadLine().find("OK"), std::string::npos);
  client.Send("PLAN? hq @qbf timeout_ms=1\n");
  std::string reply = client.ReadLine();
  EXPECT_EQ(reply.substr(0, 3), "ERR") << reply;
  EXPECT_NE(reply.find("bound reached"), std::string::npos) << reply;
  // Nothing partial was cached: a retry with headroom must rebuild.
  EXPECT_EQ(service_.planner().cache().Stats().entries, 0u);
}

/// Acceptance criterion for deadline-aware serving: a request that carries
/// timeout_ms=1 against a Π₂ᵖ-hard pair (2^8 plan disjuncts, tens of
/// milliseconds of serial scanning) comes back as a well-formed bound
/// error well before the decision could have finished — and the trip is
/// visible in the Prometheus exposition.
TEST_F(ObsServerTest, ExpiredDeadlineAnswersBoundReachedFast) {
  // Render the hard pair through the text API.
  Interner gen;
  QbfFormula f = RandomQbf(/*num_exists=*/2, /*num_forall=*/8,
                           /*num_clauses=*/16, /*seed=*/11);
  Result<Pi2pInstance> inst = BuildPi2pReduction(f, &gen);
  ASSERT_TRUE(inst.ok()) << inst.status().ToString();
  std::string views_text;
  for (const ViewDefinition& v : inst->views.views()) {
    views_text += v.rule.ToString(gen);
    views_text += '\n';
  }
  ASSERT_TRUE(service_.catalogs().Register("qbf", views_text).ok());
  auto render = [&gen](const GoalQuery& q) {
    std::string text;  // multi-rule DEFINE: rules joined on one line
    for (const Rule& r : q.program.rules) {
      if (!text.empty()) text += ' ';
      text += r.ToString(gen);
    }
    return text;
  };

  Client client(port());
  ASSERT_TRUE(client.connected());
  client.Send("DEFINE hq1 " + render(inst->q2) + "\n");
  EXPECT_NE(client.ReadLine().find("OK"), std::string::npos);
  client.Send("DEFINE hq2 " + render(inst->q1) + "\n");
  EXPECT_NE(client.ReadLine().find("OK"), std::string::npos);

  auto start = std::chrono::steady_clock::now();
  client.Send("CONTAINED? hq1 hq2 @qbf timeout_ms=1\n");
  std::string reply = client.ReadLine();
  auto elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                        std::chrono::steady_clock::now() - start)
                        .count();

  EXPECT_EQ(reply.substr(0, 3), "ERR") << reply;
  EXPECT_NE(reply.find("bound reached"), std::string::npos) << reply;
  EXPECT_NE(reply.find("deadline exceeded"), std::string::npos) << reply;
  // The ISSUE budget was 50 ms on an idle machine (~17 ms typical); under a
  // parallel ctest run the scheduler can add tens of ms, so allow headroom
  // while still ruling out a run-to-completion answer. Sanitizer builds get
  // more slack — instrumented steps inflate the stride between deadline
  // checks.
  int64_t bound_ms = 150;
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
  bound_ms = 500;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
  bound_ms = 500;
#endif
#endif
  EXPECT_LT(elapsed_ms, bound_ms) << reply;

  // The trip shows up in the exposition.
  HttpReply metrics = Get(port(), "/metrics");
  EXPECT_EQ(metrics.status_line, "HTTP/1.1 200 OK");
  EXPECT_NE(metrics.body.find("relcont_deadline_exceeded_total 1"),
            std::string::npos);
}

/// Parses the request id out of an "ERR [id=N] ..." line (0 on mismatch).
uint64_t ParseErrorRequestId(const std::string& line) {
  size_t open = line.find("[id=");
  if (open == std::string::npos) return 0;
  return std::strtoull(line.c_str() + open + 4, nullptr, 10);
}

/// Acceptance criterion: the REQUESTZ verb and GET /requestz render the
/// flight recorder through the same code path, so over live sockets the
/// two surfaces must agree byte for byte — list and per-id drill-down.
TEST_F(ObsServerTest, RequestzVerbMatchesRequestzEndpoint) {
  // Traffic: two healthy decisions (id 1 is the head sample, retained),
  // then one service-level error (unknown catalog), always retained.
  EXPECT_EQ(RunDecision().substr(0, 3), "YES");
  EXPECT_EQ(RunDecision().substr(0, 3), "YES");
  Client bad(port());
  ASSERT_TRUE(bad.connected());
  bad.Send("DEFINE qe qe(C) :- cardesc(C, M, red, Y).\n");
  EXPECT_NE(bad.ReadLine().find("OK"), std::string::npos);
  bad.Send("CONTAINED? qe qe @nosuch\n");
  std::string err = bad.ReadLine();
  EXPECT_EQ(err.rfind("ERR [id=", 0), 0u) << err;
  uint64_t err_id = ParseErrorRequestId(err);
  ASSERT_GT(err_id, 0u) << err;

  // REQUESTZ mints no id and records no event, so the two scrapes see an
  // identical recorder and must render identical bytes.
  Client verb(port());
  ASSERT_TRUE(verb.connected());
  verb.Send("REQUESTZ\n");
  verb.FinishSending();
  std::string verb_list = verb.ReadAll();
  HttpReply http_list = Get(port(), "/requestz");
  EXPECT_EQ(http_list.status_line, "HTTP/1.1 200 OK");
  EXPECT_EQ(http_list.headers["Content-Type"], "application/json");
  EXPECT_EQ(verb_list, http_list.body);

  Result<json::Value> list = json::Parse(verb_list);
  ASSERT_TRUE(list.ok()) << verb_list;
  const json::Value* flight = list->Find("flight");
  ASSERT_NE(flight, nullptr);
  EXPECT_DOUBLE_EQ(flight->Find("recorded_total")->number_value, 3);
  EXPECT_GE(flight->Find("retained_total")->number_value, 2);
  EXPECT_GT(flight->Find("arena_bytes")->number_value, 0);
  EXPECT_EQ(list->Find("events")->array.size(), 3u);

  // The error request is resident: drill down on both surfaces.
  Client drill(port());
  ASSERT_TRUE(drill.connected());
  drill.Send("REQUESTZ " + std::to_string(err_id) + "\n");
  drill.FinishSending();
  std::string verb_event = drill.ReadAll();
  HttpReply http_event =
      Get(port(), "/requestz?id=" + std::to_string(err_id));
  EXPECT_EQ(http_event.status_line, "HTTP/1.1 200 OK");
  EXPECT_EQ(verb_event, http_event.body);

  Result<json::Value> entry = json::Parse(verb_event);
  ASSERT_TRUE(entry.ok()) << verb_event;
  const json::Value* event = entry->Find("event");
  ASSERT_NE(event, nullptr);
  EXPECT_DOUBLE_EQ(event->Find("request_id")->number_value,
                   static_cast<double>(err_id));
  EXPECT_EQ(event->Find("verb")->string_value, "contained");
  EXPECT_EQ(event->Find("catalog")->string_value, "nosuch");
  EXPECT_TRUE(event->Find("error")->bool_value);

  // Misses answer in kind on both surfaces.
  Client missing(port());
  ASSERT_TRUE(missing.connected());
  missing.Send("REQUESTZ 999999\n");
  EXPECT_EQ(missing.ReadLine(),
            "ERR InvalidArgument: request id 999999 not retained");
  EXPECT_EQ(Get(port(), "/requestz?id=999999").status_line,
            "HTTP/1.1 404 Not Found");

  // An id is digits only: a sign, or a value past 64 bits, is a usage
  // error on the verb and a 400 over HTTP on both surfaces alike — never
  // wrapped, and never read as a different id (+3 is not 3).
  for (const std::string bad_id :
       {"-1", "+3", "99999999999999999999999", "18446744073709551616", "0",
        "3x", "0x3"}) {
    Client hostile(port());
    ASSERT_TRUE(hostile.connected());
    hostile.Send("REQUESTZ " + bad_id + "\n");
    EXPECT_EQ(hostile.ReadLine(),
              "ERR InvalidArgument: expected REQUESTZ [<id>]")
        << bad_id;
    EXPECT_EQ(Get(port(), "/requestz?id=" + bad_id).status_line,
              "HTTP/1.1 400 Bad Request")
        << bad_id;
  }
}

/// Acceptance criterion: a deliberately slow request (1 ms deadline on a
/// hard catalog, so the budget trips) is tail-retained with its bound
/// site, and its full span tree is retrievable by request id.
TEST_F(ObsServerTest, BoundReachedRequestIsRetainedWithSpanTree) {
  StopServer();
  ServiceConfig config;
  config.trace_requests = true;
  ContainmentService traced_service(config);
  Interner gen;
  QbfFormula f = RandomQbf(/*num_exists=*/2, /*num_forall=*/8,
                           /*num_clauses=*/16, /*seed=*/11);
  Result<Pi2pInstance> inst = BuildPi2pReduction(f, &gen);
  ASSERT_TRUE(inst.ok()) << inst.status().ToString();
  std::string views_text;
  for (const ViewDefinition& v : inst->views.views()) {
    views_text += v.rule.ToString(gen);
    views_text += '\n';
  }
  ASSERT_TRUE(traced_service.catalogs().Register("qbf", views_text).ok());
  auto render = [&gen](const GoalQuery& q) {
    std::string text;
    for (const Rule& r : q.program.rules) {
      if (!text.empty()) text += ' ';
      text += r.ToString(gen);
    }
    return text;
  };
  obs::ServerOptions options;
  options.port = 0;
  options.batch_threads = 2;
  obs::ObsServer server(&traced_service, options);
  ASSERT_TRUE(server.Start().ok());
  std::thread serve([&server] { server.Serve(); });

  Client client(server.port());
  ASSERT_TRUE(client.connected());
  client.Send("DEFINE hq1 " + render(inst->q2) + "\n");
  EXPECT_NE(client.ReadLine().find("OK"), std::string::npos);
  client.Send("DEFINE hq2 " + render(inst->q1) + "\n");
  EXPECT_NE(client.ReadLine().find("OK"), std::string::npos);
  client.Send("CONTAINED? hq1 hq2 @qbf timeout_ms=1\n");
  std::string reply = client.ReadLine();
  EXPECT_EQ(reply.rfind("ERR [id=", 0), 0u) << reply;
  EXPECT_NE(reply.find("bound reached"), std::string::npos) << reply;
  uint64_t id = ParseErrorRequestId(reply);
  ASSERT_GT(id, 0u) << reply;

  client.Send("REQUESTZ " + std::to_string(id) + "\n");
  client.FinishSending();
  std::string rendered = client.ReadAll();
  Result<json::Value> entry = json::Parse(rendered);
  ASSERT_TRUE(entry.ok()) << rendered;
  const json::Value* event = entry->Find("event");
  ASSERT_NE(event, nullptr);
  EXPECT_TRUE(event->Find("error")->bool_value);
  EXPECT_TRUE(event->Find("bound")->bool_value);
  EXPECT_FALSE(event->Find("bound_site")->string_value.empty()) << rendered;
  if (trace::kCompiledIn) {
    EXPECT_TRUE(event->Find("traced")->bool_value);
    EXPECT_FALSE(entry->Find("trace_text")->string_value.empty());
    ASSERT_NE(entry->Find("chrome_trace"), nullptr);
    EXPECT_TRUE(entry->Find("chrome_trace")->is_object()) << rendered;
    EXPECT_FALSE(event->Find("phases")->array.empty()) << rendered;
  }

  server.Shutdown();
  serve.join();
  StartServer();  // TearDown needs a live fixture server
}

TEST_F(ObsServerTest, AccessLogRecordsEveryVerbAcrossSessions) {
  std::string path = testing::TempDir() + "/obs_server_access.jsonl";
  std::remove(path.c_str());
  obs::AccessLogOptions log_options;
  log_options.path = path;
  auto log = obs::AccessLog::Open(log_options);
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  service_.metrics().set_access_log(log->get());

  EXPECT_EQ(RunDecision("qa1", "qb1").substr(0, 3), "YES");
  EXPECT_EQ(RunDecision("qa2", "qb2").substr(0, 3), "YES");
  Client planner(port());
  ASSERT_TRUE(planner.connected());
  planner.Send("DEFINE pq pq(C) :- cardesc(C, M, red, Y).\n");
  EXPECT_NE(planner.ReadLine().find("OK"), std::string::npos);
  planner.Send("PLAN? pq @cars\n");
  planner.FinishSending();
  EXPECT_EQ(planner.ReadAll().rfind("OK plan", 0), 0u);

  server_->Shutdown();
  serve_thread_.join();
  service_.metrics().set_access_log(nullptr);
  log->reset();  // flush + close before reading

  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 3u);
  double last_id = 0;
  for (size_t i = 0; i < lines.size(); ++i) {
    // Each line is the request's wide event, rendered as /requestz does.
    Result<json::Value> event = json::Parse(lines[i]);
    ASSERT_TRUE(event.ok()) << lines[i];
    // The flight recorder's ids, monotonic across sessions.
    EXPECT_GT(event->Find("request_id")->number_value, last_id);
    last_id = event->Find("request_id")->number_value;
    EXPECT_EQ(event->Find("verb")->string_value,
              i < 2 ? "contained" : "plan");
    EXPECT_EQ(event->Find("catalog")->string_value, "cars");
    EXPECT_GT(event->Find("catalog_version")->number_value, 0);
    EXPECT_FALSE(event->Find("error")->bool_value);
    EXPECT_FALSE(event->Find("bound")->bool_value);
    EXPECT_FALSE(event->Find("traced")->bool_value);
    if (i < 2) {
      EXPECT_EQ(event->Find("regime")->string_value, "section3");
    }
  }

  // Restart a plain server so TearDown has something to stop.
  StartServer();
}

}  // namespace
}  // namespace relcont

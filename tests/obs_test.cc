// Tests for the observability layer that do not need a live TCP server:
// the JSON escaper/parser, hostile-name escaping in the trace exporters,
// the series table and the renderers that iterate it, the slowest-request
// digest of /statusz, the access log as a wide-event sink (line format,
// sampling, rotation), and histogram bucket edges. The networked half
// lives in obs_server_test.cc.

#include <cstdio>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.h"
#include "gtest/gtest.h"
#include "obs/access_log.h"
#include "obs/exposition.h"
#include "obs/http.h"
#include "service/metrics.h"
#include "service/service.h"
#include "trace/trace.h"

namespace relcont {
namespace {

// ---------------------------------------------------------------------------
// JSON: escaping and parsing round-trips.

TEST(JsonTest, EscapesControlAndQuoteCharacters) {
  std::string out;
  json::AppendEscaped("a\"b\\c\nd\te\r\x01", &out);
  EXPECT_EQ(out, "\"a\\\"b\\\\c\\nd\\te\\r\\u0001\"");
}

TEST(JsonTest, ParseRoundTripsEscapedStrings) {
  const std::string hostile =
      "quote:\" backslash:\\ newline:\n tab:\t bell:\x07 high:\xc3\xa9";
  std::string doc = "{\"key\":";
  json::AppendEscaped(hostile, &doc);
  doc += "}";
  Result<json::Value> parsed = json::Parse(doc);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const json::Value* value = parsed->Find("key");
  ASSERT_NE(value, nullptr);
  ASSERT_TRUE(value->is_string());
  EXPECT_EQ(value->string_value, hostile);
}

TEST(JsonTest, ParsesNestedStructures) {
  Result<json::Value> parsed = json::Parse(
      "{\"a\": [1, 2.5, -3e2], \"b\": {\"c\": true, \"d\": null}, "
      "\"e\": \"\\u0041\\u00e9\"}");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const json::Value* a = parsed->Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  ASSERT_EQ(a->array.size(), 3u);
  EXPECT_DOUBLE_EQ(a->array[0].number_value, 1.0);
  EXPECT_DOUBLE_EQ(a->array[2].number_value, -300.0);
  const json::Value* b = parsed->Find("b");
  ASSERT_NE(b, nullptr);
  EXPECT_TRUE(b->Find("c")->bool_value);
  EXPECT_TRUE(b->Find("d")->is_null());
  EXPECT_EQ(parsed->Find("e")->string_value, "A\xc3\xa9");
}

TEST(JsonTest, RejectsMalformedInput) {
  EXPECT_FALSE(json::Parse("{").ok());
  EXPECT_FALSE(json::Parse("{} trailing").ok());
  EXPECT_FALSE(json::Parse("{\"a\" 1}").ok());
  EXPECT_FALSE(json::Parse("\"unterminated").ok());
  EXPECT_FALSE(json::Parse("").ok());
}

// ---------------------------------------------------------------------------
// Trace exporters with hostile span names: both JSON exports must stay
// parseable whatever the instrumentation sites call their spans.

TEST(TraceJsonTest, ChromeJsonSurvivesHostileSpanNames) {
  trace::TraceContext ctx;
  int root = ctx.OpenSpan("root \"quoted\\path\"\nnewline");
  int child = ctx.OpenSpan("child\ttab");
  ctx.AddCount(trace::Counter::kHomBacktracks, 3);
  ctx.CloseSpan(child);
  ctx.CloseSpan(root);

  std::string chrome = ctx.ToChromeJson();
  Result<json::Value> parsed = json::Parse(chrome);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const json::Value* events = parsed->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_EQ(events->array.size(), 2u);
  EXPECT_EQ(events->array[0].Find("name")->string_value,
            "root \"quoted\\path\"\nnewline");
}

// ---------------------------------------------------------------------------
// The series table and the renderers that iterate it.

/// A snapshot in which every row has samples: distinct scalar values, one
/// sample per labelled family (hostile label values included), a slow
/// request.
obs::MetricsSnapshot PopulatedSnapshot() {
  obs::MetricsSnapshot s;
  s.version = "1.2.3";
  s.trace_compiled_in = true;
  s.uptime_seconds = 12.5;
  for (size_t i = 0; i < obs::kNumSeries; ++i) s.values[i] = 1000 + i;
  s.decisions = {{"section3", 40}, {"theorem5.1", 2}};
  s.http_rejected = {{"431", 3}, {"408", 4}};
  s.bound_sites = {{"linearization_dfs", 5}};
  s.latency_buckets = {{false, 127, 6}, {true, 0, 42}};
  s.latency_sum_micros = 1234;
  s.latency_count = 42;
  s.phases = {{"decide \"hostile\"\\phase", 5000, 3}};
  s.window_latency = {{"contained", "all", 10, 5, 10, 20, 30, 40}};
  obs::WideEvent slow;
  slow.request_id = 77;
  slow.latency_micros = 900;
  slow.set_regime("section3");
  s.slow_requests = {slow};
  return s;
}

size_t CountOccurrences(const std::string& text, const std::string& needle) {
  size_t count = 0;
  for (size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + 1)) {
    ++count;
  }
  return count;
}

/// The label names of one sample line, in order ("" when unlabelled).
std::string LabelNames(const std::string& line) {
  size_t open = line.find('{');
  if (open == std::string::npos) return "";
  std::string names;
  size_t pos = open + 1;
  while (pos < line.size() && line[pos] != '}') {
    size_t eq = line.find('=', pos);
    if (!names.empty()) names += ',';
    names += line.substr(pos, eq - pos);
    // Skip the quoted value, honouring backslash escapes.
    pos = eq + 2;
    while (line[pos] != '"') pos += line[pos] == '\\' ? 2 : 1;
    pos += 1;
    if (line[pos] == ',') ++pos;
  }
  return names;
}

TEST(SeriesTableTest, NamesAreUnique) {
  std::set<std::string_view> names;
  for (const obs::SeriesDef& row : obs::kSeriesTable) {
    EXPECT_TRUE(names.insert(row.name).second) << row.name;
    EXPECT_FALSE(row.help.empty()) << row.name;
    EXPECT_EQ(row.statusz_object.empty(), row.statusz_key.empty())
        << row.name;
  }
}

TEST(SeriesTableTest, EveryRowRendersOnceWithHelpAndType) {
  const std::string prom = obs::RenderPrometheusText(PopulatedSnapshot());
  const char* kTypes[] = {"counter", "gauge", "histogram"};
  for (const obs::SeriesDef& row : obs::kSeriesTable) {
    const std::string name = "relcont_" + std::string(row.name);
    EXPECT_EQ(CountOccurrences(prom, "# HELP " + name + " "), 1u) << name;
    EXPECT_EQ(CountOccurrences(prom, "# TYPE " + name + " " +
                                         kTypes[static_cast<int>(row.type)] +
                                         "\n"),
              1u)
        << name;
  }
  // Every sample line belongs to the block of the row above it and carries
  // exactly that row's labels (a histogram's _sum/_count carry none).
  std::istringstream in(prom);
  std::string line;
  const obs::SeriesDef* row = nullptr;
  size_t samples = 0;
  while (std::getline(in, line)) {
    if (line.rfind("# TYPE ", 0) == 0) {
      const std::string name = line.substr(7, line.find(' ', 7) - 7);
      row = nullptr;
      for (const obs::SeriesDef& r : obs::kSeriesTable) {
        if ("relcont_" + std::string(r.name) == name) row = &r;
      }
      ASSERT_NE(row, nullptr) << line;
      continue;
    }
    if (line.rfind("#", 0) == 0) continue;
    ASSERT_NE(row, nullptr) << line;
    ++samples;
    const std::string base = "relcont_" + std::string(row->name);
    ASSERT_EQ(line.rfind(base, 0), 0u) << line;
    const std::string suffix =
        line.substr(base.size(), line.find_first_of("{ ") - base.size());
    const bool bare = suffix == "_sum" || suffix == "_count";
    if (row->type == obs::SeriesType::kHistogram) {
      EXPECT_TRUE(bare || suffix == "_bucket") << line;
    } else {
      EXPECT_EQ(suffix, "") << line;
    }
    EXPECT_EQ(LabelNames(line), bare ? "" : std::string(row->labels))
        << line;
  }
  EXPECT_GE(samples, obs::kNumSeries);
  // Label values are escaped; identity comes from the snapshot.
  EXPECT_NE(prom.find("phase=\"decide \\\"hostile\\\"\\\\phase\""),
            std::string::npos);
  EXPECT_NE(prom.find("relcont_build_info{version=\"1.2.3\",trace=\"on\"} 1"),
            std::string::npos);
  EXPECT_NE(prom.find("\nrelcont_uptime_seconds 12.500\n"), std::string::npos);
}

TEST(SeriesTableTest, StatuszRowsAppearAtTheirKeys) {
  const obs::MetricsSnapshot s = PopulatedSnapshot();
  const std::string statusz = obs::RenderStatuszJson(s);
  Result<json::Value> parsed = json::Parse(statusz);
  ASSERT_TRUE(parsed.ok()) << statusz;
  for (size_t i = 0; i < obs::kNumSeries; ++i) {
    const obs::SeriesDef& row = obs::kSeriesTable[i];
    if (row.statusz_object.empty()) continue;
    const json::Value* object =
        parsed->Find(std::string(row.statusz_object));
    ASSERT_NE(object, nullptr) << row.name;
    if (row.labels.empty()) {
      const json::Value* value = object->Find(std::string(row.statusz_key));
      ASSERT_NE(value, nullptr) << row.name;
      EXPECT_DOUBLE_EQ(value->number_value, static_cast<double>(s.values[i]))
          << row.name;
      continue;
    }
    ASSERT_EQ(i, obs::SeriesIndex("http_rejected_total")) << row.name;
    for (const obs::LabelCount& c : s.http_rejected) {
      const json::Value* value =
          object->Find(std::string(row.statusz_key) + "_" + c.label);
      ASSERT_NE(value, nullptr) << row.name << " " << c.label;
      EXPECT_DOUBLE_EQ(value->number_value, static_cast<double>(c.count));
    }
  }
  EXPECT_NE(parsed->Find("cache")->Find("hit_rate"), nullptr);
  EXPECT_NE(parsed->Find("plan_cache")->Find("hit_rate"), nullptr);
  const json::Value* slow = parsed->Find("slow_requests");
  ASSERT_NE(slow, nullptr);
  ASSERT_EQ(slow->array.size(), 1u);
  EXPECT_DOUBLE_EQ(slow->array[0].Find("request_id")->number_value, 77);
  EXPECT_EQ(slow->array[0].Find("regime")->string_value, "section3");
}

// An untraced request slower than the trailing p99 is tail-retained by the
// flight recorder, so /statusz lists it among the slowest requests — with
// its request id — although no trace was ever recorded for it.
TEST(StatuszTest, UntracedTailRequestAppearsInSlowRequests) {
  ServiceMetrics metrics;
  metrics.set_window_clock_for_test([] { return uint64_t{100}; });
  for (int i = 0; i < 200; ++i) {
    metrics.RecordRequest(Regime::kSection3, 10, false, false);
  }
  auto record = [&metrics](uint64_t latency) {
    obs::WideEvent event;
    event.request_id = metrics.flight().NextRequestId();
    event.latency_micros = latency;
    event.set_verb("contained");
    event.set_regime("section3");
    metrics.RecordFlight(ServiceVerb::kContained, event, nullptr);
    return event.request_id;
  };
  record(5);  // id 1: the head sample, fast
  std::vector<uint64_t> tail_ids;
  for (uint64_t latency : {5000, 9000, 6000, 7000, 9000}) {
    tail_ids.push_back(record(latency));
  }
  const std::string statusz =
      obs::RenderStatuszJson(metrics.Snapshot(CacheStats{}));
  Result<json::Value> parsed = json::Parse(statusz);
  ASSERT_TRUE(parsed.ok()) << statusz;
  const json::Value* slow = parsed->Find("slow_requests");
  ASSERT_NE(slow, nullptr);
  // The kSlowRequests slowest, worst first, equal latencies by id.
  ASSERT_EQ(slow->array.size(), ServiceMetrics::kSlowRequests) << statusz;
  const double expected_ids[] = {static_cast<double>(tail_ids[1]),
                                 static_cast<double>(tail_ids[4]),
                                 static_cast<double>(tail_ids[3]),
                                 static_cast<double>(tail_ids[2])};
  const double expected_latency[] = {9000, 9000, 7000, 6000};
  for (size_t i = 0; i < ServiceMetrics::kSlowRequests; ++i) {
    const json::Value& row = slow->array[i];
    EXPECT_DOUBLE_EQ(row.Find("request_id")->number_value, expected_ids[i]);
    EXPECT_DOUBLE_EQ(row.Find("latency_us")->number_value,
                     expected_latency[i]);
    EXPECT_EQ(row.Find("regime")->string_value, "section3");
    EXPECT_TRUE(row.Find("phases")->array.empty());
    EXPECT_EQ(row.Find("description"), nullptr);
  }
}

// ---------------------------------------------------------------------------
// Latency histogram bucket edges.

TEST(LatencyHistogramTest, BucketBoundsEdges) {
  // Bucket 0 is [0, 1) µs.
  EXPECT_EQ(LatencyHistogram::BucketBounds(0),
            (std::pair<uint64_t, uint64_t>{0, 1}));
  // Interior buckets are [2^(i-1), 2^i).
  EXPECT_EQ(LatencyHistogram::BucketBounds(1),
            (std::pair<uint64_t, uint64_t>{1, 2}));
  EXPECT_EQ(LatencyHistogram::BucketBounds(10),
            (std::pair<uint64_t, uint64_t>{512, 1024}));
  // The last bucket is unbounded: upper == 0 by convention.
  auto last = LatencyHistogram::BucketBounds(LatencyHistogram::kBuckets - 1);
  EXPECT_EQ(last.first, uint64_t{1} << (LatencyHistogram::kBuckets - 2));
  EXPECT_EQ(last.second, 0u);
}

TEST(LatencyHistogramTest, RecordsIntoEdgeBuckets) {
  LatencyHistogram hist;
  hist.Record(0);                 // bucket 0
  hist.Record(uint64_t{1} << 40); // far beyond the last bounded bucket
  EXPECT_EQ(hist.BucketCount(0), 1u);
  EXPECT_EQ(hist.BucketCount(LatencyHistogram::kBuckets - 1), 1u);
  EXPECT_EQ(hist.TotalCount(), 2u);
}

// ---------------------------------------------------------------------------
// Access log: event shape, hostile-content escaping, sampling, rotation.

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

/// Opens a fresh access log at TempPath(name).
std::unique_ptr<obs::AccessLog> OpenLog(const std::string& name,
                                        obs::AccessLogOptions options = {}) {
  options.path = TempPath(name);
  std::remove(options.path.c_str());
  std::remove((options.path + ".1").c_str());
  auto log = obs::AccessLog::Open(options);
  EXPECT_TRUE(log.ok()) << log.status().ToString();
  return log.ok() ? std::move(*log) : nullptr;
}

TEST(AccessLogTest, LogsTheWideEventWithHostileCatalogName) {
  auto log = OpenLog("access_event.jsonl");
  ASSERT_NE(log, nullptr);
  ServiceMetrics metrics;
  metrics.set_access_log(log.get());
  obs::WideEvent event;
  event.request_id = metrics.flight().NextRequestId();
  event.latency_micros = 77;
  event.catalog_version = 3;
  event.error = 1;
  event.cache_hit = 1;
  event.bound = 1;
  event.set_verb("plan");
  event.set_regime("section3");
  // A protocol token never holds whitespace, but may hold quotes,
  // backslashes and other control bytes; all three are escaped.
  event.set_catalog("cat\"alog\\\x01x");
  event.set_bound_site("planner_plan");
  metrics.RecordFlight(ServiceVerb::kPlan, event, nullptr);
  metrics.set_access_log(nullptr);
  log.reset();  // flush + close

  std::vector<std::string> lines = ReadLines(TempPath("access_event.jsonl"));
  ASSERT_EQ(lines.size(), 1u);
  // The line is the wide event exactly as /requestz renders it.
  std::vector<obs::WideEvent> ring = metrics.flight().RecentEvents();
  ASSERT_EQ(ring.size(), 1u);
  char rendered[2048];
  EXPECT_EQ(lines[0], std::string(rendered, obs::RenderWideEventJson(
                                                ring[0], rendered,
                                                sizeof rendered)));
  Result<json::Value> parsed = json::Parse(lines[0]);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << lines[0];
  EXPECT_DOUBLE_EQ(parsed->Find("request_id")->number_value, 1);
  EXPECT_GT(parsed->Find("ts_unix_micros")->number_value, 0);
  EXPECT_EQ(parsed->Find("verb")->string_value, "plan");
  EXPECT_EQ(parsed->Find("catalog")->string_value, "cat\"alog\\\x01x");
  EXPECT_DOUBLE_EQ(parsed->Find("catalog_version")->number_value, 3);
  EXPECT_EQ(parsed->Find("regime")->string_value, "section3");
  EXPECT_TRUE(parsed->Find("cache_hit")->bool_value);
  EXPECT_TRUE(parsed->Find("error")->bool_value);
  EXPECT_TRUE(parsed->Find("bound")->bool_value);
  EXPECT_EQ(parsed->Find("bound_site")->string_value, "planner_plan");
  EXPECT_DOUBLE_EQ(parsed->Find("latency_us")->number_value, 77);
  // No trace: untraced, and an empty phase digest.
  EXPECT_FALSE(parsed->Find("traced")->bool_value);
  EXPECT_TRUE(parsed->Find("phases")->array.empty());
}

TEST(AccessLogTest, DistinctCatalogNamesRenderDistinctly) {
  auto render = [](std::string_view catalog) {
    obs::WideEvent event;
    event.set_catalog(catalog);
    char buf[2048];
    std::string line(buf, obs::RenderWideEventJson(event, buf, sizeof buf));
    Result<json::Value> parsed = json::Parse(line);
    EXPECT_TRUE(parsed.ok()) << line;
    return parsed.ok() ? parsed->Find("catalog")->string_value : line;
  };
  // A control byte is escaped, not dropped.
  EXPECT_EQ(render("a\x01" "b"), "a\x01" "b");
  EXPECT_NE(render("a\x01" "b"), render("ab"));
  // Two 40-byte names that differ only past byte 31: each keeps a prefix
  // and a mark derived from the whole name.
  const std::string long_a(40, 'a');
  std::string long_b = long_a;
  long_b[35] = 'b';
  EXPECT_NE(render(long_a), render(long_b));
  EXPECT_EQ(render(long_a).substr(0, 16), std::string(16, 'a'));
  // A name that fits is kept whole and unmarked.
  EXPECT_EQ(render(std::string(31, 'c')), std::string(31, 'c'));
}

TEST(AccessLogTest, LogsTheTraceTopLevelPhases) {
  auto log = OpenLog("access_phases.jsonl");
  ASSERT_NE(log, nullptr);
  ServiceMetrics metrics;
  metrics.set_access_log(log.get());
  trace::TraceContext ctx;
  int root = ctx.OpenSpan("decide");
  int child = ctx.OpenSpan("parse");
  int grandchild = ctx.OpenSpan("intern");  // depth 2: excluded
  ctx.CloseSpan(grandchild);
  ctx.CloseSpan(child);
  int child2 = ctx.OpenSpan("containment");
  ctx.CloseSpan(child2);
  ctx.CloseSpan(root);
  obs::WideEvent event;
  event.request_id = metrics.flight().NextRequestId();
  metrics.RecordFlight(ServiceVerb::kContained, event, &ctx);
  metrics.set_access_log(nullptr);
  log.reset();

  std::vector<std::string> lines = ReadLines(TempPath("access_phases.jsonl"));
  ASSERT_EQ(lines.size(), 1u);
  Result<json::Value> parsed = json::Parse(lines[0]);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << lines[0];
  EXPECT_TRUE(parsed->Find("traced")->bool_value);
  const json::Value* phases = parsed->Find("phases");
  ASSERT_NE(phases, nullptr);
  ASSERT_TRUE(phases->is_array());
  // The shared top-phase digest: largest first, so the root leads.
  std::vector<std::pair<std::string_view, uint64_t>> expected =
      ctx.TopPhases();
  ASSERT_EQ(phases->array.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(phases->array[i].Find("name")->string_value, expected[i].first);
    EXPECT_DOUBLE_EQ(phases->array[i].Find("ns")->number_value,
                     static_cast<double>(expected[i].second));
  }
  EXPECT_EQ(phases->array[0].Find("name")->string_value, "decide");
  std::set<std::string> names;
  for (const json::Value& phase : phases->array) {
    names.insert(phase.Find("name")->string_value);
  }
  EXPECT_EQ(names, (std::set<std::string>{"decide", "parse", "containment"}));
}

TEST(AccessLogTest, SamplingKeepsEveryNthRequest) {
  obs::AccessLogOptions options;
  options.sample = 3;
  auto log = OpenLog("access_sample.jsonl", options);
  ASSERT_NE(log, nullptr);
  obs::WideEvent event;
  for (uint64_t id = 1; id <= 9; ++id) {
    event.request_id = id;
    log->Record(event);
  }
  log.reset();  // flush + close

  std::vector<std::string> lines = ReadLines(TempPath("access_sample.jsonl"));
  ASSERT_EQ(lines.size(), 3u);  // ids 1, 4, 7
  std::vector<double> ids;
  for (const std::string& line : lines) {
    Result<json::Value> parsed = json::Parse(line);
    ASSERT_TRUE(parsed.ok()) << line;
    ids.push_back(parsed->Find("request_id")->number_value);
  }
  EXPECT_EQ(ids, (std::vector<double>{1, 4, 7}));
}

TEST(AccessLogTest, RotatesAtSizeLimit) {
  obs::AccessLogOptions options;
  options.max_bytes = 512;
  auto log = OpenLog("access_rotate.jsonl", options);
  ASSERT_NE(log, nullptr);
  obs::WideEvent event;
  event.set_catalog(std::string(100, 'x'));  // make events chunky
  for (uint64_t id = 1; id <= 20; ++id) {
    event.request_id = id;
    log->Record(event);
  }
  log.reset();

  const std::string path = TempPath("access_rotate.jsonl");
  std::vector<std::string> active = ReadLines(path);
  std::vector<std::string> rotated = ReadLines(path + ".1");
  // One rotated generation is kept; older ones age out by design.
  ASSERT_FALSE(rotated.empty());
  ASSERT_FALSE(active.empty());
  EXPECT_LE(active.size() + rotated.size(), 20u);
  // Rotation never truncates mid-line: every surviving line parses, and
  // the newest event is in the active file.
  for (const std::string& line : active) {
    EXPECT_TRUE(json::Parse(line).ok()) << line;
  }
  for (const std::string& line : rotated) {
    EXPECT_TRUE(json::Parse(line).ok()) << line;
  }
  Result<json::Value> newest = json::Parse(active.back());
  ASSERT_TRUE(newest.ok());
  EXPECT_DOUBLE_EQ(newest->Find("request_id")->number_value, 20);
}

// ---------------------------------------------------------------------------
// HTTP parsing.

TEST(HttpTest, SniffsRequestLines) {
  EXPECT_TRUE(obs::LooksLikeHttp("GET /metrics HTTP/1.1"));
  EXPECT_TRUE(obs::LooksLikeHttp("HEAD / HTTP/1.0"));
  EXPECT_FALSE(obs::LooksLikeHttp("CONTAINED? q1 q2 @cars"));
  EXPECT_FALSE(obs::LooksLikeHttp("METRICS"));
  EXPECT_FALSE(obs::LooksLikeHttp("GET lost"));
}

TEST(HttpTest, ParsesRequestHeadWithHeaders) {
  Result<obs::HttpRequest> parsed = obs::ParseHttpRequest(
      "GET /metrics?window=60 HTTP/1.1\r\nHost: localhost:8080\r\n"
      "User-Agent: curl/8.0\r\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->method, "GET");
  EXPECT_EQ(parsed->target, "/metrics?window=60");
  EXPECT_EQ(parsed->path(), "/metrics");
  EXPECT_EQ(parsed->version, "HTTP/1.1");
  const std::string* host = parsed->FindHeader("host");
  ASSERT_NE(host, nullptr);
  EXPECT_EQ(*host, "localhost:8080");
  EXPECT_EQ(parsed->FindHeader("absent"), nullptr);
}

TEST(HttpTest, RejectsMalformedRequestLines) {
  EXPECT_FALSE(obs::ParseHttpRequest("GET\r\n").ok());
  EXPECT_FALSE(obs::ParseHttpRequest("GET /x\r\n").ok());
  EXPECT_FALSE(obs::ParseHttpRequest("GET metrics HTTP/1.1\r\n").ok());
  EXPECT_FALSE(obs::ParseHttpRequest("GET / FTP/1.1\r\n").ok());
  EXPECT_FALSE(
      obs::ParseHttpRequest("GET / HTTP/1.1\r\nbad header\r\n").ok());
}

TEST(HttpTest, RendersResponsesWithContentLength) {
  std::string response =
      obs::RenderHttpResponse(200, "text/plain", "hello\n");
  EXPECT_NE(response.find("HTTP/1.1 200 OK\r\n"), std::string::npos);
  EXPECT_NE(response.find("Content-Length: 6\r\n"), std::string::npos);
  EXPECT_NE(response.find("Connection: close\r\n"), std::string::npos);
  EXPECT_EQ(response.substr(response.size() - 6), "hello\n");

  std::string head =
      obs::RenderHttpResponse(200, "text/plain", "hello\n", true);
  EXPECT_NE(head.find("Content-Length: 6\r\n"), std::string::npos);
  EXPECT_EQ(head.substr(head.size() - 4), "\r\n\r\n");
}

}  // namespace
}  // namespace relcont

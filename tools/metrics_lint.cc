// metrics_lint — keeps the telemetry docs honest.
//
// Every series is declared once, in src/obs/series.h, and every surface
// renders from that table, so the surfaces agree by construction. What a
// table cannot check is the prose. This binary checks:
//
//   1. every kSeriesTable row appears, as `relcont_<name>`, in the
//      OBSERVABILITY.md glossary (argv[1]) — the table ends in one row per
//      series counter of trace::kCounterTable, so every series derived
//      from a counter is covered — and every kCounterTable row appears,
//      as `<counter name>`, in the counter glossary;
//   2. the /statusz JSON of a live service snapshot reparses with the
//      in-repo parser;
//   3. the /requestz JSON (both the list and the per-id drill-down)
//      reparses, and every key in it appears in the OBSERVABILITY.md
//      wide-event schema table (the chrome_trace subtree is exempt — its
//      keys are Chrome's, documented upstream); so does one access-log
//      line, and each of its keys is a row of that schema table.
//
// It runs as a ctest case, so CI gates on an undocumented series or key.
//
// Usage: metrics_lint <path/to/OBSERVABILITY.md>
// Exit: 0 clean, 1 lint findings, 2 usage/IO error.

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "common/json.h"
#include "obs/access_log.h"
#include "obs/exposition.h"
#include "obs/series.h"
#include "service/metrics.h"

namespace {

/// Collects every object key in `value`, skipping the `chrome_trace`
/// subtree — its keys belong to the Chrome trace_event schema, documented
/// upstream, not to OBSERVABILITY.md.
void CollectJsonKeys(const relcont::json::Value& value,
                     std::set<std::string>* keys) {
  if (value.is_object()) {
    for (const auto& [key, member] : value.object) {
      keys->insert(key);
      if (key == "chrome_trace") continue;
      CollectJsonKeys(member, keys);
    }
  } else if (value.is_array()) {
    for (const relcont::json::Value& member : value.array) {
      CollectJsonKeys(member, keys);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: metrics_lint <path/to/OBSERVABILITY.md>\n");
    return 2;
  }
  std::ifstream doc_file(argv[1]);
  if (!doc_file) {
    std::fprintf(stderr, "metrics_lint: cannot read %s\n", argv[1]);
    return 2;
  }
  std::stringstream doc_stream;
  doc_stream << doc_file.rdbuf();
  const std::string doc = doc_stream.str();

  int findings = 0;
  auto fail = [&findings](const std::string& message) {
    std::fprintf(stderr, "metrics_lint: %s\n", message.c_str());
    ++findings;
  };

  // 1. Every declared series and every counter is documented.
  for (const relcont::obs::SeriesDef& row : relcont::obs::kSeriesTable) {
    const std::string name = "relcont_" + std::string(row.name);
    if (doc.find("`" + name) == std::string::npos) {
      fail("series '" + name + "' is not documented in " +
           std::string(argv[1]));
    }
  }
  for (const relcont::trace::CounterDef& row : relcont::trace::kCounterTable) {
    const std::string name(relcont::trace::CounterName(row.counter));
    if (doc.find("| `" + name + "` |") == std::string::npos) {
      fail("counter '" + name + "' has no glossary row in " +
           std::string(argv[1]));
    }
  }

  // One traced, errored request: the flight arena retains it, so the
  // snapshot carries a slow request and /requestz a drill-down with every
  // key the renderers can emit; the access log writes its line.
  const std::string log_path =
      (std::filesystem::temp_directory_path() /
       ("metrics_lint_access_" + std::to_string(::getpid()) + ".jsonl"))
          .string();
  relcont::obs::AccessLogOptions log_options;
  log_options.path = log_path;
  auto access_log = relcont::obs::AccessLog::Open(log_options);
  if (!access_log.ok()) {
    std::fprintf(stderr, "metrics_lint: %s\n",
                 access_log.status().ToString().c_str());
    return 2;
  }
  relcont::ServiceMetrics metrics;
  metrics.set_access_log(access_log->get());
  relcont::trace::TraceContext trace;
  trace.CloseSpan(trace.OpenSpan("decide"));
  relcont::obs::WideEvent event;
  event.request_id = metrics.flight().NextRequestId();
  event.latency_micros = 1234;
  event.catalog_version = 3;
  event.error = 1;
  event.cache_hit = 1;
  event.bound = 1;
  event.set_verb("contained");
  event.set_regime("section3");
  event.set_catalog("cars");
  event.set_bound_site("linearization_dfs");
  metrics.RecordFlight(relcont::ServiceVerb::kContained, event, &trace);
  metrics.set_access_log(nullptr);
  access_log->reset();  // flush + close
  std::string log_line;
  {
    std::ifstream log_file(log_path);
    std::getline(log_file, log_line);
  }
  std::filesystem::remove(log_path);

  // 2. /statusz reparses.
  const std::string statusz = relcont::obs::RenderStatuszJson(
      metrics.Snapshot(relcont::CacheStats{}, relcont::CacheStats{}));
  auto parsed = relcont::json::Parse(statusz);
  if (!parsed.ok()) {
    fail("/statusz JSON does not reparse: " + parsed.status().ToString());
  }

  // 3. /requestz reparses and every key is documented.
  const relcont::obs::FlightRecorder& flight = metrics.flight();
  auto retained = flight.FindRetained(event.request_id);
  if (!retained.has_value()) {
    fail("the errored request was not retained");
  }
  const std::string requestz_list =
      relcont::obs::RenderRequestzListJson(flight);
  const std::string requestz_event =
      retained.has_value() ? relcont::obs::RenderRequestzEventJson(*retained)
                           : std::string();
  for (const auto& [label, text_json] :
       {std::pair<const char*, const std::string&>{"/requestz",
                                                   requestz_list},
        std::pair<const char*, const std::string&>{"/requestz?id=",
                                                   requestz_event}}) {
    if (text_json.empty()) continue;
    auto doc_parsed = relcont::json::Parse(text_json);
    if (!doc_parsed.ok()) {
      fail(std::string(label) + " JSON does not reparse: " +
           doc_parsed.status().ToString());
      continue;
    }
    std::set<std::string> keys;
    CollectJsonKeys(*doc_parsed, &keys);
    for (const std::string& key : keys) {
      if (doc.find(key) == std::string::npos) {
        fail(std::string(label) + " key '" + key +
             "' is not documented in " + std::string(argv[1]));
      }
    }
  }

  // 3b. The access-log line is a wide event: it reparses, and each key is
  // a row of the wide-event schema table.
  auto log_parsed = relcont::json::Parse(log_line);
  if (!log_parsed.ok() || !log_parsed->is_object()) {
    fail("the access-log line does not reparse: '" + log_line + "'");
  } else {
    for (const auto& [key, member] : log_parsed->object) {
      (void)member;
      if (doc.find("| `" + key + "` |") == std::string::npos) {
        fail("access-log key '" + key +
             "' has no wide-event schema row in " + std::string(argv[1]));
      }
    }
  }

  if (findings > 0) {
    std::fprintf(stderr, "metrics_lint: %d finding(s)\n", findings);
    return 1;
  }
  std::printf("metrics_lint: %zu series and %zu counters, all documented\n",
              relcont::obs::kNumSeries, relcont::trace::kNumCounters);
  return 0;
}

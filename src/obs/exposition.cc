#include "obs/exposition.h"

#include <charconv>
#include <cstdarg>
#include <cstdio>
#include <optional>
#include <string_view>

#include "common/json.h"

namespace relcont {
namespace obs {

namespace {

void AppendLine(std::string* out, const char* format, ...)
    __attribute__((format(printf, 2, 3)));

void AppendLine(std::string* out, const char* format, ...) {
  va_list args;
  va_start(args, format);
  va_list sizing;
  va_copy(sizing, args);
  int needed = std::vsnprintf(nullptr, 0, format, sizing);
  va_end(sizing);
  if (needed > 0) {
    size_t old_size = out->size();
    out->resize(old_size + static_cast<size_t>(needed) + 1);
    std::vsnprintf(out->data() + old_size,
                   static_cast<size_t>(needed) + 1, format, args);
    out->resize(old_size + static_cast<size_t>(needed));
  }
  va_end(args);
}

unsigned long long ULL(uint64_t v) {
  return static_cast<unsigned long long>(v);
}

void AppendU64(std::string* out, uint64_t v) {
  char buf[24];
  auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  (void)ec;
  out->append(buf, end);
}

/// A scalar row's value as the exposition prints it: gauges signed.
void AppendValue(std::string* out, const SeriesDef& row, uint64_t v) {
  if (row.type != SeriesType::kGauge) return AppendU64(out, v);
  char buf[24];
  auto [end, ec] =
      std::to_chars(buf, buf + sizeof buf, static_cast<int64_t>(v));
  (void)ec;
  out->append(buf, end);
}

/// `relcont_<name><suffix>`.
void AppendSeriesName(std::string* out, const SeriesDef& row,
                      std::string_view suffix = {}) {
  *out += "relcont_";
  out->append(row.name);
  out->append(suffix);
}

/// `name="value"`, the value escaped as Prometheus requires (backslash,
/// double quote, newline); `first` omits the leading comma.
void AppendLabel(std::string* out, std::string_view name,
                 std::string_view value, bool first = false) {
  if (!first) *out += ',';
  out->append(name);
  *out += "=\"";
  for (char c : value) {
    switch (c) {
      case '\\':
        *out += "\\\\";
        break;
      case '"':
        *out += "\\\"";
        break;
      case '\n':
        *out += "\\n";
        break;
      default:
        out->push_back(c);
    }
  }
  *out += '"';
}

/// The samples of a single-label family row, or nullptr for other rows.
const std::vector<LabelCount>* LabelCounts(const MetricsSnapshot& s,
                                           size_t index) {
  switch (index) {
    case SeriesIndex("http_rejected_total"):
      return &s.http_rejected;
    case SeriesIndex("decisions_total"):
      return &s.decisions;
    case SeriesIndex("bound_hits_total"):
      return &s.bound_sites;
    default:
      return nullptr;
  }
}

/// The sample lines of row `index`. A row without a case of its own is a
/// scalar whose value sits in the snapshot's slot for it.
void AppendSamples(std::string* out, const MetricsSnapshot& s, size_t index) {
  const SeriesDef& row = kSeriesTable[index];
  if (const std::vector<LabelCount>* counts = LabelCounts(s, index)) {
    for (const LabelCount& c : *counts) {
      AppendSeriesName(out, row, "{");
      AppendLabel(out, row.labels, c.label, /*first=*/true);
      *out += "} ";
      AppendU64(out, c.count);
      *out += '\n';
    }
    return;
  }
  switch (index) {
    case SeriesIndex("build_info"):
      AppendSeriesName(out, row, "{");
      AppendLabel(out, "version", s.version, /*first=*/true);
      AppendLabel(out, "trace", s.trace_compiled_in ? "on" : "off");
      *out += "} 1\n";
      break;
    case SeriesIndex("uptime_seconds"):
      AppendSeriesName(out, row);
      AppendLine(out, " %.3f\n", s.uptime_seconds);
      break;
    case SeriesIndex("window_latency_requests"):
    case SeriesIndex("window_latency_microseconds"):
      for (const WindowLatency& w : s.window_latency) {
        const std::string window = std::to_string(w.window_secs) + "s";
        auto sample = [&](const char* quantile, uint64_t value) {
          AppendSeriesName(out, row, "{");
          AppendLabel(out, "verb", w.verb, /*first=*/true);
          AppendLabel(out, "regime", w.regime);
          AppendLabel(out, "window", window);
          if (quantile != nullptr) AppendLabel(out, "quantile", quantile);
          *out += "} ";
          AppendU64(out, value);
          *out += '\n';
        };
        if (index == SeriesIndex("window_latency_requests")) {
          sample(nullptr, w.count);
        } else {
          sample("p50", w.p50_micros);
          sample("p90", w.p90_micros);
          sample("p99", w.p99_micros);
          sample("max", w.max_micros);
        }
      }
      break;
    case SeriesIndex("request_latency_microseconds"):
      for (const HistogramBucket& bucket : s.latency_buckets) {
        AppendSeriesName(out, row, "_bucket{le=\"");
        if (bucket.unbounded) {
          *out += "+Inf";
        } else {
          AppendU64(out, bucket.le);
        }
        *out += "\"} ";
        AppendU64(out, bucket.cumulative_count);
        *out += '\n';
      }
      AppendSeriesName(out, row, "_sum ");
      AppendU64(out, s.latency_sum_micros);
      *out += '\n';
      AppendSeriesName(out, row, "_count ");
      AppendU64(out, s.latency_count);
      *out += '\n';
      break;
    case SeriesIndex("trace_phase_nanoseconds_total"):
    case SeriesIndex("trace_phase_calls_total"):
      for (const PhaseSnapshot& phase : s.phases) {
        AppendSeriesName(out, row, "{");
        AppendLabel(out, "phase", phase.name, /*first=*/true);
        *out += "} ";
        AppendU64(out, index == SeriesIndex("trace_phase_calls_total")
                           ? phase.calls
                           : phase.ns);
        *out += '\n';
      }
      break;
    default:
      AppendSeriesName(out, row, " ");
      AppendValue(out, row, s.values[index]);
      *out += '\n';
      break;
  }
}

const char* TypeName(SeriesType type) {
  switch (type) {
    case SeriesType::kCounter:
      return "counter";
    case SeriesType::kGauge:
      return "gauge";
    case SeriesType::kHistogram:
      return "histogram";
  }
  return "untyped";
}

}  // namespace

std::string RenderPrometheusText(const MetricsSnapshot& s) {
  std::string out;
  out.reserve(8192);
  for (size_t i = 0; i < kNumSeries; ++i) {
    const SeriesDef& row = kSeriesTable[i];
    out += "# HELP ";
    AppendSeriesName(&out, row, " ");
    out.append(row.help);
    out += "\n# TYPE ";
    AppendSeriesName(&out, row, " ");
    out += TypeName(row.type);
    out += '\n';
    AppendSamples(&out, s, i);
  }
  return out;
}

namespace {

double HitRate(uint64_t hits, uint64_t misses) {
  const uint64_t lookups = hits + misses;
  if (lookups == 0) return 0.0;
  return static_cast<double>(hits) / static_cast<double>(lookups);
}

/// One /statusz counter object: every row placed in `object`, in table
/// order, plus `hit_rate` when the object carries hits and misses.
void AppendStatuszObject(std::string* out, const MetricsSnapshot& s,
                         std::string_view object) {
  *out += ",\"";
  out->append(object);
  *out += "\":{";
  bool first = true;
  auto key = [&](std::string_view name, std::string_view suffix = {}) {
    if (!first) *out += ',';
    first = false;
    *out += '"';
    out->append(name);
    out->append(suffix);
    *out += "\":";
  };
  std::optional<uint64_t> hits;
  std::optional<uint64_t> misses;
  for (size_t i = 0; i < kNumSeries; ++i) {
    const SeriesDef& row = kSeriesTable[i];
    if (row.statusz_object != object) continue;
    if (const std::vector<LabelCount>* counts = LabelCounts(s, i)) {
      for (const LabelCount& c : *counts) {
        key(row.statusz_key, "_" + c.label);
        AppendU64(out, c.count);
      }
      continue;
    }
    key(row.statusz_key);
    AppendValue(out, row, s.values[i]);
    if (row.statusz_key == "hits") hits = s.values[i];
    if (row.statusz_key == "misses") misses = s.values[i];
  }
  if (hits.has_value() && misses.has_value()) {
    key("hit_rate");
    AppendLine(out, "%.4f", HitRate(*hits, *misses));
  }
  *out += '}';
}

}  // namespace

std::string RenderStatuszJson(const MetricsSnapshot& s) {
  std::string out;
  out += "{\"version\":";
  json::AppendEscaped(s.version, &out);
  AppendLine(&out,
             ",\"trace_compiled_in\":%s"
             ",\"start_time_unix_seconds\":%lld"
             ",\"uptime_seconds\":%.3f"
             ",\"draining\":%s",
             s.trace_compiled_in ? "true" : "false",
             static_cast<long long>(
                 s.values[SeriesIndex("start_time_seconds")]),
             s.uptime_seconds,
             s.values[SeriesIndex("draining")] != 0 ? "true" : "false");
  AppendLine(&out, ",\"windows\":{\"short_secs\":%d,\"long_secs\":%d",
             s.short_window_secs, s.long_window_secs);
  out += ",\"latency\":[";
  for (size_t i = 0; i < s.window_latency.size(); ++i) {
    const WindowLatency& w = s.window_latency[i];
    if (i > 0) out += ',';
    out += "{\"verb\":";
    json::AppendEscaped(w.verb, &out);
    out += ",\"regime\":";
    json::AppendEscaped(w.regime, &out);
    AppendLine(&out,
               ",\"window_secs\":%d,\"count\":%llu,\"p50_us\":%llu,"
               "\"p90_us\":%llu,\"p99_us\":%llu,\"max_us\":%llu}",
               w.window_secs, ULL(w.count), ULL(w.p50_micros),
               ULL(w.p90_micros), ULL(w.p99_micros), ULL(w.max_micros));
  }
  out += "]}";
  // One object per placement, in order of the placement's first row.
  for (size_t i = 0; i < kNumSeries; ++i) {
    const std::string_view object = kSeriesTable[i].statusz_object;
    if (object.empty()) continue;
    bool seen = false;
    for (size_t j = 0; j < i && !seen; ++j) {
      seen = kSeriesTable[j].statusz_object == object;
    }
    if (!seen) AppendStatuszObject(&out, s, object);
  }
  out += ",\"bound_sites\":[";
  for (size_t i = 0; i < s.bound_sites.size(); ++i) {
    if (i > 0) out += ',';
    out += "{\"site\":";
    json::AppendEscaped(s.bound_sites[i].label, &out);
    AppendLine(&out, ",\"count\":%llu}", ULL(s.bound_sites[i].count));
  }
  out += "],\"slow_requests\":[";
  for (size_t i = 0; i < s.slow_requests.size(); ++i) {
    const WideEvent& slow = s.slow_requests[i];
    if (i > 0) out += ',';
    AppendLine(&out, "{\"latency_us\":%llu,\"regime\":",
               ULL(slow.latency_micros));
    json::AppendEscaped(slow.regime, &out);
    AppendLine(&out, ",\"request_id\":%llu,\"phases\":[",
               ULL(slow.request_id));
    bool first = true;
    for (const WideEvent::Phase& phase : slow.phases) {
      if (phase.name[0] == '\0') continue;
      if (!first) out += ',';
      first = false;
      out += "{\"name\":";
      json::AppendEscaped(phase.name, &out);
      AppendLine(&out, ",\"ns\":%llu}", ULL(phase.ns));
    }
    out += "]}";
  }
  out += "]}\n";
  return out;
}

namespace {

/// Renders one wide event through the shared AS-safe renderer, so the
/// /requestz surface and the crash dump emit byte-identical objects.
void AppendWideEvent(const WideEvent& event, std::string* out) {
  char buf[2048];
  out->append(buf, RenderWideEventJson(event, buf, sizeof buf));
}

}  // namespace

std::string RenderRequestzListJson(const FlightRecorder& recorder) {
  std::string out;
  AppendLine(&out,
             "{\"flight\":{\"ring_capacity\":%llu,\"recorded_total\":%llu,"
             "\"retained_total\":%llu,\"dropped_total\":%llu,"
             "\"arena_bytes\":%llu,\"arena_max_bytes\":%llu",
             ULL(recorder.ring_capacity()), ULL(recorder.recorded_total()),
             ULL(recorder.retained_total()), ULL(recorder.dropped_total()),
             ULL(recorder.arena_bytes()), ULL(recorder.arena_max_bytes()));
  out += ",\"retained_ids\":[";
  const std::vector<uint64_t> ids = recorder.RetainedIds();
  for (size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) out += ',';
    AppendLine(&out, "%llu", ULL(ids[i]));
  }
  out += "]},\"events\":[";
  const std::vector<WideEvent> events = recorder.RecentEvents();
  for (size_t i = 0; i < events.size(); ++i) {
    if (i > 0) out += ',';
    AppendWideEvent(events[i], &out);
  }
  out += "]}\n";
  return out;
}

std::string RenderRequestzEventJson(const FlightRecorder::Retained& entry) {
  std::string out = "{\"event\":";
  AppendWideEvent(entry.event, &out);
  out += ",\"trace_text\":";
  json::AppendEscaped(entry.trace_text, &out);
  out += ",\"chrome_trace\":";
  if (entry.chrome_json.empty()) {
    out += "null";
  } else {
    // The exporter's JSON document, embedded raw (trailing newline
    // stripped so the embedding stays a single line).
    std::string_view chrome = entry.chrome_json;
    while (!chrome.empty() &&
           (chrome.back() == '\n' || chrome.back() == ' ')) {
      chrome.remove_suffix(1);
    }
    out.append(chrome);
  }
  out += "}\n";
  return out;
}

}  // namespace obs
}  // namespace relcont

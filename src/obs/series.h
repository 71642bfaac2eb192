#ifndef RELCONT_OBS_SERIES_H_
#define RELCONT_OBS_SERIES_H_

#include <array>
#include <cstddef>
#include <iterator>
#include <string_view>

#include "trace/trace.h"

namespace relcont {
namespace obs {

/// Every telemetry series the service exposes, declared once. The
/// Prometheus exposition (`GET /metrics` and the METRICS verb) renders one
/// `# HELP`/`# TYPE` block per row, in table order; `/statusz` builds its
/// counter objects from the rows tagged with a placement; tools/metrics_lint
/// requires every row to be documented in docs/OBSERVABILITY.md.
///
/// A scalar row (no labels) takes its value from MetricsSnapshot::values at
/// the row's index, SeriesIndex(name): adding one is a row of
/// kServiceSeries plus the line in ServiceMetrics::Snapshot that fills it.
/// A labelled row's samples come from the snapshot's family rows
/// (decisions, window rows, histogram, ...). Every trace counter is a row
/// too, derived from trace::kCounterTable (kSeriesTable below).

enum class SeriesType { kCounter, kGauge, kHistogram };

struct SeriesDef {
  /// The series name without the `relcont_` prefix.
  std::string_view name;
  SeriesType type;
  /// Comma-separated label names; empty for a scalar series.
  std::string_view labels;
  /// Where /statusz shows the value: `statusz_object.statusz_key`. Empty
  /// object = not on /statusz. A labelled row renders one key per sample,
  /// `<key>_<label value>`.
  std::string_view statusz_object;
  std::string_view statusz_key;
  std::string_view help;
};

inline constexpr SeriesDef kServiceSeries[] = {
    {"build_info", SeriesType::kGauge, "version,trace", "", "",
     "Build identity of the containment service (value is always 1)."},
    {"start_time_seconds", SeriesType::kGauge, "", "", "",
     "Unix time the service started."},
    {"uptime_seconds", SeriesType::kGauge, "", "", "",
     "Seconds since service start."},
    {"requests_total", SeriesType::kCounter, "", "requests", "total",
     "Containment requests answered (including errors)."},
    {"errors_total", SeriesType::kCounter, "", "requests", "errors",
     "Requests answered with a non-OK status."},
    {"request_cache_hits_total", SeriesType::kCounter,
     "", "requests", "cache_hits",
     "Requests served from the decision cache."},
    {"deadline_exceeded_total", SeriesType::kCounter,
     "", "requests", "deadline_exceeded",
     "Requests whose deadline expired before the decision completed."},
    {"inflight_requests", SeriesType::kGauge, "", "gauges", "inflight_requests",
     "Requests currently being decided."},
    {"open_connections", SeriesType::kGauge, "", "gauges", "open_connections",
     "TCP connections currently open on the obs server."},
    {"batch_queue_depth", SeriesType::kGauge, "", "gauges", "batch_queue_depth",
     "Batch items queued but not yet claimed by a worker."},
    {"draining", SeriesType::kGauge, "", "", "",
     "1 between SIGTERM drain start and listener close, else 0."},
    {"http_rejected_total", SeriesType::kCounter, "code", "http", "rejected",
     "HTTP requests rejected by the parser hardening, by status code."},
    {"decisions_total", SeriesType::kCounter, "regime", "", "",
     "Decisions per paper regime."},
    {"cache_hits_total", SeriesType::kCounter, "", "cache", "hits",
     "Decision-cache lookup hits."},
    {"cache_misses_total", SeriesType::kCounter, "", "cache", "misses",
     "Decision-cache lookup misses."},
    {"cache_evictions_total", SeriesType::kCounter, "", "cache", "evictions",
     "LRU evictions from the decision cache."},
    {"cache_entries", SeriesType::kGauge, "", "cache", "entries",
     "Entries currently resident in the decision cache."},
    {"plan_requests_total", SeriesType::kCounter,
     "", "requests", "plan_requests",
     "PLAN? requests answered (including errors)."},
    {"rewrite_requests_total", SeriesType::kCounter,
     "", "requests", "rewrite_requests",
     "REWRITE? requests answered (including errors)."},
    {"plan_errors_total", SeriesType::kCounter, "", "requests", "plan_errors",
     "Planner requests answered with a non-OK status."},
    {"unknown_verb_total", SeriesType::kCounter,
     "", "requests", "unknown_verbs",
     "Protocol lines rejected because no handler claims their verb."},
    {"plan_cache_hits_total", SeriesType::kCounter, "", "plan_cache", "hits",
     "Plan-cache lookup hits."},
    {"plan_cache_misses_total", SeriesType::kCounter,
     "", "plan_cache", "misses",
     "Plan-cache lookup misses."},
    {"plan_cache_evictions_total", SeriesType::kCounter,
     "", "plan_cache", "evictions",
     "LRU evictions from the plan cache."},
    {"plan_cache_invalidated_total", SeriesType::kCounter,
     "", "plan_cache", "invalidated",
     "Plan-cache entries dropped by catalog re-registration."},
    {"plan_cache_entries", SeriesType::kGauge, "", "plan_cache", "entries",
     "Entries currently resident in the plan cache."},
    {"bound_hits_total", SeriesType::kCounter, "site", "", "",
     "Bound trips per budget site (the [site] tag of kBoundReached statuses)."},
    {"flight_retained_total", SeriesType::kCounter,
     "", "flight", "retained_total",
     "Requests retained in the flight-recorder arena (tail-sampled or "
     "head-sampled)."},
    {"flight_dropped_total", SeriesType::kCounter,
     "", "flight", "dropped_total",
     "Flight-recorder drops: arena evictions plus oversized entries."},
    {"flight_arena_bytes", SeriesType::kGauge, "", "flight", "arena_bytes",
     "Bytes currently resident in the flight-recorder retention arena."},
    {"window_latency_requests", SeriesType::kGauge,
     "verb,regime,window", "", "",
     "Requests recorded in the trailing window per verb and regime."},
    {"window_latency_microseconds", SeriesType::kGauge,
     "verb,regime,window,quantile", "", "",
     "Windowed latency quantiles per verb and regime (upper-bound bucket "
     "estimates; max is exact)."},
    {"request_latency_microseconds", SeriesType::kHistogram, "le", "", "",
     "Request latency (cumulative power-of-two buckets)."},
    {"trace_phase_nanoseconds_total", SeriesType::kCounter, "phase", "", "",
     "Cumulative time per pipeline phase across recorded traces."},
    {"trace_phase_calls_total", SeriesType::kCounter, "phase", "", "",
     "Recorded spans per pipeline phase."},
};

namespace internal {
/// The counters of trace::kCounterTable that are series of their own.
constexpr size_t NumCounterSeries() {
  size_t n = 0;
  for (const trace::CounterDef& c : trace::kCounterTable) n += c.exported;
  return n;
}
}  // namespace internal

/// Index of the first counter row in kSeriesTable: the service's own rows
/// come first, then one row per series counter, in counter-table order.
inline constexpr size_t kFirstCounterSeries = std::size(kServiceSeries);

/// Every series: the rows above, then one counter row per exported row of
/// trace::kCounterTable, shown on /statusz under `counters.<counter>` and
/// valued from the counter's process-wide total (trace::ProcessCounts).
inline constexpr auto kSeriesTable = [] {
  std::array<SeriesDef, kFirstCounterSeries + internal::NumCounterSeries()>
      table{};
  size_t i = 0;
  for (const SeriesDef& row : kServiceSeries) table[i++] = row;
  for (const trace::CounterDef& counter : trace::kCounterTable) {
    if (!counter.exported) continue;
    table[i++] = {counter.series, SeriesType::kCounter, "", "counters",
                  trace::CounterName(counter.counter), counter.help};
  }
  return table;
}();

inline constexpr size_t kNumSeries = kSeriesTable.size();

/// The table index of the series called `name` (without the prefix). Only
/// evaluated at compile time, so an unknown name does not compile.
consteval size_t SeriesIndex(std::string_view name) {
  for (size_t i = 0; i < kNumSeries; ++i) {
    if (kSeriesTable[i].name == name) return i;
  }
  throw "unknown series name";
}

namespace internal {
constexpr bool NamesAreUnique() {
  for (size_t i = 0; i < kNumSeries; ++i) {
    for (size_t j = 0; j < i; ++j) {
      if (kSeriesTable[i].name == kSeriesTable[j].name) return false;
    }
  }
  return true;
}
}  // namespace internal
static_assert(internal::NamesAreUnique(), "series names must be unique");

}  // namespace obs
}  // namespace relcont

#endif  // RELCONT_OBS_SERIES_H_

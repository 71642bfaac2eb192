#ifndef RELCONT_OBS_EXPOSITION_H_
#define RELCONT_OBS_EXPOSITION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/sharded_lru.h"
#include "obs/flight.h"

namespace relcont {
namespace obs {

/// relcont::obs — networked telemetry for the containment service (see
/// docs/OBSERVABILITY.md). This header defines the one snapshot type both
/// metric surfaces render from: the METRICS protocol verb and the
/// Prometheus `/metrics` endpoint serialize the same MetricsSnapshot, so
/// their counters cannot drift apart.

/// Cumulative per-phase timer, aggregated over every recorded trace.
struct PhaseSnapshot {
  std::string name;
  uint64_t ns = 0;
  uint64_t calls = 0;
};

/// Decisions attributed to one regime (only nonzero regimes appear).
struct RegimeDecisions {
  std::string regime;
  uint64_t count = 0;
};

/// Total of one trace counter across every trace recorded under a regime.
struct TraceCounterTotal {
  std::string regime;
  std::string counter;
  uint64_t total = 0;
};

/// One cumulative latency-histogram bucket, Prometheus style: the count of
/// requests with latency <= `le` microseconds (`unbounded` marks +Inf).
struct HistogramBucket {
  bool unbounded = false;
  uint64_t le = 0;
  uint64_t cumulative_count = 0;
};

/// One slow-log entry (worst traced requests, worst first).
struct SlowEntry {
  uint64_t latency_micros = 0;
  std::string regime;
  /// Flight-recorder request id (0 when unknown) — the /requestz?id=N
  /// pivot for this entry.
  uint64_t request_id = 0;
  std::string description;
  std::string trace_text;
  /// The request's dominant phases (root span + its direct children,
  /// aggregated by name, worst first) — the /statusz-sized digest of
  /// trace_text.
  std::vector<PhaseSnapshot> top_phases;
};

/// Windowed latency percentiles for one (verb, regime, window) cell.
/// `regime == "all"` folds every regime of the verb into one row; per-verb
/// "all" rows are always present, per-regime rows only when nonempty.
struct WindowLatency {
  std::string verb;    ///< "contained" | "plan" | "rewrite"
  std::string regime;  ///< RegimeName(...) or "all"
  int window_secs = 0;
  uint64_t count = 0;
  uint64_t p50_micros = 0;
  uint64_t p90_micros = 0;
  uint64_t p99_micros = 0;
  uint64_t max_micros = 0;
};

/// Cumulative bound trips attributed to one budget site (the `[site]` tag
/// minted by BoundReachedAt in common/budget.h).
struct BoundSiteCount {
  std::string site;
  uint64_t count = 0;
};

/// A point-in-time copy of every service counter plus build/uptime
/// identity. Plain data: renderers need nothing beyond this struct.
struct MetricsSnapshot {
  std::string version;
  bool trace_compiled_in = false;
  int64_t start_time_unix_seconds = 0;
  double uptime_seconds = 0;

  uint64_t requests = 0;
  uint64_t errors = 0;
  /// Cache hits observed at the request level (a subset of cache.hits,
  /// which also counts probes made outside Decide).
  uint64_t request_cache_hits = 0;
  /// Requests whose per-request deadline (timeout_ms / the server default)
  /// expired before the decision completed.
  uint64_t deadline_exceeded = 0;
  /// Parallel helper tasks spawned/completed by decisions. Equal whenever
  /// the service is idle: every helper is joined before its request
  /// returns (pool quiescence).
  uint64_t parallel_tasks_spawned = 0;
  uint64_t parallel_tasks_completed = 0;
  /// Planner verb totals (PLAN? / REWRITE?) and protocol lines rejected
  /// for an unknown verb. Planner latencies fold into the shared latency
  /// histogram below.
  uint64_t plan_requests = 0;
  uint64_t rewrite_requests = 0;
  uint64_t plan_errors = 0;
  uint64_t unknown_verbs = 0;
  /// Process-wide dense-order engine counters (constraints/dense_order.h):
  /// pair-matrix cell narrowings, DFS class placements rejected by the
  /// closed matrix, and linearization streams cut short by a budget or the
  /// structural node cap.
  uint64_t dense_order_propagations = 0;
  uint64_t dense_order_pruned_branches = 0;
  uint64_t dense_order_bound_hits = 0;
  /// Process-wide CEGAR engine counters (relcont/cegar.h): cover checks
  /// performed, blocking clauses learned, and candidate instances
  /// proposed by the counterexample search.
  uint64_t cegar_iterations = 0;
  uint64_t cegar_blocking_clauses = 0;
  uint64_t cegar_proposals = 0;
  std::vector<RegimeDecisions> decisions_by_regime;
  CacheStats cache;
  /// Counters of the planner's plan cache (all zero without a planner).
  CacheStats plan_cache;

  std::vector<HistogramBucket> latency_buckets;
  uint64_t latency_sum_micros = 0;
  uint64_t latency_count = 0;

  std::vector<TraceCounterTotal> trace_counter_totals;
  std::vector<PhaseSnapshot> phases;
  std::vector<SlowEntry> slow_log;

  /// Sliding-window percentiles (src/obs/window.h): the trailing
  /// short/long windows, one row per (verb, regime, window) with traffic
  /// plus always-present per-verb "all" rows.
  int short_window_secs = 0;
  int long_window_secs = 0;
  std::vector<WindowLatency> window_latency;

  /// Live gauges: requests currently inside Service::Decide, TCP
  /// connections currently open on the obs server, and batch items queued
  /// but not yet claimed by a worker.
  int64_t inflight_requests = 0;
  int64_t open_connections = 0;
  int64_t batch_queue_depth = 0;
  /// True between SIGTERM drain start and listener close (/healthz 503).
  bool draining = false;

  /// HTTP requests rejected by the parser hardening: oversized request
  /// line/headers (431) and slow clients cut off mid-request (408).
  uint64_t http_rejected_431 = 0;
  uint64_t http_rejected_408 = 0;

  /// Cumulative bound trips per budget site, lexicographic by site.
  std::vector<BoundSiteCount> bound_sites;

  /// Flight-recorder totals (src/obs/flight.h): arena entries retained,
  /// events/entries dropped (ring slot races + arena evictions +
  /// oversized entries), and current arena residency in bytes (a gauge).
  uint64_t flight_retained = 0;
  uint64_t flight_dropped = 0;
  uint64_t flight_arena_bytes = 0;
};

/// The METRICS verb rendering: the line-oriented text dump served over the
/// protocol (and historically by ServiceMetrics::Dump, which now forwards
/// here).
std::string RenderMetricsText(const MetricsSnapshot& snapshot);

/// The Prometheus text exposition (format version 0.0.4) served by
/// `GET /metrics`: `# HELP`/`# TYPE` headers, `relcont_`-prefixed series,
/// escaped label values, the cumulative `le` histogram, and a
/// `relcont_build_info` identity gauge. The slow log is omitted — it is
/// free-form text, not a numeric series.
std::string RenderPrometheusText(const MetricsSnapshot& snapshot);

/// The introspection rendering served by the `STATUSZ` protocol verb and
/// `GET /statusz`: one JSON object (newline-terminated) summarizing
/// uptime, windowed percentiles, gauges, cache hit rates, bound-site
/// attribution, and the recent slow requests with their top-phase
/// breakdown. Same MetricsSnapshot as the other two renderers, so the
/// three surfaces cannot drift.
std::string RenderStatuszJson(const MetricsSnapshot& snapshot);

/// The /requestz (and REQUESTZ verb) list rendering: one JSON object
/// (newline-terminated) with the recorder's counters, the retained ids
/// (newest first), and the recent ring wide events (newest first, rendered
/// by RenderWideEventJson so the crash dump cannot drift from this
/// surface).
std::string RenderRequestzListJson(const FlightRecorder& recorder);

/// The /requestz?id=N (and REQUESTZ <id>) drill-down rendering: the
/// retained wide event plus its full span renderings — `trace_text` as a
/// JSON string, `chrome_trace` as the embedded Chrome trace object (null
/// when the request was not traced).
std::string RenderRequestzEventJson(const FlightRecorder::Retained& entry);

}  // namespace obs
}  // namespace relcont

#endif  // RELCONT_OBS_EXPOSITION_H_

#ifndef RELCONT_OBS_EXPOSITION_H_
#define RELCONT_OBS_EXPOSITION_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/flight.h"
#include "obs/series.h"

namespace relcont {
namespace obs {

/// relcont::obs — networked telemetry for the containment service (see
/// docs/OBSERVABILITY.md). This header defines the one snapshot every
/// metric surface renders from: the METRICS protocol verb and `GET
/// /metrics` return the same Prometheus rendering of it, and STATUSZ /
/// `GET /statusz` its JSON summary. The series themselves are declared
/// once, in obs/series.h.

/// Cumulative per-phase timer, aggregated over every recorded trace.
struct PhaseSnapshot {
  std::string name;
  uint64_t ns = 0;
  uint64_t calls = 0;
};

/// One sample of a single-label counter family: decisions per regime,
/// HTTP rejections per status code, bound trips per budget site.
struct LabelCount {
  std::string label;
  uint64_t count = 0;
};

/// One cumulative latency-histogram bucket, Prometheus style: the count of
/// requests with latency <= `le` microseconds (`unbounded` marks +Inf).
struct HistogramBucket {
  bool unbounded = false;
  uint64_t le = 0;
  uint64_t cumulative_count = 0;
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

/// A point-in-time copy of every service series plus build/uptime
/// identity. Plain data: renderers need nothing beyond this struct.
struct MetricsSnapshot {
  std::string version;
  bool trace_compiled_in = false;
  double uptime_seconds = 0;

  /// One value per scalar row of kSeriesTable, at the row's index (gauges
  /// are stored two's-complement and render signed). Labelled rows and
  /// uptime (fractional, above) leave their slot at 0; labelled rows take
  /// their samples from the families below.
  std::array<uint64_t, kNumSeries> values{};

  /// decisions_total{regime} (nonzero regimes only),
  /// http_rejected_total{code} and bound_hits_total{site} (lexicographic).
  std::vector<LabelCount> decisions;
  std::vector<LabelCount> http_rejected;
  std::vector<LabelCount> bound_sites;

  std::vector<HistogramBucket> latency_buckets;
  uint64_t latency_sum_micros = 0;
  uint64_t latency_count = 0;

  std::vector<PhaseSnapshot> phases;

  /// Sliding-window percentiles (src/obs/window.h): the trailing
  /// short/long windows, one row per (verb, regime, window) with traffic
  /// plus always-present per-verb "all" rows.
  int short_window_secs = 0;
  int long_window_secs = 0;
  std::vector<WindowLatency> window_latency;

  /// The slowest requests resident in the flight-recorder arena, worst
  /// first (traced or not) — /statusz's slow_requests.
  std::vector<WideEvent> slow_requests;
};

/// The Prometheus text exposition (format version 0.0.4) served by
/// `GET /metrics` and the METRICS verb: one `# HELP`/`# TYPE` block per
/// kSeriesTable row, `relcont_`-prefixed series, escaped label values.
std::string RenderPrometheusText(const MetricsSnapshot& snapshot);

/// The introspection rendering served by the `STATUSZ` protocol verb and
/// `GET /statusz`: one JSON object (newline-terminated) with identity,
/// windowed percentiles, one object per kSeriesTable statusz placement,
/// cache hit rates, bound-site attribution, and the slowest requests with
/// their top-phase breakdown.
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

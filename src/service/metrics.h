#ifndef RELCONT_SERVICE_METRICS_H_
#define RELCONT_SERVICE_METRICS_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/sharded_lru.h"
#include "obs/access_log.h"
#include "obs/exposition.h"
#include "obs/flight.h"
#include "obs/window.h"
#include "relcont/decide.h"
#include "trace/trace.h"

namespace relcont {

/// A lock-free latency histogram with power-of-two microsecond buckets:
/// bucket i counts latencies in [2^(i-1), 2^i) µs (bucket 0 is [0, 1) µs,
/// the last bucket absorbs everything larger). Thread-safe.
class LatencyHistogram {
 public:
  static constexpr int kBuckets = 24;  // covers up to ~8.4 s

  void Record(uint64_t micros);

  uint64_t BucketCount(int bucket) const {
    return buckets_[bucket].load(std::memory_order_relaxed);
  }
  uint64_t TotalCount() const;
  /// Sum of every recorded latency, in microseconds.
  uint64_t SumMicros() const {
    return sum_micros_.load(std::memory_order_relaxed);
  }

  /// [lower, upper) bounds of `bucket` in microseconds; upper is 0 for the
  /// unbounded last bucket.
  static std::pair<uint64_t, uint64_t> BucketBounds(int bucket);

 private:
  std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
  std::atomic<uint64_t> sum_micros_{0};
};

/// The protocol verbs the windowed latency rings break down by.
enum class ServiceVerb : int { kContained = 0, kPlan, kRewrite };

/// Stable lowercase name: "contained" | "plan" | "rewrite".
std::string_view ServiceVerbName(ServiceVerb verb);

/// Request-level counters for the containment service: totals, errors,
/// cache hits observed at the request level, per-regime decision counts,
/// and the latency histogram. All counters are atomics — recording from
/// many workers never blocks. Thread-safe.
///
/// When tracing is enabled (per request or service-wide), RecordTrace
/// additionally folds each trace into per-phase cumulative timers. The
/// phase timers are mutex-protected; they sit off the hot path — a request
/// that was not traced never touches them. The trace counters are not
/// kept here: the request frame folds every request's counts into
/// trace::ProcessCounts, and Snapshot reads them from there.
class ServiceMetrics {
 public:
  static constexpr int kNumRegimes = 6;  // Regime enumerators incl. kUnknown
  static constexpr int kNumVerbs = 3;    // ServiceVerb enumerators
  /// The fixed short trailing window; the long window is configurable
  /// (set_window_secs, default 60, capped by the ring size).
  static constexpr int kShortWindowSecs = 10;
  /// How many of the slowest flight-arena entries /statusz lists.
  static constexpr size_t kSlowRequests = 4;

  ServiceMetrics();

  /// Records one finished request. `regime` is kUnknown for errors.
  void RecordRequest(Regime regime, uint64_t latency_micros, bool error,
                     bool cache_hit);

  /// Records one finished planner request (PLAN? when `rewrite` is false,
  /// REWRITE? when true) attributed to the regime of the plan it produced
  /// (kUnknown for errors). Planner latencies fold into the shared latency
  /// histogram; the per-verb totals stay separate from requests_ so the
  /// containment counters keep their meaning.
  void RecordPlanRequest(bool rewrite, Regime regime, uint64_t latency_micros,
                         bool error);

  /// Records one rejected protocol line whose verb no handler claims
  /// (satisfies the `relcont_unknown_verb_total` series).
  void RecordUnknownVerb() {
    unknown_verbs_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Records one HTTP request rejected by the parser hardening: 431
  /// (oversized request line/headers) or 408 (slow client cut off).
  void RecordHttpRejected(int status_code) {
    if (status_code == 431) {
      http_rejected_431_.fetch_add(1, std::memory_order_relaxed);
    } else if (status_code == 408) {
      http_rejected_408_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  /// Live gauges. Inflight tracks requests inside the request frame of
  /// any verb (CONTAINED?, PLAN?, REWRITE?; service/request_frame.h); open
  /// connections tracks sockets held by the obs server; batch queue depth
  /// tracks ExecuteBatch items not yet claimed by a worker.
  void IncInflight() { inflight_.fetch_add(1, std::memory_order_relaxed); }
  void DecInflight() { inflight_.fetch_sub(1, std::memory_order_relaxed); }
  void IncOpenConnections() {
    open_connections_.fetch_add(1, std::memory_order_relaxed);
  }
  void DecOpenConnections() {
    open_connections_.fetch_sub(1, std::memory_order_relaxed);
  }
  void AddBatchQueueDepth(int64_t delta) {
    batch_queue_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t inflight_requests() const {
    return inflight_.load(std::memory_order_relaxed);
  }
  int64_t open_connections() const {
    return open_connections_.load(std::memory_order_relaxed);
  }
  int64_t batch_queue_depth() const {
    return batch_queue_.load(std::memory_order_relaxed);
  }

  /// Drain state: set on SIGTERM drain start, cleared never (the process
  /// exits). /healthz answers 503 and /statusz reports it while set.
  void set_draining(bool draining) {
    draining_.store(draining, std::memory_order_relaxed);
  }
  bool draining() const { return draining_.load(std::memory_order_relaxed); }

  /// Sets the long trailing window in seconds (clamped to
  /// [1, obs::WindowRing::kMaxWindowSecs]). Call before serving traffic.
  void set_window_secs(int secs);
  int window_secs() const {
    return window_secs_.load(std::memory_order_relaxed);
  }

  /// Replaces the window clock (a seconds counter) for deterministic
  /// tests. Must be installed before any request is recorded; the default
  /// clock counts steady-clock seconds since construction.
  void set_window_clock_for_test(std::function<uint64_t()> clock) {
    window_clock_ = std::move(clock);
  }

  /// Aggregates the trailing `window_secs` seconds for one verb. `regime`
  /// of kNumRegimes (the default) folds every regime together.
  obs::WindowAggregate WindowFor(ServiceVerb verb, int window_secs,
                                 int regime = kNumRegimes) const;

  /// Records one request whose deadline expired before it completed.
  void RecordDeadlineExceeded() {
    deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Folds one recorded trace into the per-phase timers: every span adds
  /// to the cumulative timer and call count of its phase (spans aggregate
  /// by name).
  void RecordTrace(const trace::TraceContext& trace);

  /// The per-request flight recorder (ids, wide-event ring, retention
  /// arena, crash black box). Lives here so every surface that already
  /// holds the metrics — service, planner, protocol, obs server — reaches
  /// the same recorder.
  obs::FlightRecorder& flight() { return flight_; }
  const obs::FlightRecorder& flight() const { return flight_; }

  /// Finishes and files one request's wide event: stamps the wall-clock
  /// timestamp, folds the trace's top phases in (when `trace` is non-null),
  /// records the event into the ring, hands it to the access log (when one
  /// is installed), and applies the retention policy — retain the full
  /// span renderings when the request errored (which covers
  /// kBoundReached), ran slower than TailThresholdMicros(verb), or falls
  /// on the head sample. The caller fills the identity fields (id, verb,
  /// regime, catalog, latency, flags) first. Every request of every verb
  /// ends here.
  void RecordFlight(ServiceVerb verb, obs::WideEvent event,
                    const trace::TraceContext* trace);

  /// Installs the JSONL access log (not owned; nullptr removes it): every
  /// wide event RecordFlight files is also offered to it. Call before
  /// serving traffic.
  void set_access_log(obs::AccessLog* log) { access_log_ = log; }

  /// The live tail-retention threshold for `verb`: the trailing
  /// kShortWindowSecs p99 in microseconds, all regimes folded, or 0 when
  /// the window holds no samples (latency criterion disabled). Recomputed
  /// lazily at most once per window-clock second and cached, so the
  /// per-request retention decision costs one atomic load.
  uint64_t TailThresholdMicros(ServiceVerb verb) const;

  uint64_t requests() const {
    return requests_.load(std::memory_order_relaxed);
  }
  uint64_t errors() const { return errors_.load(std::memory_order_relaxed); }
  uint64_t cache_hits() const {
    return cache_hits_.load(std::memory_order_relaxed);
  }
  uint64_t deadline_exceeded() const {
    return deadline_exceeded_.load(std::memory_order_relaxed);
  }
  uint64_t plan_requests() const {
    return plan_requests_.load(std::memory_order_relaxed);
  }
  uint64_t rewrite_requests() const {
    return rewrite_requests_.load(std::memory_order_relaxed);
  }
  uint64_t plan_errors() const {
    return plan_errors_.load(std::memory_order_relaxed);
  }
  uint64_t unknown_verbs() const {
    return unknown_verbs_.load(std::memory_order_relaxed);
  }
  uint64_t RegimeCount(Regime regime) const {
    return by_regime_[static_cast<int>(regime)].load(
        std::memory_order_relaxed);
  }
  const LatencyHistogram& latency() const { return latency_; }

  /// Cumulative nanoseconds spent in spans named `phase` across every
  /// recorded trace, and how many such spans were recorded.
  uint64_t PhaseNanos(const std::string& phase) const;
  uint64_t PhaseCalls(const std::string& phase) const;

  /// Copies every series plus build/uptime identity into one consistent
  /// snapshot — the single source the METRICS verb, `/metrics` and
  /// `/statusz` render from (see obs/exposition.h). `plan_cache` carries
  /// the planner's cache counters (defaulted so callers without a planner
  /// keep working).
  obs::MetricsSnapshot Snapshot(const CacheStats& cache,
                                const CacheStats& plan_cache = {}) const;

 private:
  struct PhaseStat {
    uint64_t ns = 0;
    uint64_t calls = 0;
  };

  /// Records one sample into the (verb, regime) window ring at the current
  /// window-clock second.
  void RecordWindow(ServiceVerb verb, Regime regime, uint64_t micros);
  const obs::WindowRing& Ring(int verb, int regime) const {
    return windows_[verb * kNumRegimes + regime];
  }
  obs::WindowRing& Ring(int verb, int regime) {
    return windows_[verb * kNumRegimes + regime];
  }

  /// Fixed at construction; Snapshot derives uptime and start time.
  const std::chrono::steady_clock::time_point start_steady_ =
      std::chrono::steady_clock::now();
  const int64_t start_unix_seconds_ =
      std::chrono::duration_cast<std::chrono::seconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count();

  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> errors_{0};
  std::atomic<uint64_t> cache_hits_{0};
  std::atomic<uint64_t> deadline_exceeded_{0};
  std::atomic<uint64_t> plan_requests_{0};
  std::atomic<uint64_t> rewrite_requests_{0};
  std::atomic<uint64_t> plan_errors_{0};
  std::atomic<uint64_t> unknown_verbs_{0};
  std::atomic<uint64_t> http_rejected_431_{0};
  std::atomic<uint64_t> http_rejected_408_{0};
  std::atomic<int64_t> inflight_{0};
  std::atomic<int64_t> open_connections_{0};
  std::atomic<int64_t> batch_queue_{0};
  std::atomic<bool> draining_{false};
  std::atomic<int> window_secs_{60};
  std::array<std::atomic<uint64_t>, kNumRegimes> by_regime_{};
  LatencyHistogram latency_;

  /// kNumVerbs x kNumRegimes window rings (heap-allocated: each ring is
  /// ~27 KB of atomics). Indexed by Ring(verb, regime).
  std::unique_ptr<obs::WindowRing[]> windows_;
  /// The window clock, in whole seconds. Read concurrently, written only
  /// by set_window_clock_for_test before traffic starts.
  std::function<uint64_t()> window_clock_;

  obs::FlightRecorder flight_;
  obs::AccessLog* access_log_ = nullptr;
  /// Per-verb tail-threshold cache: packed {window second : 32, p99 µs
  /// clamped to 32 bits}. Recomputed when the cached second goes stale.
  mutable std::array<std::atomic<uint64_t>, kNumVerbs> tail_cache_{};

  mutable std::mutex trace_mu_;
  std::map<std::string, PhaseStat> phases_;
};

}  // namespace relcont

#endif  // RELCONT_SERVICE_METRICS_H_

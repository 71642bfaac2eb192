#include "service/metrics.h"

#include <algorithm>
#include <chrono>

#include "common/budget.h"
#include "relcont/version.h"

namespace relcont {

std::string_view ServiceVerbName(ServiceVerb verb) {
  switch (verb) {
    case ServiceVerb::kContained:
      return "contained";
    case ServiceVerb::kPlan:
      return "plan";
    case ServiceVerb::kRewrite:
      return "rewrite";
  }
  return "unknown";
}

void LatencyHistogram::Record(uint64_t micros) {
  int bucket = 0;
  while (bucket < kBuckets - 1 && micros >= (uint64_t{1} << bucket)) {
    ++bucket;
  }
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  sum_micros_.fetch_add(micros, std::memory_order_relaxed);
}

uint64_t LatencyHistogram::TotalCount() const {
  uint64_t total = 0;
  for (const auto& b : buckets_) total += b.load(std::memory_order_relaxed);
  return total;
}

std::pair<uint64_t, uint64_t> LatencyHistogram::BucketBounds(int bucket) {
  uint64_t lower = bucket == 0 ? 0 : uint64_t{1} << (bucket - 1);
  uint64_t upper =
      bucket == kBuckets - 1 ? 0 : uint64_t{1} << bucket;
  return {lower, upper};
}

ServiceMetrics::ServiceMetrics()
    : windows_(new obs::WindowRing[kNumVerbs * kNumRegimes]) {
  window_clock_ = [start = start_steady_]() -> uint64_t {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::seconds>(
            std::chrono::steady_clock::now() - start)
            .count());
  };
}

void ServiceMetrics::set_window_secs(int secs) {
  secs = std::max(1, std::min(secs, obs::WindowRing::kMaxWindowSecs));
  window_secs_.store(secs, std::memory_order_relaxed);
}

void ServiceMetrics::RecordWindow(ServiceVerb verb, Regime regime,
                                  uint64_t micros) {
  Ring(static_cast<int>(verb), static_cast<int>(regime))
      .Record(window_clock_(), micros);
}

obs::WindowAggregate ServiceMetrics::WindowFor(ServiceVerb verb,
                                               int window_secs,
                                               int regime) const {
  const uint64_t now_sec = window_clock_();
  obs::WindowAggregate out;
  const int v = static_cast<int>(verb);
  if (regime >= 0 && regime < kNumRegimes) {
    return Ring(v, regime).Aggregate(now_sec, window_secs);
  }
  for (int r = 0; r < kNumRegimes; ++r) {
    out.Merge(Ring(v, r).Aggregate(now_sec, window_secs));
  }
  return out;
}

void ServiceMetrics::RecordRequest(Regime regime, uint64_t latency_micros,
                                   bool error, bool cache_hit) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  if (error) errors_.fetch_add(1, std::memory_order_relaxed);
  if (cache_hit) cache_hits_.fetch_add(1, std::memory_order_relaxed);
  by_regime_[static_cast<int>(regime)].fetch_add(1,
                                                 std::memory_order_relaxed);
  latency_.Record(latency_micros);
  RecordWindow(ServiceVerb::kContained, regime, latency_micros);
}

void ServiceMetrics::RecordPlanRequest(bool rewrite, Regime regime,
                                       uint64_t latency_micros, bool error) {
  (rewrite ? rewrite_requests_ : plan_requests_)
      .fetch_add(1, std::memory_order_relaxed);
  if (error) plan_errors_.fetch_add(1, std::memory_order_relaxed);
  latency_.Record(latency_micros);
  RecordWindow(rewrite ? ServiceVerb::kRewrite : ServiceVerb::kPlan, regime,
               latency_micros);
}

void ServiceMetrics::RecordTrace(const trace::TraceContext& trace) {
  std::lock_guard<std::mutex> lock(trace_mu_);
  for (const trace::SpanNode& s : trace.spans()) {
    PhaseStat& stat = phases_[s.name];
    stat.ns += s.duration_ns();
    stat.calls += 1;
  }
}

void ServiceMetrics::RecordFlight(ServiceVerb verb, obs::WideEvent event,
                                  const trace::TraceContext* trace) {
  event.ts_unix_micros = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
  if (trace != nullptr) {
    event.traced = 1;
    const auto phases = trace->TopPhases();
    for (size_t i = 0;
         i < phases.size() && i < size_t{obs::WideEvent::kMaxPhases}; ++i) {
      obs::WideEvent::CopyInto(event.phases[i].name,
                               obs::WideEvent::kPhaseChars, phases[i].first);
      event.phases[i].ns = phases[i].second;
    }
  }
  flight_.Record(event);
  if (access_log_ != nullptr) access_log_->Record(event);
  const uint64_t p99 = TailThresholdMicros(verb);
  const bool tail =
      event.error != 0 || (p99 > 0 && event.latency_micros > p99);
  if (tail || flight_.ShouldHeadSample(event.request_id)) {
    flight_.Retain(event, trace != nullptr ? trace->ToText() : std::string(),
                   trace != nullptr ? trace->ToChromeJson() : std::string());
  }
}

uint64_t ServiceMetrics::TailThresholdMicros(ServiceVerb verb) const {
  const uint64_t now_sec = window_clock_();
  std::atomic<uint64_t>& cell = tail_cache_[static_cast<int>(verb)];
  const uint64_t packed = cell.load(std::memory_order_relaxed);
  if (packed != 0 && (packed >> 32) == (now_sec & 0xffffffffu)) {
    return packed & 0xffffffffu;
  }
  // Stale (or never computed) for this window second: aggregate the short
  // window across regimes and cache the p99. Concurrent recomputes race
  // benignly — both store the same second's answer.
  const obs::WindowAggregate agg =
      WindowFor(verb, kShortWindowSecs, kNumRegimes);
  uint64_t p99 = agg.count() == 0 ? 0 : agg.PercentileMicros(0.99);
  if (p99 > 0xffffffffu) p99 = 0xffffffffu;
  // The high word is never 0 once computed (second 0 with an empty window
  // packs to 0 and simply recomputes — harmless for one second at start).
  cell.store(((now_sec & 0xffffffffu) << 32) | p99,
             std::memory_order_relaxed);
  return p99;
}

uint64_t ServiceMetrics::PhaseNanos(const std::string& phase) const {
  std::lock_guard<std::mutex> lock(trace_mu_);
  auto it = phases_.find(phase);
  return it == phases_.end() ? 0 : it->second.ns;
}

uint64_t ServiceMetrics::PhaseCalls(const std::string& phase) const {
  std::lock_guard<std::mutex> lock(trace_mu_);
  auto it = phases_.find(phase);
  return it == phases_.end() ? 0 : it->second.calls;
}

obs::MetricsSnapshot ServiceMetrics::Snapshot(
    const CacheStats& cache, const CacheStats& plan_cache) const {
  using obs::SeriesIndex;
  obs::MetricsSnapshot s;
  s.version = kVersionString;
  s.trace_compiled_in = trace::kCompiledIn;
  s.uptime_seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start_steady_)
                         .count();
  auto gauge = [](int64_t v) { return static_cast<uint64_t>(v); };
  constexpr auto kRelaxed = std::memory_order_relaxed;
  s.values[SeriesIndex("start_time_seconds")] = gauge(start_unix_seconds_);
  s.values[SeriesIndex("requests_total")] = requests();
  s.values[SeriesIndex("errors_total")] = errors();
  s.values[SeriesIndex("request_cache_hits_total")] = cache_hits();
  s.values[SeriesIndex("deadline_exceeded_total")] = deadline_exceeded();
  s.values[SeriesIndex("inflight_requests")] = gauge(inflight_requests());
  s.values[SeriesIndex("open_connections")] = gauge(open_connections());
  s.values[SeriesIndex("batch_queue_depth")] = gauge(batch_queue_depth());
  s.values[SeriesIndex("draining")] = draining() ? 1 : 0;
  s.values[SeriesIndex("cache_hits_total")] = cache.hits;
  s.values[SeriesIndex("cache_misses_total")] = cache.misses;
  s.values[SeriesIndex("cache_evictions_total")] = cache.evictions;
  s.values[SeriesIndex("cache_entries")] = cache.entries;
  s.values[SeriesIndex("plan_requests_total")] = plan_requests();
  s.values[SeriesIndex("rewrite_requests_total")] = rewrite_requests();
  s.values[SeriesIndex("plan_errors_total")] = plan_errors();
  s.values[SeriesIndex("unknown_verb_total")] = unknown_verbs();
  s.values[SeriesIndex("plan_cache_hits_total")] = plan_cache.hits;
  s.values[SeriesIndex("plan_cache_misses_total")] = plan_cache.misses;
  s.values[SeriesIndex("plan_cache_evictions_total")] = plan_cache.evictions;
  s.values[SeriesIndex("plan_cache_invalidated_total")] =
      plan_cache.invalidated;
  s.values[SeriesIndex("plan_cache_entries")] = plan_cache.entries;
  s.values[SeriesIndex("flight_retained_total")] = flight_.retained_total();
  s.values[SeriesIndex("flight_dropped_total")] = flight_.dropped_total();
  s.values[SeriesIndex("flight_arena_bytes")] = flight_.arena_bytes();
  size_t row = obs::kFirstCounterSeries;
  for (const trace::CounterDef& counter : trace::kCounterTable) {
    if (!counter.exported) continue;
    s.values[row++] =
        trace::ProcessCounts()[static_cast<size_t>(counter.counter)].load(
            kRelaxed);
  }

  s.http_rejected = {{"431", http_rejected_431_.load(kRelaxed)},
                     {"408", http_rejected_408_.load(kRelaxed)}};
  for (const auto& [site, count] : BoundSiteCounts()) {
    s.bound_sites.push_back({site, count});
  }
  for (int i = 0; i < kNumRegimes; ++i) {
    Regime regime = static_cast<Regime>(i);
    uint64_t count = RegimeCount(regime);
    if (count == 0) continue;
    s.decisions.push_back({std::string(RegimeName(regime)), count});
  }
  s.slow_requests = flight_.SlowestRetained(kSlowRequests);

  // Prometheus histogram convention: buckets are cumulative, keyed by
  // their inclusive upper bound `le`, and always end at +Inf. The bucket
  // upper bound is exclusive in the histogram but `le` is inclusive;
  // [0, 2^i) integers == le 2^i - 1.
  uint64_t cumulative = 0;
  for (int i = 0; i < LatencyHistogram::kBuckets; ++i) {
    cumulative += latency_.BucketCount(i);
    auto [lower, upper] = LatencyHistogram::BucketBounds(i);
    (void)lower;
    obs::HistogramBucket bucket;
    bucket.unbounded = upper == 0;
    bucket.le = bucket.unbounded ? 0 : upper - 1;
    bucket.cumulative_count = cumulative;
    s.latency_buckets.push_back(bucket);
  }
  s.latency_sum_micros = latency_.SumMicros();
  s.latency_count = latency_.TotalCount();

  // Windowed percentiles: per verb and trailing window, one always-present
  // "all" row (every regime folded together) plus one row per regime with
  // traffic in that window.
  s.short_window_secs = kShortWindowSecs;
  s.long_window_secs = window_secs();
  const uint64_t now_sec = window_clock_();
  std::vector<int> window_lengths = {kShortWindowSecs};
  if (s.long_window_secs != kShortWindowSecs) {
    window_lengths.push_back(s.long_window_secs);
  }
  for (int v = 0; v < kNumVerbs; ++v) {
    const std::string verb(ServiceVerbName(static_cast<ServiceVerb>(v)));
    for (int wsecs : window_lengths) {
      obs::WindowAggregate per_regime[kNumRegimes];
      obs::WindowAggregate all;
      for (int r = 0; r < kNumRegimes; ++r) {
        per_regime[r] = Ring(v, r).Aggregate(now_sec, wsecs);
        all.Merge(per_regime[r]);
      }
      auto row = [&](const std::string& regime,
                     const obs::WindowAggregate& agg) {
        obs::WindowLatency w;
        w.verb = verb;
        w.regime = regime;
        w.window_secs = wsecs;
        w.count = agg.count();
        w.p50_micros = agg.PercentileMicros(0.50);
        w.p90_micros = agg.PercentileMicros(0.90);
        w.p99_micros = agg.PercentileMicros(0.99);
        w.max_micros = agg.max_micros;
        s.window_latency.push_back(std::move(w));
      };
      row("all", all);
      for (int r = 0; r < kNumRegimes; ++r) {
        if (per_regime[r].count() == 0) continue;
        row(std::string(RegimeName(static_cast<Regime>(r))), per_regime[r]);
      }
    }
  }

  std::lock_guard<std::mutex> lock(trace_mu_);
  for (const auto& [phase, stat] : phases_) {
    s.phases.push_back({phase, stat.ns, stat.calls});
  }
  return s;
}

}  // namespace relcont

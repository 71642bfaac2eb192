// Tests for the sliding-window latency telemetry (obs/window.h) and its
// integration into ServiceMetrics: deterministic decay under a fake
// clock, percentile estimates checked against a sorted-vector oracle,
// slot reclaim across ring wrap-around, concurrent recording (run under
// TSan in CI), and the acceptance property that the windowed p99 per
// verb x regime is pinned to the same value in both renderings
// (Prometheus text for METRICS and /metrics, STATUSZ JSON).

#include "obs/window.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "gtest/gtest.h"
#include "obs/exposition.h"
#include "service/metrics.h"

namespace relcont {
namespace {

using obs::WindowAggregate;
using obs::WindowRing;

TEST(WindowRingTest, BucketForMatchesHistogramLaw) {
  EXPECT_EQ(WindowRing::BucketFor(0), 0);
  EXPECT_EQ(WindowRing::BucketFor(1), 1);
  EXPECT_EQ(WindowRing::BucketFor(2), 2);
  EXPECT_EQ(WindowRing::BucketFor(3), 2);
  EXPECT_EQ(WindowRing::BucketFor(4), 3);
  EXPECT_EQ(WindowRing::BucketFor(100), 7);   // [64, 128)
  EXPECT_EQ(WindowRing::BucketFor(5000), 13);  // [4096, 8192)
  // Everything at or beyond 2^22 lands in the unbounded top bucket.
  EXPECT_EQ(WindowRing::BucketFor(1ull << 22), WindowRing::kBuckets - 1);
  EXPECT_EQ(WindowRing::BucketFor(~0ull), WindowRing::kBuckets - 1);
}

TEST(WindowRingTest, AggregateDecaysDeterministicallyUnderFakeClock) {
  WindowRing ring;
  for (uint64_t sec = 100; sec <= 104; ++sec) {
    for (int i = 0; i < 3; ++i) ring.Record(sec, 100);
  }
  EXPECT_EQ(ring.Aggregate(104, 1).count(), 3u);
  EXPECT_EQ(ring.Aggregate(104, 3).count(), 9u);
  EXPECT_EQ(ring.Aggregate(104, 5).count(), 15u);
  EXPECT_EQ(ring.Aggregate(104, 60).count(), 15u);
  // Advancing the clock drops whole seconds, oldest first — no partial
  // or probabilistic decay.
  EXPECT_EQ(ring.Aggregate(110, 10).count(), 12u);  // 101..110 keeps 101-104
  EXPECT_EQ(ring.Aggregate(113, 10).count(), 3u);   // 104..113 keeps 104
  EXPECT_EQ(ring.Aggregate(114, 10).count(), 0u);
  EXPECT_EQ(ring.Aggregate(110, 5).count(), 0u);    // 106..110 is empty
}

TEST(WindowRingTest, EmptyWindowReportsZero) {
  WindowRing ring;
  WindowAggregate agg = ring.Aggregate(42, 10);
  EXPECT_EQ(agg.count(), 0u);
  EXPECT_EQ(agg.sum_micros, 0u);
  EXPECT_EQ(agg.max_micros, 0u);
  EXPECT_EQ(agg.PercentileMicros(0.99), 0u);
}

TEST(WindowRingTest, SlotsAreReclaimedAfterWrapAround) {
  WindowRing ring;
  ring.Record(5, 1000000);
  // kSlots seconds later the same physical slot is reused for a new
  // second; the stale million-microsecond sample must not leak into it.
  const uint64_t later = 5 + WindowRing::kSlots;
  ring.Record(later, 7);
  WindowAggregate agg = ring.Aggregate(later, 1);
  EXPECT_EQ(agg.count(), 1u);
  EXPECT_EQ(agg.sum_micros, 7u);
  EXPECT_EQ(agg.max_micros, 7u);
}

TEST(WindowRingTest, PercentilesUpperBoundSortedOracle) {
  // Deterministic LCG stream; the ring's bucketed percentile must be an
  // upper bound on the exact order statistic, within the documented
  // factor-of-two envelope: exact <= estimate <= 2*exact + 1.
  WindowRing ring;
  std::vector<uint64_t> samples;
  uint64_t state = 12345;
  for (int i = 0; i < 2000; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    uint64_t value = (state >> 33) % 1000000;
    samples.push_back(value);
    ring.Record(100 + static_cast<uint64_t>(i % 10), value);
  }
  std::sort(samples.begin(), samples.end());
  WindowAggregate agg = ring.Aggregate(109, 10);
  ASSERT_EQ(agg.count(), samples.size());
  EXPECT_EQ(agg.max_micros, samples.back());
  for (double q : {0.10, 0.50, 0.90, 0.99, 1.0}) {
    const auto rank = static_cast<size_t>(std::ceil(
        q * static_cast<double>(samples.size())));
    const uint64_t exact = samples[std::max<size_t>(rank, 1) - 1];
    const uint64_t estimate = agg.PercentileMicros(q);
    EXPECT_GE(estimate, exact) << "q=" << q;
    EXPECT_LE(estimate, 2 * exact + 1) << "q=" << q;
    EXPECT_LE(estimate, agg.max_micros) << "q=" << q;
  }
}

TEST(WindowRingTest, MergeFoldsCountSumAndMax) {
  WindowRing a;
  WindowRing b;
  a.Record(10, 100);
  b.Record(10, 5000);
  WindowAggregate agg = a.Aggregate(10, 1);
  agg.Merge(b.Aggregate(10, 1));
  EXPECT_EQ(agg.count(), 2u);
  EXPECT_EQ(agg.sum_micros, 5100u);
  EXPECT_EQ(agg.max_micros, 5000u);
}

/// Run under TSan in CI: 8 recorder threads race an aggregating reader;
/// after the join every sample is accounted for exactly once.
TEST(WindowRingTest, ConcurrentRecordersAndReaderAgree) {
  WindowRing ring;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 4000;
  std::atomic<bool> stop{false};
  std::thread reader([&ring, &stop] {
    while (!stop.load(std::memory_order_acquire)) {
      WindowAggregate agg = ring.Aggregate(103, 10);
      // Monotone sanity while writers run; exactness is asserted after.
      EXPECT_LE(agg.count(), static_cast<uint64_t>(kThreads * kPerThread));
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&ring, t] {
      for (int i = 0; i < kPerThread; ++i) {
        ring.Record(100 + static_cast<uint64_t>(i % 4),
                    static_cast<uint64_t>(t * kPerThread + i));
      }
    });
  }
  for (std::thread& w : writers) w.join();
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(ring.Aggregate(103, 10).count(),
            static_cast<uint64_t>(kThreads * kPerThread));
}

// ---------------------------------------------------------------------------
// ServiceMetrics integration: per-verb x per-regime rings, deterministic
// decay through the injected clock, and the no-drift pin across renderers.

TEST(ServiceMetricsWindowTest, VerbAndRegimeWindowsDecayUnderFakeClock) {
  ServiceMetrics metrics;
  auto now = std::make_shared<std::atomic<uint64_t>>(100);
  metrics.set_window_clock_for_test([now] { return now->load(); });
  metrics.set_window_secs(60);

  metrics.RecordRequest(Regime::kSection3, 100, /*error=*/false,
                        /*cache_hit=*/false);
  metrics.RecordRequest(Regime::kTheorem32, 200, false, false);
  metrics.RecordPlanRequest(/*rewrite=*/false, Regime::kSection3, 300,
                            false);
  metrics.RecordPlanRequest(/*rewrite=*/true, Regime::kSection4, 400,
                            false);

  EXPECT_EQ(metrics.WindowFor(ServiceVerb::kContained, 10).count(), 2u);
  EXPECT_EQ(metrics
                .WindowFor(ServiceVerb::kContained, 10,
                           static_cast<int>(Regime::kSection3))
                .count(),
            1u);
  EXPECT_EQ(metrics
                .WindowFor(ServiceVerb::kContained, 10,
                           static_cast<int>(Regime::kTheorem32))
                .count(),
            1u);
  EXPECT_EQ(metrics.WindowFor(ServiceVerb::kPlan, 10).count(), 1u);
  EXPECT_EQ(metrics.WindowFor(ServiceVerb::kRewrite, 10).count(), 1u);
  EXPECT_EQ(metrics.WindowFor(ServiceVerb::kRewrite, 10).sum_micros, 400u);

  now->store(105);  // still inside the short window
  EXPECT_EQ(metrics.WindowFor(ServiceVerb::kContained, 10).count(), 2u);
  now->store(115);  // past the 10s window, inside the 60s window
  EXPECT_EQ(metrics.WindowFor(ServiceVerb::kContained, 10).count(), 0u);
  EXPECT_EQ(metrics.WindowFor(ServiceVerb::kContained, 60).count(), 2u);
  now->store(170);  // past the 60s window too
  EXPECT_EQ(metrics.WindowFor(ServiceVerb::kContained, 60).count(), 0u);
  EXPECT_EQ(metrics.WindowFor(ServiceVerb::kPlan, 60).count(), 0u);
}

/// The acceptance pin: one traffic mix, one fake clock, and the windowed
/// p99 per verb x regime carries the same value through the snapshot and
/// both renderings of it.
TEST(ServiceMetricsWindowTest, WindowedP99IsPinnedAcrossAllThreeRenderings) {
  ServiceMetrics metrics;
  auto now = std::make_shared<std::atomic<uint64_t>>(100);
  metrics.set_window_clock_for_test([now] { return now->load(); });
  metrics.set_window_secs(60);

  // 98 fast + 2 slow samples: rank ceil(0.99*100) = 99 lands in the slow
  // bucket [4096, 8192), clamped by the observed max. Exact expectations:
  // p50 = 127 (upper bound of [64,128)), p99 = max = 5000.
  for (int i = 0; i < 98; ++i) {
    metrics.RecordRequest(Regime::kSection3, 100, false, false);
  }
  metrics.RecordRequest(Regime::kSection3, 5000, false, false);
  metrics.RecordRequest(Regime::kSection3, 5000, false, false);
  metrics.RecordPlanRequest(false, Regime::kSection4, 100, false);

  obs::MetricsSnapshot snapshot = metrics.Snapshot(CacheStats{});
  EXPECT_EQ(snapshot.short_window_secs, 10);
  EXPECT_EQ(snapshot.long_window_secs, 60);

  auto find_row = [&snapshot](const std::string& verb,
                              const std::string& regime, int window_secs)
      -> const obs::WindowLatency* {
    for (const obs::WindowLatency& w : snapshot.window_latency) {
      if (w.verb == verb && w.regime == regime &&
          w.window_secs == window_secs) {
        return &w;
      }
    }
    return nullptr;
  };
  const obs::WindowLatency* row = find_row("contained", "section3", 10);
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->count, 100u);
  EXPECT_EQ(row->p50_micros, 127u);
  EXPECT_EQ(row->p99_micros, 5000u);
  EXPECT_EQ(row->max_micros, 5000u);
  // The per-verb "all" fold and the long window carry the same traffic.
  const obs::WindowLatency* all_row = find_row("contained", "all", 60);
  ASSERT_NE(all_row, nullptr);
  EXPECT_EQ(all_row->count, 100u);
  EXPECT_EQ(all_row->p99_micros, 5000u);
  const obs::WindowLatency* plan_row = find_row("plan", "section4", 10);
  ASSERT_NE(plan_row, nullptr);
  EXPECT_EQ(plan_row->count, 1u);
  // Quiet cells stay out of the snapshot: rewrite saw no traffic, so only
  // its always-present "all" rows appear and they are empty.
  EXPECT_EQ(find_row("rewrite", "section3", 10), nullptr);
  const obs::WindowLatency* rewrite_all = find_row("rewrite", "all", 10);
  ASSERT_NE(rewrite_all, nullptr);
  EXPECT_EQ(rewrite_all->count, 0u);

  const std::string prom = obs::RenderPrometheusText(snapshot);
  EXPECT_NE(prom.find("relcont_window_latency_requests{verb=\"contained\","
                      "regime=\"section3\",window=\"10s\"} 100"),
            std::string::npos)
      << prom;
  EXPECT_NE(
      prom.find("relcont_window_latency_microseconds{verb=\"contained\","
                "regime=\"section3\",window=\"10s\",quantile=\"p99\"} 5000"),
      std::string::npos);

  const std::string statusz = obs::RenderStatuszJson(snapshot);
  Result<json::Value> parsed = json::Parse(statusz);
  ASSERT_TRUE(parsed.ok()) << statusz;
  const json::Value* windows = parsed->Find("windows");
  ASSERT_NE(windows, nullptr);
  EXPECT_DOUBLE_EQ(windows->Find("short_secs")->number_value, 10);
  EXPECT_DOUBLE_EQ(windows->Find("long_secs")->number_value, 60);
  const json::Value* latency = windows->Find("latency");
  ASSERT_NE(latency, nullptr);
  bool found = false;
  for (const json::Value& entry : latency->array) {
    if (entry.Find("verb")->string_value == "contained" &&
        entry.Find("regime")->string_value == "section3" &&
        entry.Find("window_secs")->number_value == 10) {
      found = true;
      EXPECT_DOUBLE_EQ(entry.Find("count")->number_value, 100);
      EXPECT_DOUBLE_EQ(entry.Find("p50_us")->number_value, 127);
      EXPECT_DOUBLE_EQ(entry.Find("p99_us")->number_value, 5000);
      EXPECT_DOUBLE_EQ(entry.Find("max_us")->number_value, 5000);
    }
  }
  EXPECT_TRUE(found) << statusz;
}

TEST(ServiceMetricsWindowTest, LongWindowEqualToShortIsNotDuplicated) {
  ServiceMetrics metrics;
  auto now = std::make_shared<std::atomic<uint64_t>>(50);
  metrics.set_window_clock_for_test([now] { return now->load(); });
  metrics.set_window_secs(10);  // long == short
  metrics.RecordRequest(Regime::kSection3, 100, false, false);
  obs::MetricsSnapshot snapshot = metrics.Snapshot(CacheStats{});
  int rows_for_cell = 0;
  for (const obs::WindowLatency& w : snapshot.window_latency) {
    if (w.verb == "contained" && w.regime == "section3") ++rows_for_cell;
  }
  EXPECT_EQ(rows_for_cell, 1);
  EXPECT_EQ(snapshot.short_window_secs, snapshot.long_window_secs);
}

}  // namespace
}  // namespace relcont

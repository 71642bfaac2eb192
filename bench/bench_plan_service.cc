// Throughput benchmark for the plan service on the path-view workload:
// plans/sec cold (every PLAN? rebuilds the plan) vs warm (repeats served
// from the versioned plan cache), over both plan regimes — the recursive
// dom plan of the binding-pattern catalog and the UCQ-over-sources plan
// of the pattern-free catalog. Writes BENCH_plan_service.json
// (relcont-bench-v1 schema — see bench/harness.h) for tools/bench_compare.
//
// This is a standalone binary (not google-benchmark) because the quantity
// of interest is request throughput through the Planner facade, cache
// included, not hot-loop latency of one construction.
//
// RELCONT_BENCH_SMOKE=1 shrinks the workload to CI scale and drops the
// absolute speedup exit criterion (smoke numbers are for relative
// comparison against a smoke baseline only).

#include <chrono>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "harness.h"
#include "planner/planner.h"
#include "relcont/workload.h"
#include "service/service.h"

namespace relcont {
namespace {

/// Distinct chain queries over the mediated relations e0..e{k-1}, the
/// query shape the path-view catalogs answer.
std::vector<std::string> ChainQueries(int count, int num_relations,
                                      uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> length(2, 3);
  std::uniform_int_distribution<int> relation(0, num_relations - 1);
  std::vector<std::string> out;
  out.reserve(count);
  for (int i = 0; i < count; ++i) {
    int hops = length(rng);
    std::string q = "q(X0, X" + std::to_string(hops) + ") :- ";
    for (int hop = 0; hop < hops; ++hop) {
      if (hop > 0) q += ", ";
      q += "e" + std::to_string(relation(rng)) + "(X" +
           std::to_string(hop) + ", X" + std::to_string(hop + 1) + ")";
    }
    q += ".";
    out.push_back(std::move(q));
  }
  return out;
}

struct Measurement {
  size_t requests = 0;
  double seconds = 0;
  /// Per-request wall latency in microseconds, for the tail metrics.
  bench::Samples latency_us;
  double plans_per_sec() const {
    return seconds > 0 ? static_cast<double>(requests) / seconds : 0;
  }
};

/// Runs `reps` passes of `queries` through the planner. `bypass_cache`
/// makes every request rebuild (the cold shape); otherwise repeats hit
/// the plan cache (the warm shape).
Measurement Run(Planner* planner, WorkerContext* ctx,
                const std::string& catalog,
                const std::vector<std::string>& queries, int reps,
                bool bypass_cache, const char* label) {
  Measurement m;
  auto start = std::chrono::steady_clock::now();
  for (int rep = 0; rep < reps; ++rep) {
    for (const std::string& query : queries) {
      PlanRequest request;
      request.query_text = query;
      request.catalog = catalog;
      request.bypass_cache = bypass_cache;
      auto request_start = std::chrono::steady_clock::now();
      PlanResponse response = planner->Plan(request, ctx);
      m.latency_us.Add(std::chrono::duration<double, std::micro>(
                           std::chrono::steady_clock::now() - request_start)
                           .count());
      if (!response.status.ok()) {
        std::fprintf(stderr, "plan failed (%s): %s\n", label,
                     response.status.ToString().c_str());
      }
      ++m.requests;
    }
  }
  m.seconds = std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - start)
                  .count();
  std::printf("  %-14s requests=%zu  %.0f plans/s\n", label, m.requests,
              m.plans_per_sec());
  return m;
}

int Main() {
  PathViewOptions options;
  options.num_views = bench::ScaleIterations(600, 60);
  options.num_relations = 8;
  options.min_length = 1;
  options.max_length = 4;
  options.bound_probability = 1.0;  // every view input-bound: dom regime
  options.skew = 1.0;
  options.seed = 424242;
  PathViewWorkload bound = MakePathViewWorkload(options);

  // The UCQ regime unfolds through every matching view, so its catalog
  // stays small enough that the disjunct fan-out is the work, not a bound.
  PathViewOptions free_options = options;
  free_options.num_views = bench::ScaleIterations(40, 12);
  free_options.bound_probability = 0.0;
  PathViewWorkload free_views = MakePathViewWorkload(free_options);

  ContainmentService service;
  if (!service.catalogs()
           .Register("bound", bound.views_text, bound.patterns)
           .ok() ||
      !service.catalogs().Register("free", free_views.views_text).ok()) {
    std::fprintf(stderr, "catalog registration failed\n");
    return 1;
  }

  std::vector<std::string> queries =
      ChainQueries(/*count=*/16, options.num_relations, /*seed=*/7);
  const int cold_reps = bench::ScaleIterations(3, 1);
  const int warm_reps = bench::ScaleIterations(200, 20);
  std::printf("bench_plan_service: views=%d/%d queries=%zu cold=%d "
              "warm=%d\n",
              options.num_views, free_options.num_views, queries.size(),
              cold_reps, warm_reps);

  Planner& planner = service.planner();
  WorkerContext ctx;
  Measurement cold_bound = Run(&planner, &ctx, "bound", queries, cold_reps,
                               /*bypass_cache=*/true, "cold/recursive");
  Measurement cold_free = Run(&planner, &ctx, "free", queries, cold_reps,
                              /*bypass_cache=*/true, "cold/ucq");
  // Prewarm one pass, then measure the repeated-request steady state.
  Run(&planner, &ctx, "bound", queries, 1, false, "prewarm/recursive");
  Run(&planner, &ctx, "free", queries, 1, false, "prewarm/ucq");
  Measurement warm_bound = Run(&planner, &ctx, "bound", queries, warm_reps,
                               /*bypass_cache=*/false, "warm/recursive");
  Measurement warm_free = Run(&planner, &ctx, "free", queries, warm_reps,
                              /*bypass_cache=*/false, "warm/ucq");

  double speedup = cold_bound.plans_per_sec() > 0
                       ? warm_bound.plans_per_sec() /
                             cold_bound.plans_per_sec()
                       : 0;
  std::printf("warm vs cold speedup (recursive regime): %.1fx\n", speedup);
  CacheStats stats = planner.cache().Stats();
  std::printf("plan cache: hits=%llu misses=%llu entries=%llu\n",
              static_cast<unsigned long long>(stats.hits),
              static_cast<unsigned long long>(stats.misses),
              static_cast<unsigned long long>(stats.entries));

  std::vector<bench::Metric> metrics;
  metrics.push_back({"cold_recursive_plans_per_sec",
                     cold_bound.plans_per_sec(), "plans/s", true});
  metrics.push_back({"cold_ucq_plans_per_sec", cold_free.plans_per_sec(),
                     "plans/s", true});
  metrics.push_back({"warm_recursive_plans_per_sec",
                     warm_bound.plans_per_sec(), "plans/s", true});
  metrics.push_back({"warm_ucq_plans_per_sec", warm_free.plans_per_sec(),
                     "plans/s", true});
  metrics.push_back({"speedup_warm_vs_cold", speedup, "x", true});
  // Per-request latency distributions: the throughput rows above hide the
  // tail, and bench_compare gates p99 drift once the baseline carries it.
  metrics.push_back(bench::DistributionMetric(
      "cold_recursive_plan_latency_us", cold_bound.latency_us, "us", false));
  metrics.push_back(bench::DistributionMetric(
      "cold_ucq_plan_latency_us", cold_free.latency_us, "us", false));
  metrics.push_back(bench::DistributionMetric(
      "warm_recursive_plan_latency_us", warm_bound.latency_us, "us", false));
  metrics.push_back(bench::DistributionMetric(
      "warm_ucq_plan_latency_us", warm_free.latency_us, "us", false));
  if (!bench::WriteBenchJson("BENCH_plan_service.json", "plan_service",
                             metrics)) {
    return 1;
  }
  // Absolute acceptance only at full scale: a smoke run's catalog is small
  // enough that a cold rebuild is already cheap.
  if (!bench::SmokeMode() && speedup < 10.0) {
    std::fprintf(stderr, "speedup %.2fx below the 10x acceptance bar\n",
                 speedup);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace relcont

int main() { return relcont::Main(); }

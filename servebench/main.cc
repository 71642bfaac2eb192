// servebench: the end-to-end and per-layer benchmark of the containment
// service. METRICS.md records why each workload and metric was chosen;
// run.py builds this binary and runs it.
//
//   servebench --workload warm_hits|cold_mix|churn_tcp --seed N
//              --seconds S --trace 0|1
//
// The last line of standard output is one JSON object:
//   {"correct": bool, "attempted": N, "failed": N, "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones (measured with no
// layer timing at all); with --trace 1 they are the per-layer ones from a
// traced replay, plus the traced-vs-untraced overhead.
#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "runner.h"
#include "script.h"
#include "stats.h"
#include "tracer.h"

namespace servebench {
namespace {

/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetups = 9;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else {
      return false;
    }
  }
  return (args->workload == "warm_hits" || args->workload == "cold_mix" ||
          args->workload == "churn_tcp") &&
         args->seconds >= 1;
}

/// Prints the script's sizes: distinct questions, catalogs and views, and
/// the timed sequence broken down by regime and verb.
void PrintSizes(const Script& script) {
  size_t views = 0;
  for (const CatalogText& c : script.catalogs) views += c.views.size();
  size_t contained = 0;
  for (const Question& q : script.questions) {
    if (q.verb == Verb::kContained) ++contained;
  }
  std::printf("sizes: distinct_pairs=%zu distinct_plan_queries=%zu "
              "catalog_contents=%zu views=%zu clients=%zu\n",
              contained, script.questions.size() - contained,
              script.catalogs.size(), views, script.clients.size());
  std::map<std::string, uint64_t> steps;
  for (const ClientScript& client : script.clients) {
    steps["defines"] += client.defines.size();
    steps["warmup"] += client.warmup.size();
    for (const Step& step : client.steps) {
      switch (step.verb) {
        case Verb::kContained:
        case Verb::kPlan:
          ++steps["requests." + script.questions[step.question].family];
          break;
        case Verb::kCatalog:
          ++steps["catalog_writes"];
          break;
        case Verb::kScrapeMetrics:
        case Verb::kScrapeStatusz:
          ++steps["scrapes"];
          break;
        case Verb::kReconnect:
          ++steps["reconnects"];
          break;
      }
    }
  }
  std::printf("sequence:");
  for (const auto& [name, n] : steps) {
    std::printf(" %s=%llu", name.c_str(), static_cast<unsigned long long>(n));
  }
  std::printf("\n");
}

void PrintResult(bool correct, const PassResult& pass, const Metrics& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(pass.attempted),
              static_cast<unsigned long long>(pass.errors));
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), metric.value,
                metric.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

/// Reports mismatches; true when every reply matched the oracle.
bool CheckPass(const char* label, const PassResult& pass) {
  for (const std::string& m : pass.mismatch_samples) {
    std::fprintf(stderr, "%s mismatch: %s\n", label, m.c_str());
  }
  if (pass.mismatches > 0) {
    std::fprintf(stderr, "%s: %llu replies disagree with the library\n",
                 label, static_cast<unsigned long long>(pass.mismatches));
  }
  return pass.mismatches == 0;
}

/// Exact counts must repeat between two runs of one script; a difference
/// means the workload itself is nondeterministic.
bool SameCounts(const char* label, const ExactCounts& a,
                const ExactCounts& b) {
  if (a == b) return true;
  for (const auto& [key, value] : a) {
    auto it = b.find(key);
    uint64_t other = it == b.end() ? 0 : it->second;
    if (other != value) {
      std::fprintf(stderr, "nondeterministic workload: %s %s = %llu vs %llu\n",
                   label, key.c_str(), static_cast<unsigned long long>(value),
                   static_cast<unsigned long long>(other));
    }
  }
  return false;
}

void PrintCounts(const ExactCounts& counts) {
  std::printf("counts:");
  for (const auto& [key, value] : counts) {
    std::printf(" %s=%llu", key.c_str(),
                static_cast<unsigned long long>(value));
  }
  std::printf("\n");
}

/// The median over the pass's segments of `of_segment(segment)`.
template <typename Fn>
double SegmentMedian(Fn&& of_segment) {
  std::vector<double> values;
  for (int s = 0; s < kSegments; ++s) values.push_back(of_segment(s));
  return Quantile(values, 0.5);
}

Metrics EndToEnd(const PassResult& pass) {
  auto latency = [&pass](bool any_verb, Verb verb, double q) {
    return SegmentMedian([&](int s) {
      return Quantile(pass.Latencies(any_verb, verb, s), q);
    });
  };
  Metrics m;
  m["throughput_rps"] = {
      SegmentMedian([&pass](int s) { return pass.ThroughputRps(s); }), "1/s"};
  m["latency_p50_us"] = {latency(true, Verb::kContained, 0.5), "us"};
  m["latency_p90_us"] = {latency(true, Verb::kContained, 0.9), "us"};
  m["contained_p50_us"] = {latency(false, Verb::kContained, 0.5), "us"};
  m["plan_p50_us"] = {latency(false, Verb::kPlan, 0.5), "us"};
  m["setup_s"] = {pass.setup_s, "s"};
  m["rss_peak_mb"] = {pass.rss_peak_mb, "MB"};
  return m;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: servebench --workload warm_hits|cold_mix|churn_tcp "
                 "--seed N --seconds S --trace 0|1\n");
    return 2;
  }
  // One malloc arena for every thread. Otherwise each server connection
  // thread may get an arena of its own, and which pages those arenas touch
  // varies from run to run: rss_peak_mb of one churn_tcp seed moved by a
  // fifth with them.
  mallopt(M_ARENA_MAX, 1);
  Clock::time_point t0 = Clock::now();
  Script script = args.workload == "warm_hits"
                      ? BuildWarmHits(args.seed, args.seconds)
                  : args.workload == "cold_mix"
                      ? BuildColdMix(args.seed, args.seconds)
                      : BuildChurnTcp(args.seed, args.seconds);
  std::printf("workload=%s seed=%llu seconds=%d trace=%d inputs_s=%.2f\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, MicrosSince(t0) / 1e6);
  PrintSizes(script);
  bool tcp = args.workload == "churn_tcp";

  if (!args.trace) {
    PassResult pass = tcp ? RunTcp(script, kSetups)
                          : RunInProcess(script, kSetups, nullptr);
    bool correct = CheckPass("untraced", pass);
    PrintCounts(pass.counts);
    PrintResult(correct, pass, EndToEnd(pass));
    return 0;
  }

  // Traced: an untraced pass, a traced pass and a shadow-only replay, each
  // on fresh state. The untraced and traced passes must agree on every
  // exact count of the service under test; the traced pass and the replay
  // on every count of the shadow.
  Clock::time_point pass_start = Clock::now();
  auto lap = [&pass_start] {
    double s = MicrosSince(pass_start) / 1e6;
    pass_start = Clock::now();
    return s;
  };
  PassResult untraced =
      tcp ? RunTcp(script, 1) : RunInProcess(script, 1, nullptr);
  // The in-process baseline of bench.traced_overhead_pct; for churn_tcp
  // an extra untraced pass over the same script.
  PassResult in_process;
  if (tcp) in_process = RunInProcess(script, 1, nullptr);
  const PassResult& baseline = tcp ? in_process : untraced;
  double untraced_s = lap();
  PassResult traced_tcp;
  if (tcp) traced_tcp = RunTcp(script, 1);
  Tracer tracer(&script, /*shadow_only=*/false);
  PassResult traced = RunInProcess(script, 1, &tracer);
  double traced_s = lap();
  Tracer replay(&script, /*shadow_only=*/true);
  replay.ReplayShadow();
  std::printf("passes_s: untraced=%.1f traced=%.1f shadow_replay=%.1f\n",
              untraced_s, traced_s, lap());

  const PassResult& traced_e2e = tcp ? traced_tcp : traced;
  bool correct = CheckPass("untraced", untraced) &
                 CheckPass("traced", traced) &
                 (!tcp || CheckPass("in-process", in_process)) &
                 (!tcp || CheckPass("traced tcp", traced_tcp));
  correct &= SameCounts("service", untraced.counts, traced_e2e.counts);
  correct &= SameCounts("shadow", tracer.ShadowCounts(), replay.ShadowCounts());
  PrintCounts(untraced.counts);
  PrintCounts(tracer.ShadowCounts());

  Metrics m;
  tracer.Report(tcp ? traced_tcp.AllUs() : std::vector<double>{}, &m);
  // Wall time per request of the traced in-process pass, tracer work
  // included, over that of the untraced in-process pass.
  double base_us = baseline.loop_us / std::max<uint64_t>(1, baseline.attempted);
  double traced_us = traced.loop_us / std::max<uint64_t>(1, traced.attempted);
  m["bench.traced_overhead_pct"] = {
      base_us > 0 ? 100 * (traced_us - base_us) / base_us : 0, "%"};
  m["obs.connect_us"] = {Quantile(untraced.connect_us, 0.5), "us"};
  m["obs.scrape_metrics_us"] = {Quantile(untraced.scrape_metrics_us, 0.5),
                                "us"};
  m["obs.scrape_statusz_us"] = {Quantile(untraced.scrape_statusz_us, 0.5),
                                "us"};
  m["service.catalog_write_p50_us"] = {
      Quantile(untraced.Latencies(false, Verb::kCatalog), 0.5), "us"};
  PrintResult(correct, untraced, m);
  return 0;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) { return servebench::Main(argc, argv); }

// Experiment X33 (Theorem 3.3): relative containment on the ∀∃-3CNF
// hard-instance family, scan vs CEGAR. The paper proves Π₂ᴾ-completeness;
// the measurable shape is exponential growth in the number of universal
// variables m. The scan materializes all 2^m plan disjuncts and
// checks them pairwise (~4^m); the CEGAR engine proposes canonical
// databases one at a time and prunes with blocking clauses (~2^m·poly), so
// the two curves cross and the gap widens by another factor of 2 per
// universal variable. This harness sweeps m with both engines on the SAME
// instances, records per-m timings plus the measured crossover point, and
// in full mode fails (exit status) unless CEGAR is strictly faster at
// every measured m >= 10 — the acceptance bar of the CEGAR change.
//
// Every timed decision is verdict-checked against the brute-force ∀∃
// oracle, and the per-m instance is seed-searched to be ∀∃-satisfiable so
// the verdict is YES: both engines must run their search to exhaustion
// rather than winning by a lucky early counterexample.
//
// Writes BENCH_pi2p_reduction.json (relcont-bench-v1 schema, see
// bench/harness.h). RELCONT_BENCH_SMOKE=1 caps the sweep at m=12 so the
// CI gate finishes in seconds; the full sweep runs scan to m=13 and CEGAR
// to m=20 (scan at m=14 already takes minutes). Standalone (not
// google-benchmark): the two engines must interleave per-m on identical
// instances for the crossover to be an apples-to-apples number.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "harness.h"

#include "relcont/pi2p_reduction.h"
#include "relcont/relative_containment.h"

namespace relcont {
namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// The first seed from 7 whose formula is ∀∃-satisfiable. A YES instance
// forces both engines through their full search space; a NO instance can
// end at the first uncovered proposal and would understate scan's cost.
QbfFormula PickFormula(int m) {
  for (uint64_t seed = 7;; ++seed) {
    QbfFormula f = RandomQbf(/*num_exists=*/3, m, /*num_clauses=*/4, seed);
    if (ForallExistsSatisfiable(f)) return f;
  }
}

// Best-of-reps wall time of one decision under `strategy`, in ns.
// Negative on error or on a verdict disagreeing with the oracle.
double TimeEngine(const Pi2pInstance& inst, Interner* interner,
                  ContainmentStrategy strategy, int reps) {
  RelativeContainmentOptions options;
  options.strategy = strategy;
  uint64_t best = UINT64_MAX;
  for (int rep = 0; rep < reps; ++rep) {
    uint64_t start = NowNs();
    Result<RelativeContainmentResult> r = RelativelyContained(
        inst.q2, inst.q1, inst.views, interner, options);
    uint64_t ns = NowNs() - start;
    if (!r.ok()) {
      std::fprintf(stderr, "%s failed: %s\n",
                   std::string(ContainmentStrategyName(strategy)).c_str(),
                   r.status().ToString().c_str());
      return -1;
    }
    if (!r->contained) {
      std::fprintf(stderr, "%s verdict disagrees with the oracle\n",
                   std::string(ContainmentStrategyName(strategy)).c_str());
      return -1;
    }
    if (ns < best) best = ns;
  }
  return static_cast<double>(best);
}

int Main() {
  const bool smoke = bench::SmokeMode();
  // Scan is ~4^m: m=13 is tens of seconds, m=14 minutes — the full sweep
  // stops scan at 13 and lets CEGAR continue to 20 to show the widening
  // gap. Smoke caps both at 12 (a few seconds total) for the CI gate.
  const int scan_max = smoke ? 12 : 13;
  const int cegar_max = smoke ? 12 : 20;

  std::vector<bench::Metric> metrics;
  int crossover_m = 0;      // first m where cegar beats scan
  bool bar_met = true;      // cegar strictly faster at every m >= 10
  bool bar_measured = false;

  for (int m = 4; m <= cegar_max; m += 2) {
    Interner interner;
    QbfFormula f = PickFormula(m);
    Result<Pi2pInstance> inst = BuildPi2pReduction(f, &interner);
    if (!inst.ok()) {
      std::fprintf(stderr, "m=%d reduction failed: %s\n", m,
                   inst.status().ToString().c_str());
      return 1;
    }
    const int reps = m <= 8 ? 3 : 1;
    double cegar_ns =
        TimeEngine(*inst, &interner, ContainmentStrategy::kCegar, reps);
    if (cegar_ns < 0) return 1;
    std::string suffix = "_m" + std::to_string(m);
    metrics.push_back({"cegar_ns" + suffix, cegar_ns, "ns", false});
    if (m > scan_max) {
      std::printf("m=%-2d  cegar %10.3f ms   scan (skipped)\n", m,
                  cegar_ns / 1e6);
      continue;
    }
    double scan_ns =
        TimeEngine(*inst, &interner, ContainmentStrategy::kScan, reps);
    if (scan_ns < 0) return 1;
    metrics.push_back({"scan_ns" + suffix, scan_ns, "ns", false});
    std::printf("m=%-2d  cegar %10.3f ms   scan %10.3f ms   ratio %.2fx\n",
                m, cegar_ns / 1e6, scan_ns / 1e6, scan_ns / cegar_ns);
    if (crossover_m == 0 && cegar_ns < scan_ns) crossover_m = m;
    if (m >= 10) {
      bar_measured = true;
      if (cegar_ns >= scan_ns) bar_met = false;
    }
  }

  // The crossover point itself (sentinel past the sweep when cegar never
  // won) and the m>=10 acceptance bar as a gateable boolean.
  if (crossover_m == 0) crossover_m = scan_max + 1;
  std::printf("crossover: cegar faster from m=%d\n", crossover_m);
  metrics.push_back({"crossover_m", static_cast<double>(crossover_m),
                     "forall_vars", false});
  metrics.push_back({"cegar_faster_at_10plus",
                     bar_measured && bar_met ? 1.0 : 0.0, "bool", true});

  if (!bench::WriteBenchJson("BENCH_pi2p_reduction.json", "pi2p_reduction",
                             metrics)) {
    return 1;
  }
  // Full-scale acceptance bar: scan must lose everywhere it can still be
  // run at all. (Smoke runs report the boolean metric instead — the
  // committed baseline plus bench_compare gate it in CI.)
  if (!smoke && (!bar_measured || !bar_met)) {
    std::fprintf(stderr, "FAIL: cegar not strictly faster at every m>=10\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace relcont

int main() { return relcont::Main(); }

// The traced breakdown, measured from outside the program: after each
// request the service under test answered, the tracer re-issues the same
// work as separate calls into each module's public functions and times
// them. Nothing inside src/ is instrumented.
//
//   * A shadow ContainmentService ("B") receives the same sequence of
//     decisions, plans and catalog writes, so its caches hit and miss
//     exactly where the service under test did. On it the tracer times
//     ContainmentService::CacheKey, DecisionCache::Lookup,
//     ContainmentService::Decide, Planner::Plan,
//     ServiceMetrics::RecordRequest/RecordFlight and
//     CatalogRegistry::Register, and reads its worker arena's interner.
//   * On its own interner it times ParseProgram, CanonicalProgramFingerprint,
//     and, for requests the service answered from scratch,
//     DecideRelativeContainment, InvertViews, MaximallyContainedPlan,
//     UnfoldToUnion, ExecutablePlan and MaterializeCatalog (once per
//     distinct question; a repeated miss reuses the first measurement).
//   * Scrape steps time Snapshot + RenderPrometheusText / RenderStatuszJson
//     on the service under test.
#ifndef SERVEBENCH_TRACER_H_
#define SERVEBENCH_TRACER_H_

#include <array>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "script.h"
#include "service/service.h"
#include "stats.h"

namespace servebench {

class Tracer {
 public:
  /// With `shadow_only`, only the shadow service's calls are made (same
  /// order, no timing of library layers): the count replay that checks
  /// the shadow's exact counts repeat.
  Tracer(const Script* script, bool shadow_only);
  ~Tracer();

  /// Mirrors the set-up (initial catalogs and warm-up) into the shadow.
  void Setup();
  /// The service under test, for render timings of scrape steps.
  void Attach(relcont::ContainmentService* service) { service_ = service; }
  /// One step the service under test answered with `first_line` after
  /// `handle_line_us` (ignored for scrapes and reconnects).
  void OnStep(const Step& step, double handle_line_us,
              const std::string& first_line);

  /// Sets up and replays the whole script on the shadow alone (with
  /// `shadow_only`): the second run the determinism check compares.
  void ReplayShadow();

  /// Counts that must repeat between two replays (the shadow's interner
  /// and cache).
  ExactCounts ShadowCounts() const;
  /// Per-layer metrics; `tcp_latency_us` holds the TCP latencies of the
  /// same steps (empty for in-process workloads).
  void Report(const std::vector<double>& tcp_latency_us,
              Metrics* out) const;

 private:
  struct Library;

  void Contained(const Step& step, double handle_line_us, double service_us,
                 bool hit);
  void Plan(const Step& step, double handle_line_us, double service_us,
            bool hit);
  /// Times InvertViews, MaximallyContainedPlan and UnfoldToUnion of
  /// `query` over `views`; returns plan + unfold time.
  double TimeUcqPlan(const relcont::GoalQuery& query,
                     const relcont::ViewSet& views);
  void CatalogWrite(const Step& step, double handle_line_us);
  void Scrape(const Step& step);
  void NoteInterner();

  const Script* script_;
  bool shadow_only_;
  relcont::ContainmentService shadow_;
  relcont::WorkerContext shadow_ctx_;
  relcont::PlannerContext shadow_planner_ctx_;
  relcont::ContainmentService* service_ = nullptr;
  std::unique_ptr<Library> library_;

  std::map<std::string, LayerTime> layers_;
  std::vector<double> handle_line_us_;
  /// Requests seen, and hits as the service under test / the shadow
  /// reported them.
  uint64_t contained_ = 0, contained_hits_ = 0, shadow_hits_ = 0;
  uint64_t plans_ = 0, plan_hits_ = 0, shadow_plan_hits_ = 0;
  int64_t interner_before_ = 0;
  int64_t interner_size_max_ = 0;
  uint64_t interner_growth_ = 0;
  std::array<uint64_t, kNumCounterIndices> counters_{};
  std::map<std::string, uint64_t> regime_counts_;
  /// Library-level time of each question answered from scratch, measured
  /// the first time and reused when the question misses again (churn_tcp
  /// repeats every question once per catalog cycle).
  std::map<int, double> library_us_;
  /// Shares of handle_line time, in microseconds per layer.
  std::map<std::string, double> share_us_;
};

}  // namespace servebench

#endif  // SERVEBENCH_TRACER_H_

// Randomized differential testing of the plan service: for seeded random
// path-view catalogs (the Section 4 binding-pattern fragment and the
// pattern-free local-as-view fragment), the plan a live ServerSession
// serves over PLAN? must equal the plan the library produces when called
// directly — compared by canonical fingerprint after re-parsing both
// renderings in fresh interners, so worker-arena symbol state cannot mask
// or manufacture a difference.
//
// Every failure message carries the seed; replay one case with
//   RELCONT_PLAN_DIFF_SEED=<seed> ./build/tests/plan_differential_test
// and scale the sweep with RELCONT_PLAN_DIFF_CASES=<n>.

#include <cstdlib>
#include <functional>
#include <optional>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "binding/dom_plan.h"
#include "common/budget.h"
#include "containment/canonical.h"
#include "datalog/parser.h"
#include "relcont/decide.h"
#include "relcont/workload.h"
#include "rewriting/inverse_rules.h"
#include "service/catalog.h"
#include "service/protocol.h"
#include "service/service.h"

namespace relcont {
namespace {

int CasesFromEnv() {
  const char* env = std::getenv("RELCONT_PLAN_DIFF_CASES");
  if (env == nullptr || *env == '\0') return 200;
  int cases = std::atoi(env);
  return cases > 0 ? cases : 200;
}

std::optional<uint64_t> ReplaySeedFromEnv() {
  const char* env = std::getenv("RELCONT_PLAN_DIFF_SEED");
  if (env == nullptr || *env == '\0') return std::nullopt;
  return std::strtoull(env, nullptr, 10);
}

std::string ReplayHint(uint64_t seed) {
  return "replay: RELCONT_PLAN_DIFF_SEED=" + std::to_string(seed) +
         " ./build/tests/plan_differential_test";
}

void ForEachCase(const std::function<void(uint64_t)>& run) {
  if (std::optional<uint64_t> replay = ReplaySeedFromEnv()) {
    run(*replay);
    return;
  }
  int cases = CasesFromEnv();
  for (int i = 0; i < cases; ++i) run(static_cast<uint64_t>(i));
}

/// Fingerprint of rendered plan text, computed in a throwaway interner:
/// renaming- and rule-order-invariant, cross-interner comparable.
std::string PlanFingerprint(const std::string& plan_text, uint64_t seed) {
  Interner interner;
  Result<Program> parsed = ParseProgram(plan_text, &interner);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n"
                           << plan_text << "\n"
                           << ReplayHint(seed);
  if (!parsed.ok()) return "<unparseable>";
  return CanonicalProgramFingerprint(*parsed, interner.Intern("q"),
                                     interner);
}

PathViewOptions CaseOptions(uint64_t seed) {
  PathViewOptions options;
  options.num_views = 3 + static_cast<int>(seed % 6);
  options.num_relations = 3;
  options.min_length = 1;
  options.max_length = 3;
  options.query_length = 2;
  // Every third case is pattern-free so the sweep covers both plan
  // regimes: the recursive dom plan and the UCQ-over-sources plan.
  options.bound_probability = (seed % 3 == 0) ? 0.0 : 0.8;
  options.seed = seed * 2654435761ULL + 17;
  return options;
}

TEST(PlanDifferentialTest, ServedPlanMatchesLibraryPlan) {
  int recursive_cases = 0, ucq_cases = 0, skipped = 0;
  ForEachCase([&](uint64_t seed) {
    PathViewOptions options = CaseOptions(seed);
    PathViewWorkload workload = MakePathViewWorkload(options);

    // Library side: materialize the same catalog into a private interner
    // and build the plan by direct calls, mirroring planner.cc's dispatch.
    Interner lib;
    CatalogSpec spec;
    spec.name = "c";
    spec.version = 1;
    spec.views_text = workload.views_text;
    spec.patterns = workload.patterns;
    Result<MaterializedCatalog> catalog = MaterializeCatalog(spec, &lib);
    ASSERT_TRUE(catalog.ok()) << catalog.status().ToString() << "\n"
                              << ReplayHint(seed);
    Result<Program> query = ParseProgram(workload.query_text, &lib);
    ASSERT_TRUE(query.ok()) << ReplayHint(seed);
    SymbolId goal = query->rules[0].head.predicate;

    std::string library_plan;
    Status library_status = Status::OK();
    if (!catalog->patterns.empty()) {
      Result<ExecutablePlanResult> plan =
          ExecutablePlan(*query, catalog->views, catalog->patterns, &lib);
      if (plan.ok()) {
        library_plan = plan->program.ToString(lib);
      } else {
        library_status = plan.status();
      }
    } else {
      // The default step budget the served request runs under.
      WorkBudget budget;
      budget.set_max_steps(DecideOptions::kDefaultMaxSteps);
      BudgetScope scope(&budget);
      Status plannable = CheckPlannableQuery(*query, catalog->views);
      ASSERT_TRUE(plannable.ok()) << plannable.ToString() << "\n"
                                  << ReplayHint(seed);
      Result<UnionQuery> ucq = UnionPlan(*query, goal, catalog->views, &lib);
      if (ucq.ok()) {
        library_plan = ucq->ToString(lib);
      } else {
        library_status = ucq.status();
      }
    }

    // Served side: the same catalog registered by name, the same query
    // DEFINEd, and the plan requested through the protocol layer.
    ContainmentService service;
    Result<int64_t> version = service.catalogs().Register(
        "c", workload.views_text, workload.patterns);
    ASSERT_TRUE(version.ok()) << ReplayHint(seed);
    ServerSession session(&service);
    ASSERT_EQ(session.HandleLine("DEFINE q " + workload.query_text),
              "OK query q rules=1\n")
        << ReplayHint(seed);
    std::string served = session.HandleLine("PLAN? q @c");

    if (!library_status.ok()) {
      // Library-side bounds (e.g. the step budget on a fan-out-heavy
      // catalog) must surface identically through the service.
      EXPECT_EQ(served.rfind("ERR [id=", 0), 0u)
          << served << "\n"
          << ReplayHint(seed);
      EXPECT_NE(served.find(library_status.ToString()), std::string::npos)
          << served << "\n"
          << ReplayHint(seed);
      ++skipped;
      return;
    }
    ASSERT_EQ(served.rfind("OK plan catalog=c v1 ", 0), 0u)
        << served << "\n"
        << ReplayHint(seed);
    std::string served_plan = served.substr(served.find('\n') + 1);
    EXPECT_EQ(PlanFingerprint(served_plan, seed),
              PlanFingerprint(library_plan, seed))
        << "served:\n"
        << served_plan << "library:\n"
        << library_plan << ReplayHint(seed);
    if (catalog->patterns.empty()) {
      ++ucq_cases;
    } else {
      ++recursive_cases;
    }
  });
  RecordProperty("recursive_cases", recursive_cases);
  RecordProperty("ucq_cases", ucq_cases);
  RecordProperty("skipped", skipped);
  // The sweep must exercise both plan regimes, not degenerate skips.
  if (ReplaySeedFromEnv() == std::nullopt) {
    EXPECT_GT(recursive_cases, 0);
    EXPECT_GT(ucq_cases, 0);
  }
}

}  // namespace
}  // namespace relcont

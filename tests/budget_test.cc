// Unit tests for the cooperative work budget (common/budget.h), the
// parallel scan built on it (common/parallel.h), and the unified
// kBoundReached surface the budget gives every search in the library:
// exhaustion never changes an answer, it only turns a truncated search
// into "bound reached [<site>]: ..." instead of a verdict.

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <limits>
#include <string>
#include <string_view>
#include <thread>

#include <gtest/gtest.h>

#include "common/budget.h"
#include "common/parallel.h"
#include "constraints/order_constraints.h"
#include "datalog/parser.h"
#include "eval/evaluator.h"
#include "planner/planner.h"
#include "relcont/decide.h"
#include "relcont/pi2p_reduction.h"
#include "service/service.h"

namespace relcont {
namespace {

// ---------------------------------------------------------------------------
// WorkBudget semantics.
// ---------------------------------------------------------------------------

TEST(WorkBudgetTest, UnlimitedBudgetNeverExhausts) {
  WorkBudget budget;
  for (int i = 0; i < 10'000; ++i) EXPECT_TRUE(budget.Charge());
  EXPECT_FALSE(budget.Exhausted());
  EXPECT_EQ(budget.reason(), BudgetReason::kNone);
  EXPECT_EQ(budget.steps_used(), 10'000);
}

TEST(WorkBudgetTest, StepBudgetTripsAtCapAndIsSticky) {
  WorkBudget budget;
  budget.set_max_steps(10);
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(budget.Charge()) << i;
  EXPECT_FALSE(budget.Charge());
  EXPECT_TRUE(budget.Exhausted());
  EXPECT_EQ(budget.reason(), BudgetReason::kSteps);
  // Sticky: once tripped, every further charge fails.
  EXPECT_FALSE(budget.Charge());
}

TEST(WorkBudgetTest, PastDeadlineTripsOnFirstCharge) {
  WorkBudget budget;
  budget.set_deadline(std::chrono::steady_clock::now() -
                      std::chrono::milliseconds(1));
  // The very first charge reads the clock (no stride warm-up needed).
  EXPECT_FALSE(budget.Charge());
  EXPECT_EQ(budget.reason(), BudgetReason::kDeadline);
}

TEST(WorkBudgetTest, DeadlineIsCheckedWithinOneStride) {
  WorkBudget budget;
  budget.set_timeout(std::chrono::milliseconds(5));
  uint64_t charges = 0;
  // A 5 ms deadline must surface in well under a second of charging.
  auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (budget.Charge()) {
    ++charges;
    if (std::chrono::steady_clock::now() > give_up) {
      FAIL() << "deadline never tripped after " << charges << " charges";
    }
  }
  EXPECT_EQ(budget.reason(), BudgetReason::kDeadline);
}

TEST(WorkBudgetTest, HugeTimeoutSaturatesInsteadOfWrapping) {
  // now() + 2^63-1 ms does not fit steady_clock's signed nanoseconds; the
  // deadline saturates at the clock's end rather than wrapping into the
  // past, so a huge timeout means "no deadline".
  WorkBudget budget;
  budget.set_timeout(std::chrono::milliseconds::max());
  for (uint64_t i = 0; i < 4 * WorkBudget::kDeadlineCheckStride; ++i) {
    ASSERT_TRUE(budget.Charge()) << i;
  }
  EXPECT_EQ(budget.reason(), BudgetReason::kNone);
}

TEST(WorkBudgetTest, CancelTripsWithCancelledReason) {
  WorkBudget budget;
  budget.Cancel();
  EXPECT_FALSE(budget.Charge());
  EXPECT_EQ(budget.reason(), BudgetReason::kCancelled);
}

TEST(WorkBudgetTest, FirstTripReasonWins) {
  WorkBudget budget;
  budget.set_max_steps(1);
  EXPECT_TRUE(budget.Charge());
  EXPECT_FALSE(budget.Charge());
  EXPECT_EQ(budget.reason(), BudgetReason::kSteps);
  budget.Cancel();  // later cancellation must not rewrite the reason
  EXPECT_EQ(budget.reason(), BudgetReason::kSteps);
}

TEST(WorkBudgetTest, RegionForwardsChargesToParent) {
  WorkBudget parent;
  parent.set_max_steps(5);
  WorkBudget region(&parent);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(region.Charge());
  // The sixth charge exhausts the parent; the region inherits its reason.
  EXPECT_FALSE(region.Charge());
  EXPECT_TRUE(parent.Exhausted());
  EXPECT_TRUE(region.Exhausted());
  EXPECT_EQ(region.reason(), BudgetReason::kSteps);
}

TEST(WorkBudgetTest, RegionCancelDoesNotTouchParent) {
  WorkBudget parent;
  WorkBudget region(&parent);
  region.Cancel();
  EXPECT_FALSE(region.Charge());
  EXPECT_FALSE(parent.Exhausted());
  EXPECT_TRUE(parent.Charge());  // the next phase of the request runs on
}

TEST(WorkBudgetTest, TaskCountersAccumulateOnRoot) {
  WorkBudget root;
  WorkBudget region(&root);
  region.NoteHelperSpawned();
  region.NoteHelperSpawned();
  region.NoteHelperCompleted();
  region.NoteHelperCompleted();
  EXPECT_EQ(root.tasks_spawned(), 2u);
  EXPECT_EQ(root.tasks_completed(), 2u);
}

TEST(WorkBudgetTest, ToStatusIsUniformBoundReached) {
  WorkBudget budget;
  budget.set_max_steps(1);
  budget.Charge();
  budget.Charge();
  Status status = budget.ToStatus("hom_search");
  EXPECT_EQ(status.code(), StatusCode::kBoundReached);
  EXPECT_NE(status.ToString().find("bound reached [hom_search]"),
            std::string::npos)
      << status.ToString();
}

// ---------------------------------------------------------------------------
// Thread-local installation (BudgetScope and the free helpers).
// ---------------------------------------------------------------------------

TEST(BudgetScopeTest, InstallsAndRestores) {
  EXPECT_EQ(CurrentBudget(), nullptr);
  WorkBudget outer;
  {
    BudgetScope outer_scope(&outer);
    EXPECT_EQ(CurrentBudget(), &outer);
    WorkBudget inner;
    {
      BudgetScope inner_scope(&inner);
      EXPECT_EQ(CurrentBudget(), &inner);
    }
    EXPECT_EQ(CurrentBudget(), &outer);
  }
  EXPECT_EQ(CurrentBudget(), nullptr);
}

TEST(BudgetScopeTest, FreeHelpersAreNoOpsWithoutBudget) {
  ASSERT_EQ(CurrentBudget(), nullptr);
  EXPECT_TRUE(BudgetCharge(1'000'000));
  EXPECT_FALSE(BudgetExhausted());
  EXPECT_TRUE(BudgetOkOrBound("nowhere").ok());
  EXPECT_TRUE(BudgetChargeOr("nowhere").ok());
}

TEST(BudgetScopeTest, BudgetOkOrBoundReflectsExhaustion) {
  WorkBudget budget;
  budget.set_max_steps(1);
  BudgetScope scope(&budget);
  EXPECT_TRUE(BudgetOkOrBound("site").ok());
  BudgetCharge(2);
  Status status = BudgetOkOrBound("site");
  EXPECT_EQ(status.code(), StatusCode::kBoundReached);
}

// ---------------------------------------------------------------------------
// ParallelScan.
// ---------------------------------------------------------------------------

TEST(ParallelScanTest, RunsEveryItemInline) {
  WorkBudget region;
  std::atomic<int> ran{0};
  ParallelScanStats stats = ParallelScan(17, /*workers=*/1, &region,
                                         [&](size_t) {
                                           ran.fetch_add(1);
                                           return true;
                                         });
  EXPECT_EQ(ran.load(), 17);
  EXPECT_EQ(stats.helpers_spawned, 0);
  EXPECT_EQ(stats.items_unfinished, 0u);
}

TEST(ParallelScanTest, RunsEveryItemExactlyOnceAcrossThreads) {
  WorkBudget region;
  constexpr size_t kItems = 200;
  std::vector<std::atomic<int>> runs(kItems);
  ParallelScanStats stats = ParallelScan(kItems, /*workers=*/4, &region,
                                         [&](size_t i) {
                                           runs[i].fetch_add(1);
                                           return true;
                                         });
  for (size_t i = 0; i < kItems; ++i) EXPECT_EQ(runs[i].load(), 1) << i;
  EXPECT_EQ(stats.items_unfinished, 0u);
  EXPECT_LE(stats.helpers_spawned, 3);
  // Pool quiescence: every announced helper was joined before return.
  EXPECT_EQ(region.tasks_spawned(), region.tasks_completed());
}

TEST(ParallelScanTest, TasksRunUnderTheRegionBudget) {
  WorkBudget region;
  std::atomic<bool> saw_region{true};
  ParallelScan(50, /*workers=*/4, &region, [&](size_t) {
    if (CurrentBudget() != &region) saw_region.store(false);
    return true;
  });
  EXPECT_TRUE(saw_region.load());
}

TEST(ParallelScanTest, EarlyExitCancelsRegion) {
  WorkBudget region;
  std::atomic<int> ran{0};
  ParallelScanStats stats = ParallelScan(1'000, /*workers=*/4, &region,
                                         [&](size_t i) {
                                           ran.fetch_add(1);
                                           return i != 3;  // "counterexample"
                                         });
  EXPECT_TRUE(region.Exhausted());
  EXPECT_EQ(region.reason(), BudgetReason::kCancelled);
  // Unclaimed items were never started.
  EXPECT_LT(ran.load(), 1'000);
  EXPECT_GT(stats.items_unfinished, 0u);
  EXPECT_EQ(region.tasks_spawned(), region.tasks_completed());
}

TEST(ParallelScanTest, ParentExhaustionStopsTheScan) {
  WorkBudget parent;
  parent.set_max_steps(10);
  WorkBudget region(&parent);
  std::atomic<int> ran{0};
  ParallelScanStats stats = ParallelScan(1'000, /*workers=*/2, &region,
                                         [&](size_t) {
                                           ran.fetch_add(1);
                                           BudgetCharge(1);
                                           return true;
                                         });
  EXPECT_TRUE(parent.Exhausted());
  EXPECT_GT(stats.items_unfinished, 0u);
  EXPECT_LT(ran.load(), 1'000);
}

// ---------------------------------------------------------------------------
// The unified bound surface: structural caps and budget exhaustion produce
// the same "bound reached [<site>]: ..." kBoundReached status.
// ---------------------------------------------------------------------------

TEST(UnifiedBoundTest, EvaluatorMaxFactsUsesBoundReachedFormat) {
  Interner interner;
  Result<Program> p =
      ParseProgram("q(X, Y) :- e(X, Y).\nq(X, Z) :- q(X, Y), e(Y, Z).",
                   &interner);
  ASSERT_TRUE(p.ok());
  Result<Database> db = ParseDatabase(
      "e(1, 2). e(2, 3). e(3, 4). e(4, 5). e(5, 1).", &interner);
  ASSERT_TRUE(db.ok());
  EvalOptions options;
  options.max_facts = 3;
  Result<EvalResult> r = Evaluate(*p, *db, options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kBoundReached);
  EXPECT_NE(r.status().ToString().find("bound reached [eval]"),
            std::string::npos)
      << r.status().ToString();
}

TEST(UnifiedBoundTest, StepBudgetTurnsDecisionIntoBoundReached) {
  Interner interner;
  QbfFormula f = RandomQbf(/*num_exists=*/2, /*num_forall=*/3,
                           /*num_clauses=*/3, /*seed=*/7);
  Result<Pi2pInstance> inst = BuildPi2pReduction(f, &interner);
  ASSERT_TRUE(inst.ok());
  DecideOptions options;
  options.max_steps = 4;  // far below what the Π₂ᴾ check needs
  Result<Decision> d = DecideRelativeContainment(
      inst->q2, inst->q1, inst->views, {}, &interner, options);
  ASSERT_FALSE(d.ok());
  EXPECT_EQ(d.status().code(), StatusCode::kBoundReached);
  EXPECT_NE(d.status().ToString().find("bound reached ["), std::string::npos)
      << d.status().ToString();
  EXPECT_NE(d.status().ToString().find("step budget exhausted"),
            std::string::npos)
      << d.status().ToString();
}

TEST(UnifiedBoundTest, ExpiredDeadlineTurnsDecisionIntoBoundReached) {
  Interner interner;
  QbfFormula f = RandomQbf(/*num_exists=*/2, /*num_forall=*/3,
                           /*num_clauses=*/3, /*seed=*/11);
  Result<Pi2pInstance> inst = BuildPi2pReduction(f, &interner);
  ASSERT_TRUE(inst.ok());
  // An already-expired deadline: the decision must stop at its first
  // budget probe and answer kBoundReached, never a fabricated verdict.
  WorkBudget budget;
  budget.set_deadline(std::chrono::steady_clock::now() -
                      std::chrono::milliseconds(1));
  BudgetScope scope(&budget);
  Result<Decision> d = DecideRelativeContainment(
      inst->q2, inst->q1, inst->views, {}, &interner, {});
  ASSERT_FALSE(d.ok());
  EXPECT_EQ(d.status().code(), StatusCode::kBoundReached);
  EXPECT_NE(d.status().ToString().find("deadline exceeded"),
            std::string::npos)
      << d.status().ToString();
  EXPECT_EQ(budget.reason(), BudgetReason::kDeadline);
}

TEST(UnifiedBoundTest, VerdictsAreBudgetIndependent) {
  // The library's soundness contract: adding a (sufficient) budget never
  // changes a verdict — it can only turn one into kBoundReached.
  Interner interner;
  QbfFormula f = RandomQbf(/*num_exists=*/2, /*num_forall=*/2,
                           /*num_clauses=*/3, /*seed=*/3);
  Result<Pi2pInstance> inst = BuildPi2pReduction(f, &interner);
  ASSERT_TRUE(inst.ok());
  Result<Decision> unbounded = DecideRelativeContainment(
      inst->q2, inst->q1, inst->views, {}, &interner, {});
  ASSERT_TRUE(unbounded.ok()) << unbounded.status().ToString();
  DecideOptions generous;
  generous.max_steps = 100'000'000;
  generous.timeout_ms = 60'000;
  Result<Decision> bounded = DecideRelativeContainment(
      inst->q2, inst->q1, inst->views, {}, &interner, generous);
  ASSERT_TRUE(bounded.ok()) << bounded.status().ToString();
  EXPECT_EQ(bounded->contained, unbounded->contained);
  // A timeout past the clock's range is no deadline, not a wrapped one.
  DecideOptions huge;
  huge.timeout_ms = std::numeric_limits<int64_t>::max();
  Result<Decision> saturated = DecideRelativeContainment(
      inst->q2, inst->q1, inst->views, {}, &interner, huge);
  ASSERT_TRUE(saturated.ok()) << saturated.status().ToString();
  EXPECT_EQ(saturated->contained, unbounded->contained);
}

// ---------------------------------------------------------------------------
// Bound-site attribution: every minted kBoundReached status also bumps its
// site's counter in the process-global registry (BoundSiteCounts), so the
// telemetry can say *where* budgets die. The registry is cumulative across
// the process, so every assertion below is a delta.
// ---------------------------------------------------------------------------

uint64_t SiteCount(std::string_view site) {
  for (const auto& [name, count] : BoundSiteCounts()) {
    if (name == site) return count;
  }
  return 0;
}

TEST(BoundSiteAttributionTest, LinearizationDfsTripIsAttributed) {
  const uint64_t before = SiteCount("linearization_dfs");
  Interner interner;
  OrderConstraints oc;
  ASSERT_TRUE(oc.AddPoint(Term::Var(interner.Intern("A"))).ok());
  ASSERT_TRUE(oc.AddPoint(Term::Var(interner.Intern("B"))).ok());
  ASSERT_TRUE(oc.AddPoint(Term::Var(interner.Intern("C"))).ok());
  WorkBudget budget;
  budget.set_max_steps(1);
  budget.Charge();
  budget.Charge();  // exhausted: the DFS dies at its first node
  BudgetScope scope(&budget);
  Status status =
      oc.ForEachLinearization([](const Linearization&) { return true; });
  ASSERT_EQ(status.code(), StatusCode::kBoundReached);
  EXPECT_NE(status.ToString().find("[linearization_dfs]"),
            std::string::npos)
      << status.ToString();
  EXPECT_EQ(SiteCount("linearization_dfs"), before + 1);
}

TEST(BoundSiteAttributionTest, DisjunctScanTripIsAttributed) {
  // A budget that dies *during* the parallel disjunct scan — after plan
  // construction, before the scan completes — mints [containment_check].
  // The right step cap depends on plan sizes, so sweep upward until the
  // trip lands in the scan window.
  const uint64_t before = SiteCount("containment_check");
  Interner interner;
  QbfFormula f = RandomQbf(/*num_exists=*/2, /*num_forall=*/3,
                           /*num_clauses=*/3, /*seed=*/7);
  Result<Pi2pInstance> inst = BuildPi2pReduction(f, &interner);
  ASSERT_TRUE(inst.ok());
  bool tripped = false;
  for (int64_t steps = 1; steps <= 5000 && !tripped; ++steps) {
    DecideOptions options;
    options.max_steps = steps;
    options.parallel_workers = 2;
    Result<Decision> d = DecideRelativeContainment(
        inst->q2, inst->q1, inst->views, {}, &interner, options);
    if (d.ok()) break;  // enough budget: no later cap can trip mid-scan
    if (d.status().ToString().find("[containment_check]") !=
        std::string::npos) {
      tripped = true;
    }
  }
  ASSERT_TRUE(tripped) << "no step cap tripped inside the disjunct scan";
  EXPECT_GT(SiteCount("containment_check"), before);
}

TEST(BoundSiteAttributionTest, PlannerTripIsAttributed) {
  const uint64_t before = SiteCount("planner_plan");
  Interner gen;
  QbfFormula f = RandomQbf(/*num_exists=*/2, /*num_forall=*/3,
                           /*num_clauses=*/3, /*seed=*/7);
  Result<Pi2pInstance> inst = BuildPi2pReduction(f, &gen);
  ASSERT_TRUE(inst.ok());
  std::string views_text;
  for (const ViewDefinition& v : inst->views.views()) {
    views_text += v.rule.ToString(gen);
    views_text += '\n';
  }
  std::string query_text;
  for (const Rule& r : inst->q2.program.rules) {
    query_text += r.ToString(gen);
    query_text += '\n';
  }

  ContainmentService service;
  ASSERT_TRUE(service.catalogs().Register("qbf", views_text).ok());
  WorkerContext ctx;
  PlanRequest request;
  request.query_text = query_text;
  request.catalog = "qbf";
  request.options.max_steps = 1;
  PlanResponse response = service.planner().Plan(request, &ctx);
  ASSERT_EQ(response.status.code(), StatusCode::kBoundReached)
      << response.status.ToString();
  // The planner attributes the whole bound request to its own aggregate
  // site on top of whatever inner site minted the status.
  EXPECT_EQ(SiteCount("planner_plan"), before + 1);
}

TEST(UnifiedBoundTest, ParallelWorkersPreserveTheVerdict) {
  for (uint64_t seed = 0; seed < 8; ++seed) {
    Interner interner;
    QbfFormula f = RandomQbf(/*num_exists=*/2, /*num_forall=*/3,
                             /*num_clauses=*/3, seed);
    Result<Pi2pInstance> inst = BuildPi2pReduction(f, &interner);
    ASSERT_TRUE(inst.ok());
    Result<Decision> serial = DecideRelativeContainment(
        inst->q2, inst->q1, inst->views, {}, &interner, {});
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    DecideOptions parallel;
    parallel.parallel_workers = 4;
    Result<Decision> fanned = DecideRelativeContainment(
        inst->q2, inst->q1, inst->views, {}, &interner, parallel);
    ASSERT_TRUE(fanned.ok()) << fanned.status().ToString();
    EXPECT_EQ(fanned->contained, serial->contained) << "seed " << seed;
  }
}

}  // namespace
}  // namespace relcont

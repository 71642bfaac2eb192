// Unit tests for the cooperative work budget (common/budget.h) and the
// unified kBoundReached surface the budget gives every search in the
// library: exhaustion never changes an answer, it only turns a truncated
// search into "bound reached [<site>]: ..." instead of a verdict.

#include <chrono>
#include <cstdlib>
#include <functional>
#include <limits>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "binding/dom_containment.h"
#include "common/budget.h"
#include "constraints/order_constraints.h"
#include "containment/expansion.h"
#include "datalog/parser.h"
#include "datalog/unfold.h"
#include "eval/evaluator.h"
#include "planner/planner.h"
#include "relcont/decide.h"
#include "relcont/pi2p_reduction.h"
#include "service/protocol.h"
#include "service/service.h"
#include "trace/trace.h"

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

TEST(WorkBudgetTest, FirstTripReasonWins) {
  WorkBudget budget;
  budget.set_max_steps(1);
  EXPECT_TRUE(budget.Charge());
  EXPECT_FALSE(budget.Charge());
  EXPECT_EQ(budget.reason(), BudgetReason::kSteps);
  // A deadline that has passed since must not rewrite the reason.
  budget.set_deadline(std::chrono::steady_clock::now() -
                      std::chrono::milliseconds(1));
  EXPECT_FALSE(budget.Charge());
  EXPECT_EQ(budget.reason(), BudgetReason::kSteps);
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
// The unified bound surface: every search charges the one installed budget
// at its own site, and exhaustion produces the same
// "bound reached [<site>]: ..." kBoundReached status.
// ---------------------------------------------------------------------------

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

// No input runs unbounded: a Π₂ᴾ instance with 18 universal variables (a
// 2^18-disjunct plan, far past the default step budget) answers
// kBoundReached through default DecideOptions and through a CONTAINED?
// request that sets no option — promptly, not after the full search.
TEST(UnifiedBoundTest, DefaultBudgetBoundsEveryFrontDoorDecision) {
  Interner interner;
  QbfFormula f = RandomQbf(/*num_exists=*/3, /*num_forall=*/18,
                           /*num_clauses=*/4, /*seed=*/25);
  // ∀∃-true, so the plans are contained and no early counterexample can
  // end the search.
  ASSERT_TRUE(ForallExistsSatisfiable(f));
  Result<Pi2pInstance> inst = BuildPi2pReduction(f, &interner);
  ASSERT_TRUE(inst.ok());
  Result<Decision> d = DecideRelativeContainment(
      inst->q2, inst->q1, inst->views, {}, &interner, {});
  ASSERT_EQ(d.status().code(), StatusCode::kBoundReached)
      << d.status().ToString();
  EXPECT_NE(d.status().ToString().find("step budget exhausted"),
            std::string::npos)
      << d.status().ToString();

  auto render = [&](const std::vector<Rule>& rules) {
    std::string text;
    for (const Rule& r : rules) text += r.ToString(interner) + " ";
    return text;
  };
  std::string views_text;
  for (const ViewDefinition& v : inst->views.views()) {
    views_text += "VIEW " + v.rule.ToString(interner) + " ";
  }
  ContainmentService service;
  ServerSession session(&service);
  ASSERT_EQ(session.HandleLine("CATALOG qbf " + views_text).rfind("OK", 0),
            0u);
  ASSERT_EQ(session.HandleLine("DEFINE a " + render(inst->q2.program.rules))
                .rfind("OK", 0),
            0u);
  ASSERT_EQ(session.HandleLine("DEFINE b " + render(inst->q1.program.rules))
                .rfind("OK", 0),
            0u);
  std::string out = session.HandleLine("CONTAINED? a b @qbf");
  EXPECT_EQ(out.rfind("ERR", 0), 0u) << out;
  EXPECT_NE(out.find("BoundReached: bound reached ["), std::string::npos)
      << out;
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

// One row per search that charges the budget at a site of its own. Each
// row's work is sized so that a small step cap trips inside it; the cap
// that lands the trip on the row's site depends on how many steps the
// earlier phases charge, so the test sweeps the cap upward until it does.
TEST(BoundSiteAttributionTest, EveryEffortSiteBoundsAtItsOwnName) {
  struct Row {
    const char* site;
    std::function<Status(Interner*)> run;
  };
  auto parse = [](const char* text, Interner* interner) {
    Result<Program> p = ParseProgram(text, interner);
    EXPECT_TRUE(p.ok()) << p.status().ToString();
    return p.ok() ? *p : Program();
  };
  // A dom plan whose every expansion is contained, so neither the tree
  // saturation nor the sweep over cores stops early.
  auto dom_plan = [&](Interner* interner) {
    Program plan = parse(
        "q(X) :- dom(X), r(X).\n"
        "dom(a).\n"
        "dom(Y) :- dom(X), e(X, Y).\n",
        interner);
    UnionQuery ucq;
    ucq.disjuncts = parse("q2(X) :- r(X).", interner).rules;
    return DomPlanContainedInUcq(plan, interner->Intern("q"),
                                 interner->Intern("dom"), ucq, interner)
        .status();
  };
  const std::vector<Row> rows = {
      {"unfold",
       [&](Interner* interner) {
         Program p = parse(
             "q(X) :- a(X), a(X), a(X), a(X).\n"
             "a(X) :- b(X).\n"
             "a(X) :- c(X).\n",
             interner);
         return UnfoldToUnion(p, interner->Intern("q"), interner).status();
       }},
      {"eval",
       [&](Interner* interner) {
         Program p = parse(
             "q(X, Y) :- e(X, Y).\nq(X, Z) :- q(X, Y), e(Y, Z).", interner);
         Result<Database> db = ParseDatabase(
             "e(1, 2). e(2, 3). e(3, 4). e(4, 5). e(5, 1).", interner);
         EXPECT_TRUE(db.ok());
         return Evaluate(p, *db).status();
       }},
      {"expansion",
       [&](Interner* interner) {
         // Infinitely many expansions, each contained in q2.
         Program p = parse("p(X) :- e(X).\np(X) :- p(X).", interner);
         UnionQuery ucq;
         ucq.disjuncts = parse("q2(X) :- e(X).", interner).rules;
         return DatalogContainedInUcqBounded(p, interner->Intern("p"), ucq,
                                             interner, ExpansionOptions{})
             .status();
       }},
      {"dom_saturation", dom_plan},
      {"dom_check_cores", dom_plan},
      {"linearization_dfs",
       [](Interner* interner) {
         OrderConstraints oc;
         for (const char* name : {"A", "B", "C"}) {
           Status added = oc.AddPoint(Term::Var(interner->Intern(name)));
           if (!added.ok()) return added;
         }
         return oc.ForEachLinearization(
             [](const Linearization&) { return true; });
       }},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(row.site);
    const std::string tag = std::string("bound reached [") + row.site + "]";
    bool tripped = false;
    for (int64_t steps = 1; steps <= 1000 && !tripped; ++steps) {
      const uint64_t before = SiteCount(row.site);
      Interner interner;
      WorkBudget budget;
      budget.set_max_steps(steps);
      BudgetScope scope(&budget);
      Status status = row.run(&interner);
      if (status.ok()) break;  // the cap passed the site without a trip
      ASSERT_EQ(status.code(), StatusCode::kBoundReached)
          << status.ToString();
      if (status.ToString().find(tag) != std::string::npos) {
        tripped = true;
        EXPECT_EQ(SiteCount(row.site), before + 1);
      }
    }
    EXPECT_TRUE(tripped) << "no step cap tripped at " << row.site;
  }
}

TEST(BoundSiteAttributionTest, DisjunctScanTripIsAttributed) {
  // A budget that dies *during* the disjunct scan — after plan
  // construction, before the scan completes — is attributed to the
  // disjunct check that observed it, [cq_union_containment]. The right
  // step cap depends on plan sizes, so sweep upward until the trip lands
  // in the scan window.
  const uint64_t before = SiteCount("cq_union_containment");
  Interner interner;
  QbfFormula f = RandomQbf(/*num_exists=*/2, /*num_forall=*/3,
                           /*num_clauses=*/3, /*seed=*/7);
  Result<Pi2pInstance> inst = BuildPi2pReduction(f, &interner);
  ASSERT_TRUE(inst.ok());
  bool tripped = false;
  for (int64_t steps = 1; steps <= 5000 && !tripped; ++steps) {
    DecideOptions options;
    options.max_steps = steps;
    Result<Decision> d = DecideRelativeContainment(
        inst->q2, inst->q1, inst->views, {}, &interner, options);
    if (d.ok()) break;  // enough budget: no later cap can trip mid-scan
    if (d.status().ToString().find("[cq_union_containment]") !=
        std::string::npos) {
      tripped = true;
    }
  }
  ASSERT_TRUE(tripped) << "no step cap tripped inside the disjunct scan";
  EXPECT_GT(SiteCount("cq_union_containment"), before);
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

}  // namespace
}  // namespace relcont

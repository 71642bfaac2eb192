#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "containment/comparison_containment.h"
#include "containment/cq_containment.h"
#include "datalog/parser.h"
#include "datalog/substitution.h"
#include "relcont/relative_containment.h"
#include "rewriting/comparison_plans.h"

namespace relcont {
namespace {

// The full mediated schema and sources of paper Example 1.
constexpr char kCarViews[] = R"(
  redcars(CarNo, Model, Year) :- cardesc(CarNo, Model, red, Year).
  antiquecars(CarNo, Model, Year) :-
      cardesc(CarNo, Model, Color, Year), Year < 1970.
  caranddriver(Model, Review) :- review(Model, Review, 10).
)";

constexpr char kQ1[] =
    "q1(CarNo, Review) :- cardesc(CarNo, Model, C, Y), "
    "review(Model, Review, Rating).";
constexpr char kQ2[] =
    "q2(CarNo, Review) :- cardesc(CarNo, Model, C, Y), "
    "review(Model, Review, 10).";
constexpr char kQ3[] =
    "q3(CarNo, Review) :- cardesc(CarNo, Model, C, Y), "
    "review(Model, Review, 10), Y < 1970.";

/// Every stored head projection of `views` equals one computed afresh,
/// both from the view's rule and from a renamed-apart copy mapped back
/// position by position (what AugmentWithViewConstraints relies on).
void ExpectStoredProjectionsFresh(const ViewSet& views, Interner* interner) {
  for (size_t i = 0; i < views.size(); ++i) {
    const Rule& rule = views.views()[i].rule;
    SCOPED_TRACE(rule.ToString(*interner));
    const Result<std::vector<Comparison>>& stored =
        ProjectViewConstraintsToHead(views, i);
    if (rule.comparisons.empty()) {
      ASSERT_TRUE(stored.ok());
      EXPECT_TRUE(stored->empty());
      continue;
    }
    Result<std::vector<Comparison>> fresh = ProjectConstraintsToHead(rule);
    Rule renamed = RenameApart(rule, interner);
    Result<std::vector<Comparison>> via_renamed =
        ProjectConstraintsToHead(renamed);
    ASSERT_EQ(stored.ok(), fresh.ok());
    ASSERT_EQ(stored.ok(), via_renamed.ok());
    if (!stored.ok()) {
      EXPECT_EQ(stored.status().ToString(), fresh.status().ToString());
      EXPECT_EQ(stored.status().ToString(), via_renamed.status().ToString());
      continue;
    }
    EXPECT_EQ(*stored, *fresh);
    Substitution back;
    for (size_t k = 0; k < rule.head.args.size(); ++k) {
      const Term& v = renamed.head.args[k];
      if (v.is_variable() && !back.Contains(v.symbol())) {
        back.Bind(v.symbol(), rule.head.args[k]);
      }
    }
    std::vector<Comparison> mapped;
    for (const Comparison& c : *via_renamed) {
      mapped.push_back(back.ApplyOnce(c));
    }
    EXPECT_EQ(*stored, mapped);
  }
}

class ComparisonPlansTest : public ::testing::Test {
 protected:
  /// Parses `text` into a catalog whose stored projections are checked
  /// against fresh ones, so every catalog of this suite is covered.
  ViewSet V(const std::string& text) {
    Result<ViewSet> v = ParseViews(text, &interner_);
    EXPECT_TRUE(v.ok()) << v.status().ToString();
    ExpectStoredProjectionsFresh(*v, &interner_);
    return *v;
  }
  GoalQuery GQ(const std::string& text, const char* goal) {
    Result<Program> p = ParseProgram(text, &interner_);
    EXPECT_TRUE(p.ok()) << p.status().ToString();
    return GoalQuery{*p, S(goal)};
  }
  SymbolId S(const char* name) { return interner_.Intern(name); }

  bool ContainedCmp(const GoalQuery& a, const GoalQuery& b,
                    const ViewSet& views) {
    Result<RelativeContainmentResult> r =
        RelativelyContainedWithComparisons(a, b, views, &interner_);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r->contained;
  }
  bool ContainedExp(const GoalQuery& a, const GoalQuery& b,
                    const ViewSet& views) {
    Result<bool> r =
        RelativelyContainedViaExpansion(a, b, views, &interner_);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return *r;
  }

  Interner interner_;
};

TEST_F(ComparisonPlansTest, ProjectionKeepsHeadConstraints) {
  ViewSet v = V("antique(C, M, Y) :- cardesc(C, M, Col, Y), Y < 1970.");
  Result<std::vector<Comparison>> proj =
      ProjectViewConstraintsToHead(v, 0);
  ASSERT_TRUE(proj.ok());
  ASSERT_EQ(proj->size(), 1u);
  EXPECT_EQ((*proj)[0].op, ComparisonOp::kLt);
}

TEST_F(ComparisonPlansTest, ProjectionEliminatesExistentials) {
  // X < Y, Y < 5 with Y existential projects onto X < 5.
  ViewSet v = V("src(X) :- p(X, Y), X < Y, Y < 5.");
  Result<std::vector<Comparison>> proj =
      ProjectViewConstraintsToHead(v, 0);
  ASSERT_TRUE(proj.ok());
  bool found = false;
  for (const Comparison& c : *proj) {
    if (c.op == ComparisonOp::kLt && c.lhs.is_variable() &&
        c.rhs.is_constant() && c.rhs.value().number() == Rational(5)) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(ComparisonPlansTest, ProjectionDropsUnconstrainedHeads) {
  ViewSet v = V("src(X, Z) :- p(X, Y, Z), X < Y.");
  Result<std::vector<Comparison>> proj =
      ProjectViewConstraintsToHead(v, 0);
  ASSERT_TRUE(proj.ok());
  EXPECT_TRUE(proj->empty());  // nothing visible is entailed
}

TEST_F(ComparisonPlansTest, StoredProjectionsMatchFreshOnSeededCatalogs) {
  // 200 seeded semi-interval catalogs: three views over p0/p1, the first
  // two with one or two semi-interval comparisons on body variables.
  static const char* kVars[] = {"X", "Y", "Z"};
  static const char* kOps[] = {"<", "<=", ">", ">="};
  for (uint64_t seed = 0; seed < 200; ++seed) {
    std::mt19937_64 rng(seed);
    auto pick = [&rng](int n) { return static_cast<int>(rng() % n); };
    std::string text;
    for (int i = 0; i < 3; ++i) {
      std::vector<std::string> vars;
      std::string body;
      for (int a = 0, atoms = 1 + pick(2); a < atoms; ++a) {
        std::string x = kVars[pick(3)], y = kVars[pick(3)];
        body += (a > 0 ? ", p" : "p") + std::to_string(pick(2)) + "(" + x +
                ", " + y + ")";
        for (const std::string& v : {x, y}) {
          if (std::find(vars.begin(), vars.end(), v) == vars.end()) {
            vars.push_back(v);
          }
        }
      }
      for (int c = 0, n = i < 2 ? 1 + pick(2) : 0; c < n; ++c) {
        body += ", " + vars[pick(static_cast<int>(vars.size()))] + " " +
                kOps[pick(4)] + " " + std::to_string(1 + pick(3));
      }
      std::string head = "c" + std::to_string(i) + "(" + vars[0];
      if (vars.size() > 1 && pick(2) == 0) head += ", " + vars[1];
      text += head + ") :- " + body + ".\n";
    }
    SCOPED_TRACE("seed " + std::to_string(seed) + ":\n" + text);
    V(text);
  }
}

TEST_F(ComparisonPlansTest, FailedProjectionSurfacesWhenAPlanReadsTheView) {
  // A comparison on a symbol constant has no dense-order projection. The
  // catalog still builds; the stored failure is what augmenting a plan
  // over the view reports.
  ViewSet views = V("named(X) :- p(X, Y), Y < abc.");
  const Result<std::vector<Comparison>>& stored =
      ProjectViewConstraintsToHead(views, 0);
  ASSERT_FALSE(stored.ok());
  Result<Rule> plan_rule = ParseRule("g(X) :- named(X).", &interner_);
  ASSERT_TRUE(plan_rule.ok());
  Result<Rule> augmented =
      AugmentWithViewConstraints(*plan_rule, views, &interner_);
  ASSERT_FALSE(augmented.ok());
  EXPECT_EQ(augmented.status().ToString(), stored.status().ToString());
}

TEST_F(ComparisonPlansTest, AugmentAddsViewGuarantees) {
  ViewSet views = V(kCarViews);
  Result<Rule> plan_rule = ParseRule(
      "p(C, R) :- antiquecars(C, M, Y), caranddriver(M, R).", &interner_);
  ASSERT_TRUE(plan_rule.ok());
  Result<Rule> augmented =
      AugmentWithViewConstraints(*plan_rule, views, &interner_);
  ASSERT_TRUE(augmented.ok());
  ASSERT_EQ(augmented->comparisons.size(), 1u);
  EXPECT_EQ(augmented->comparisons[0].op, ComparisonOp::kLt);
  // The Y < 1970 guarantee lands on the plan's own Y variable.
  EXPECT_EQ(augmented->comparisons[0].lhs, Term::Var(S("Y")));
}

// Paper Example 4: the maximally-contained plan P3 for Q3.
TEST_F(ComparisonPlansTest, Example4PlanForQ3) {
  ViewSet views = V(kCarViews);
  GoalQuery q3 = GQ(kQ3, "q3");
  Result<UnionQuery> plan =
      ComparisonAwarePlan(q3.program, q3.goal, views, &interner_);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan->disjuncts.size(), 2u);

  const Rule* red = nullptr;
  const Rule* antique = nullptr;
  for (const Rule& d : plan->disjuncts) {
    for (const Atom& a : d.body) {
      if (a.predicate == S("redcars")) red = &d;
      if (a.predicate == S("antiquecars")) antique = &d;
    }
  }
  ASSERT_NE(red, nullptr);
  ASSERT_NE(antique, nullptr);
  // The RedCars disjunct must carry the explicit Year < 1970 test...
  ASSERT_EQ(red->comparisons.size(), 1u);
  EXPECT_EQ(red->comparisons[0].op, ComparisonOp::kLt);
  // ...while AntiqueCars already guarantees it (paper prints no test).
  EXPECT_TRUE(antique->comparisons.empty());
}

TEST_F(ComparisonPlansTest, ComparisonFreeQueryPlanHasNoComparisons) {
  ViewSet views = V(kCarViews);
  GoalQuery q1 = GQ(kQ1, "q1");
  Result<UnionQuery> plan =
      ComparisonAwarePlan(q1.program, q1.goal, views, &interner_);
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->disjuncts.size(), 2u);
  for (const Rule& d : plan->disjuncts) {
    EXPECT_TRUE(d.comparisons.empty());
  }
}

// ---------------------------------------------------------------------------
// The nine decisions of paper Example 1.
// ---------------------------------------------------------------------------

TEST_F(ComparisonPlansTest, Example1ClassicalFacts) {
  // Q2 ⊑ Q1, Q1 ⋢ Q2; Q3 ⊑ Q2, Q2 ⋢ Q3 (traditional containment).
  GoalQuery q1 = GQ(kQ1, "q1");
  GoalQuery q2 = GQ(kQ2, "q2");
  GoalQuery q3 = GQ(kQ3, "q3");
  auto classical = [&](const GoalQuery& a, const GoalQuery& b) {
    Result<bool> r =
        CqContainedComplete(a.program.rules[0], b.program.rules[0]);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return *r;
  };
  EXPECT_TRUE(classical(q2, q1));
  EXPECT_FALSE(classical(q1, q2));
  EXPECT_TRUE(classical(q3, q2));
  EXPECT_FALSE(classical(q2, q3));
  EXPECT_TRUE(classical(q3, q1));
}

TEST_F(ComparisonPlansTest, Example1Q1EquivalentToQ2Relatively) {
  // Reviews exist only for top-rated models, so Q1 ≡_V Q2.
  ViewSet views = V(kCarViews);
  GoalQuery q1 = GQ(kQ1, "q1");
  GoalQuery q2 = GQ(kQ2, "q2");
  EXPECT_TRUE(ContainedCmp(q1, q2, views));
  EXPECT_TRUE(ContainedCmp(q2, q1, views));
  // Cross-check by the Theorem 5.2 expansion route (both are
  // comparison-free, so it applies in both directions).
  EXPECT_TRUE(ContainedExp(q1, q2, views));
  EXPECT_TRUE(ContainedExp(q2, q1, views));
}

TEST_F(ComparisonPlansTest, Example1Q1NotContainedInQ3) {
  // Red cars made after 1970 can have retrievable reviews.
  ViewSet views = V(kCarViews);
  GoalQuery q1 = GQ(kQ1, "q1");
  GoalQuery q3 = GQ(kQ3, "q3");
  EXPECT_FALSE(ContainedExp(q1, q3, views));
  EXPECT_FALSE(ContainedCmp(q1, q3, views));
}

TEST_F(ComparisonPlansTest, Example1Q3ContainedInQ1) {
  ViewSet views = V(kCarViews);
  GoalQuery q1 = GQ(kQ1, "q1");
  GoalQuery q3 = GQ(kQ3, "q3");
  EXPECT_TRUE(ContainedCmp(q3, q1, views));
  EXPECT_TRUE(ContainedCmp(q3, GQ(kQ2, "q2"), views));
}

TEST_F(ComparisonPlansTest, Example1AblationWithoutRedCars) {
  // "If the RedCars source were not available, then Q1 would be contained
  // in Q3 relative to the available sources."
  ViewSet views = V(
      "antiquecars(CarNo, Model, Year) :-"
      "    cardesc(CarNo, Model, Color, Year), Year < 1970.\n"
      "caranddriver(Model, Review) :- review(Model, Review, 10).\n");
  GoalQuery q1 = GQ(kQ1, "q1");
  GoalQuery q3 = GQ(kQ3, "q3");
  EXPECT_TRUE(ContainedExp(q1, q3, views));
  EXPECT_TRUE(ContainedCmp(q1, q3, views));
}

TEST_F(ComparisonPlansTest, ExpansionRouteRejectsComparisonsOnLeft) {
  ViewSet views = V(kCarViews);
  Result<bool> r = RelativelyContainedViaExpansion(
      GQ(kQ3, "q3"), GQ(kQ1, "q1"), views, &interner_);
  EXPECT_EQ(r.status().code(), StatusCode::kUnsupported);
}

TEST_F(ComparisonPlansTest, SemiIntervalViewsRestrictPlans) {
  // The only source serves cheap items; asking for expensive ones yields
  // an empty plan, hence containment in anything.
  ViewSet views = V("cheap(X, P) :- item(X, P), P < 10.");
  GoalQuery expensive = GQ("qe(X) :- item(X, P), P > 100.", "qe");
  GoalQuery anything = GQ("qa(X) :- item(X, P).", "qa");
  Result<UnionQuery> plan = ComparisonAwarePlan(
      expensive.program, expensive.goal, views, &interner_);
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->disjuncts.empty());
  EXPECT_TRUE(ContainedCmp(expensive, anything, views));
  EXPECT_FALSE(ContainedCmp(anything, expensive, views));
}

TEST_F(ComparisonPlansTest, ViewGuaranteeMakesQueriesEquivalent) {
  // All retrievable items are cheap, so "items" and "cheap items" agree
  // relative to the source even though classically they differ.
  ViewSet views = V("cheap(X, P) :- item(X, P), P < 10.");
  GoalQuery all = GQ("qa(X, P) :- item(X, P).", "qa");
  GoalQuery cheap = GQ("qc(X, P) :- item(X, P), P < 10.", "qc");
  EXPECT_TRUE(ContainedCmp(all, cheap, views));
  EXPECT_TRUE(ContainedCmp(cheap, all, views));
  EXPECT_TRUE(ContainedExp(all, cheap, views));
}

TEST_F(ComparisonPlansTest, OverlappingIntervalsNeedTheirIntersection) {
  ViewSet views = V(
      "lo(X, P) :- item(X, P), P < 20.\n"
      "hi(X, P) :- item(X, P), P > 10.\n");
  GoalQuery mid = GQ("qm(X) :- item(X, P), P > 10, P < 20.", "qm");
  GoalQuery all = GQ("qa(X) :- item(X, P).", "qa");
  // mid's plan: lo with P > 10 added, hi with P < 20 added.
  Result<UnionQuery> plan =
      ComparisonAwarePlan(mid.program, mid.goal, views, &interner_);
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->disjuncts.size(), 2u);
  for (const Rule& d : plan->disjuncts) {
    EXPECT_EQ(d.comparisons.size(), 1u);
  }
  EXPECT_TRUE(ContainedCmp(mid, all, views));
  EXPECT_FALSE(ContainedCmp(all, mid, views));
}

TEST_F(ComparisonPlansTest, PositiveQueriesWithMultipleRules) {
  // Theorem 5.1 covers positive (multi-rule) queries; each rule gets its
  // own candidates.
  ViewSet views = V(
      "cheap(X, P) :- item(X, P), P < 10.\n"
      "luxury(X, P) :- item(X, P), P > 100.\n");
  GoalQuery extremes = GQ(
      "qx(X) :- item(X, P), P < 10.\n"
      "qx(X) :- item(X, P), P > 100.\n",
      "qx");
  Result<UnionQuery> plan =
      ComparisonAwarePlan(extremes.program, extremes.goal, views, &interner_);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  // cheap serves the first rule, luxury the second; no explicit tests
  // needed (the views guarantee the bounds).
  ASSERT_EQ(plan->disjuncts.size(), 2u);
  for (const Rule& d : plan->disjuncts) {
    EXPECT_TRUE(d.comparisons.empty()) << d.ToString(interner_);
  }
  GoalQuery all = GQ("qa(X) :- item(X, P).", "qa");
  EXPECT_TRUE(ContainedCmp(extremes, all, views));
  // And everything retrievable is extreme, so the converse holds too.
  EXPECT_TRUE(ContainedCmp(all, extremes, views));
}

TEST_F(ComparisonPlansTest, VariableToVariableComparisons) {
  // Non-semi-interval constraints (X < Y) flow through the complete test.
  ViewSet views = V("pairs(X, Y) :- rel(X, Y), X < Y.");
  GoalQuery ordered = GQ("qo(X, Y) :- rel(X, Y), X < Y.", "qo");
  GoalQuery any = GQ("qn(X, Y) :- rel(X, Y).", "qn");
  EXPECT_TRUE(ContainedCmp(ordered, any, views));
  // All retrievable pairs are ordered, so the converse holds relatively.
  EXPECT_TRUE(ContainedCmp(any, ordered, views));
  // But against the strictly-reversed query it fails.
  GoalQuery reversed = GQ("qr(X, Y) :- rel(X, Y), Y < X.", "qr");
  EXPECT_FALSE(ContainedCmp(any, reversed, views));
}

TEST_F(ComparisonPlansTest, PlanRoutesAgreeOnComparisonFreeInputs) {
  // For comparison-free queries and views, the Section 3 procedure and the
  // comparison-aware procedure must coincide.
  ViewSet views = V(
      "v1(X, Y) :- p(X, Y).\n"
      "v2(X) :- p(X, X).\n"
      "v3(Y, Z) :- r(Y, Z).\n");
  std::vector<GoalQuery> queries = {
      GQ("g0(X, Z) :- p(X, Y), r(Y, Z).", "g0"),
      GQ("g1(X) :- p(X, X).", "g1"),
      GQ("g2(X) :- p(X, Y).", "g2"),
      GQ("g3(X) :- p(X, Y), r(Y, X).", "g3"),
  };
  for (const GoalQuery& a : queries) {
    for (const GoalQuery& b : queries) {
      if (a.program.rules[0].head.arity() != b.program.rules[0].head.arity())
        continue;
      Result<RelativeContainmentResult> classic =
          RelativelyContained(a, b, views, &interner_);
      ASSERT_TRUE(classic.ok());
      Result<RelativeContainmentResult> cmp =
          RelativelyContainedWithComparisons(a, b, views, &interner_);
      ASSERT_TRUE(cmp.ok());
      Result<bool> exp =
          RelativelyContainedViaExpansion(a, b, views, &interner_);
      ASSERT_TRUE(exp.ok());
      EXPECT_EQ(classic->contained, cmp->contained);
      EXPECT_EQ(classic->contained, *exp);
    }
  }
}

}  // namespace
}  // namespace relcont

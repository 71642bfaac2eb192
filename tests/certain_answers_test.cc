#include <algorithm>
#include <gtest/gtest.h>

#include "datalog/parser.h"
#include "datalog/substitution.h"
#include "relcont/certain_answers.h"
#include "relcont/relative_containment.h"

namespace relcont {
namespace {

class CertainAnswersTest : public ::testing::Test {
 protected:
  ViewSet V(const std::string& text) {
    Result<ViewSet> v = ParseViews(text, &interner_);
    EXPECT_TRUE(v.ok()) << v.status().ToString();
    return *v;
  }
  Program P(const std::string& text) {
    Result<Program> p = ParseProgram(text, &interner_);
    EXPECT_TRUE(p.ok()) << p.status().ToString();
    return *p;
  }
  Database D(const std::string& text) {
    Result<Database> d = ParseDatabase(text, &interner_);
    EXPECT_TRUE(d.ok()) << d.status().ToString();
    return *d;
  }
  SymbolId S(const char* name) { return interner_.Intern(name); }

  static std::vector<Tuple> Sorted(std::vector<Tuple> ts) {
    std::sort(ts.begin(), ts.end());
    return ts;
  }

  Interner interner_;
};

TEST_F(CertainAnswersTest, PlanAndCanonicalAgreeOnSimpleJoin) {
  ViewSet views = V(
      "v1(X, Y) :- p(X, Y).\n"
      "v2(Y, Z) :- r(Y, Z).\n");
  Program q = P("q(X, Z) :- p(X, Y), r(Y, Z).");
  Database inst = D("v1(a, b). v2(b, c). v2(x, y).");
  Result<std::vector<Tuple>> plan_based =
      CertainAnswers(q, S("q"), views, inst, &interner_);
  ASSERT_TRUE(plan_based.ok()) << plan_based.status().ToString();
  Result<std::vector<Tuple>> chase_based =
      CertainAnswersViaCanonical(q, S("q"), views, inst, &interner_);
  ASSERT_TRUE(chase_based.ok());
  EXPECT_EQ(Sorted(*plan_based), Sorted(*chase_based));
  ASSERT_EQ(plan_based->size(), 1u);
  EXPECT_EQ((*plan_based)[0][0].value().symbol(), S("a"));
  EXPECT_EQ((*plan_based)[0][1].value().symbol(), S("c"));
}

TEST_F(CertainAnswersTest, DataConstantSpelledLikeANullIsNotANull) {
  // Labelled nulls are recognised by provenance, not spelling: a source
  // constant named '_null_island' is data and is a certain answer.
  ViewSet views = V("v(X) :- p(X).");
  Program q = P("q(X) :- p(X).");
  Database inst = D("v('_null_island'). v(lisbon).");
  Result<std::vector<Tuple>> plan_based =
      CertainAnswers(q, S("q"), views, inst, &interner_);
  Result<std::vector<Tuple>> chase_based =
      CertainAnswersViaCanonical(q, S("q"), views, inst, &interner_);
  ASSERT_TRUE(plan_based.ok()) << plan_based.status().ToString();
  ASSERT_TRUE(chase_based.ok()) << chase_based.status().ToString();
  EXPECT_EQ(plan_based->size(), 2u);
  EXPECT_EQ(Sorted(*plan_based), Sorted(*chase_based));
}

TEST_F(CertainAnswersTest, ProjectionViewsGiveNoJoinAnswers) {
  // Paper Example 5 intuition (open world): v1 and v2 project p's columns,
  // so the join q(x,y) :- p(x,y) has no certain answers from them.
  ViewSet views = V(
      "v1(X) :- p(X, Y).\n"
      "v2(Y) :- p(X, Y).\n"
      "v3(X, Y) :- p(X, Y), r(X, Y).\n");
  Program q1 = P("q1(X, Y) :- p(X, Y).");
  Database inst = D("v1(a). v2(b).");
  Result<std::vector<Tuple>> answers =
      CertainAnswers(q1, S("q1"), views, inst, &interner_);
  ASSERT_TRUE(answers.ok());
  EXPECT_TRUE(answers->empty());
  // But v3 provides p-facts directly.
  Database inst2 = D("v3(a, b).");
  Result<std::vector<Tuple>> answers2 =
      CertainAnswers(q1, S("q1"), views, inst2, &interner_);
  ASSERT_TRUE(answers2.ok());
  EXPECT_EQ(answers2->size(), 1u);
}

TEST_F(CertainAnswersTest, CanonicalDatabaseBuildsLabelledNulls) {
  ViewSet views = V("v1(X) :- p(X, Y).");
  Database inst = D("v1(a). v1(b).");
  Result<Database> chase = CanonicalDatabase(views, inst, &interner_);
  ASSERT_TRUE(chase.ok());
  EXPECT_EQ(chase->TotalFacts(), 2);
  // Each tuple gets its own null: p(a, n1), p(b, n2) with n1 != n2.
  const std::vector<Tuple>& p = chase->Tuples(S("p"));
  ASSERT_EQ(p.size(), 2u);
  EXPECT_NE(p[0][1], p[1][1]);
}

TEST_F(CertainAnswersTest, CanonicalDatabaseRespectsHeadConstants) {
  ViewSet views = V("red(C, Y) :- car(C, red, Y).");
  Database inst = D("red(7, 1990).");
  Result<Database> chase = CanonicalDatabase(views, inst, &interner_);
  ASSERT_TRUE(chase.ok());
  const std::vector<Tuple>& car = chase->Tuples(S("car"));
  ASSERT_EQ(car.size(), 1u);
  EXPECT_EQ(car[0][1].value().symbol(), S("red"));
}

TEST_F(CertainAnswersTest, BruteForceAgreesWithPlanOnOpenWorld) {
  ViewSet views = V("v1(X, Y) :- p(X, Y).");
  Program q = P("q(X, Z) :- p(X, Y), p(Y, Z).");
  Database inst = D("v1(a, b). v1(b, a).");
  Result<std::vector<Tuple>> brute = BruteForceCertainAnswers(
      q, S("q"), views, inst, &interner_, {.extra_constants = 1});
  ASSERT_TRUE(brute.ok()) << brute.status().ToString();
  Result<std::vector<Tuple>> plan_based =
      CertainAnswers(q, S("q"), views, inst, &interner_);
  ASSERT_TRUE(plan_based.ok());
  EXPECT_EQ(Sorted(*brute), Sorted(*plan_based));
}

// Paper Example 5, incomplete (open-world) sources: v1(a), v2(b) give no
// certain answer to q1.
TEST_F(CertainAnswersTest, Example5OpenWorld) {
  ViewSet views = V(
      "v1(X) :- p(X, Y).\n"
      "v2(Y) :- p(X, Y).\n"
      "v3(X, Y) :- p(X, Y), r(X, Y).\n");
  Program q1 = P("q1(X, Y) :- p(X, Y).");
  Database inst = D("v1(a). v2(b).");
  Result<std::vector<Tuple>> brute = BruteForceCertainAnswers(
      q1, S("q1"), views, inst, &interner_, {.extra_constants = 1});
  ASSERT_TRUE(brute.ok()) << brute.status().ToString();
  EXPECT_TRUE(brute->empty());
}

// Paper Example 5, complete (closed-world) sources: v1 = {a} and v2 = {b}
// force p(a, b), so (a, b) is a certain answer of q1 but q2 has none.
TEST_F(CertainAnswersTest, Example5ClosedWorld) {
  Result<ViewSet> parsed = ParseViews(
      "v1(X) :- p(X, Y).\n"
      "v2(Y) :- p(X, Y).\n"
      "v3(X, Y) :- p(X, Y), r(X, Y).\n",
      &interner_);
  ASSERT_TRUE(parsed.ok());
  std::vector<ViewDefinition> defs = parsed->views();
  for (ViewDefinition& d : defs) d.complete = true;
  ViewSet views = *ViewSet::Make(std::move(defs), &interner_);

  Program q1 = P("q1(X, Y) :- p(X, Y).");
  Program q2 = P("q2(X, Y) :- r(X, Y).");
  Database inst = D("v1(a). v2(b).");

  Result<std::vector<Tuple>> a1 = BruteForceCertainAnswers(
      q1, S("q1"), views, inst, &interner_, {.extra_constants = 1});
  ASSERT_TRUE(a1.ok()) << a1.status().ToString();
  ASSERT_EQ(a1->size(), 1u);
  EXPECT_EQ((*a1)[0][0].value().symbol(), S("a"));
  EXPECT_EQ((*a1)[0][1].value().symbol(), S("b"));

  Result<std::vector<Tuple>> a2 = BruteForceCertainAnswers(
      q2, S("q2"), views, inst, &interner_, {.extra_constants = 1});
  ASSERT_TRUE(a2.ok());
  EXPECT_TRUE(a2->empty());
}

TEST_F(CertainAnswersTest, BruteForceBoundIsReported) {
  ViewSet views = V("v(X, Y, Z) :- p(X, Y, Z).");
  Program q = P("q(X) :- p(X, Y, Z).");
  Database inst = D("v(a, b, c). v(d, e, f).");
  // Domain has >= 6 values, arity 3 => 216+ potential facts.
  Result<std::vector<Tuple>> r = BruteForceCertainAnswers(
      q, S("q"), views, inst, &interner_, {.extra_constants = 0});
  EXPECT_EQ(r.status().code(), StatusCode::kBoundReached);
}

// ---------------------------------------------------------------------------
// Relative containment, Section 3 (comparison-free fragment).
// ---------------------------------------------------------------------------

class RelativeContainmentTest : public CertainAnswersTest {
 protected:
  GoalQuery GQ(const std::string& text, const char* goal) {
    return GoalQuery{P(text), S(goal)};
  }
  bool RelContained(const GoalQuery& q1, const GoalQuery& q2,
                    const ViewSet& views) {
    Result<RelativeContainmentResult> r =
        RelativelyContained(q1, q2, views, &interner_);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r->contained;
  }
};

TEST_F(RelativeContainmentTest, ClassicalContainmentImpliesRelative) {
  ViewSet views = V("v(X, Y) :- p(X, Y).");
  GoalQuery strong = GQ("q(X) :- p(X, Y), p(Y, X).", "q");
  GoalQuery weak = GQ("q(X) :- p(X, Y).", "q");
  EXPECT_TRUE(RelContained(strong, weak, views));
  EXPECT_FALSE(RelContained(weak, strong, views));
}

TEST_F(RelativeContainmentTest, RelativeWithoutClassical) {
  // The only review source serves top-rated models (rating hard-coded via
  // a constant in the view), so "all reviews" and "reviews of rating-10
  // models" coincide relative to the sources. (Example 1's Q1 vs Q2,
  // with the comparison-free view subset.)
  ViewSet views = V(
      "allcars(C, M, Col, Y) :- cardesc(C, M, Col, Y).\n"
      "caranddriver(M, R) :- review(M, R, 10).\n");
  GoalQuery q1 = GQ(
      "q1(C, R) :- cardesc(C, M, Col, Y), review(M, R, Rat).", "q1");
  GoalQuery q2 = GQ(
      "q2(C, R) :- cardesc(C, M, Col, Y), review(M, R, 10).", "q2");
  // Classically q1 is NOT contained in q2 (see containment tests), but
  // relative to the views both directions hold.
  EXPECT_TRUE(RelContained(q1, q2, views));
  EXPECT_TRUE(RelContained(q2, q1, views));
  Result<bool> eq = RelativelyEquivalent(q1, q2, views, &interner_);
  ASSERT_TRUE(eq.ok());
  EXPECT_TRUE(*eq);
}

TEST_F(RelativeContainmentTest, SourceRemovalChangesTheAnswer) {
  // With both car sources, q_all is not contained in q_red; dropping the
  // blue source makes every retrievable car red.
  ViewSet both = V(
      "redcars(C, Y) :- car(C, red, Y).\n"
      "bluecars(C, Y) :- car(C, blue, Y).\n");
  ViewSet red_only = V("redcars2(C, Y) :- car(C, red, Y).");
  GoalQuery q_all = GQ("qa(C) :- car(C, Col, Y).", "qa");
  GoalQuery q_red = GQ("qr(C) :- car(C, red, Y).", "qr");
  EXPECT_FALSE(RelContained(q_all, q_red, both));
  EXPECT_TRUE(RelContained(q_all, q_red, red_only));
  // q_red ⊑ q_all always (classical).
  EXPECT_TRUE(RelContained(q_red, q_all, both));
}

TEST_F(RelativeContainmentTest, EmptyPlanIsContainedInEverything) {
  // No source mentions relation s, so q1 has no plan at all.
  ViewSet views = V("v(X) :- p(X).");
  GoalQuery q1 = GQ("q1(X) :- s(X).", "q1");
  GoalQuery q2 = GQ("q2(X) :- p(X).", "q2");
  EXPECT_TRUE(RelContained(q1, q2, views));
  EXPECT_FALSE(RelContained(q2, q1, views));
}

TEST_F(RelativeContainmentTest, WitnessInstanceSeparatesTheQueries) {
  // When not contained, the witness disjunct's frozen body is a source
  // instance on which certain(Q1) ⊄ certain(Q2).
  ViewSet views = V(
      "v1(X, Y) :- p(X, Y).\n"
      "v2(X) :- s(X).\n");
  GoalQuery q1 = GQ("q1(X) :- p(X, Y).", "q1");
  GoalQuery q2 = GQ("q2(X) :- p(X, Y), s(X).", "q2");
  Result<RelativeContainmentResult> r =
      RelativelyContained(q1, q2, views, &interner_);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->contained);
  ASSERT_TRUE(r->witness.has_value());
  // Build the witness instance and compare certain answers.
  Database inst;
  Substitution freeze;
  for (SymbolId v : r->witness->Variables()) {
    freeze.Bind(v, Term::Symbol(interner_.Fresh("_w")));
  }
  for (const Atom& a : r->witness->body) inst.Add(freeze.Apply(a));
  Tuple head = freeze.Apply(r->witness->head).args;
  Result<std::vector<Tuple>> c1 =
      CertainAnswers(q1.program, q1.goal, views, inst, &interner_);
  ASSERT_TRUE(c1.ok());
  Result<std::vector<Tuple>> c2 =
      CertainAnswers(q2.program, q2.goal, views, inst, &interner_);
  ASSERT_TRUE(c2.ok());
  EXPECT_NE(std::find(c1->begin(), c1->end(), head), c1->end());
  EXPECT_EQ(std::find(c2->begin(), c2->end(), head), c2->end());
}

TEST_F(RelativeContainmentTest, PositiveQueriesWithMultipleRules) {
  ViewSet views = V(
      "v1(X) :- a(X).\n"
      "v2(X) :- b(X).\n"
      "v3(X) :- c(X).\n");
  GoalQuery q1 = GQ(
      "q1(X) :- a(X).\n"
      "q1(X) :- b(X).\n",
      "q1");
  GoalQuery q2 = GQ(
      "q2(X) :- a(X).\n"
      "q2(X) :- b(X).\n"
      "q2(X) :- c(X).\n",
      "q2");
  EXPECT_TRUE(RelContained(q1, q2, views));
  EXPECT_FALSE(RelContained(q2, q1, views));
}

// Property: the plan-based decision agrees with certain-answer semantics on
// frozen instances built from every disjunct of Q1's plan.
TEST_F(RelativeContainmentTest, DecisionConsistentWithCertainAnswers) {
  ViewSet views = V(
      "v1(X, Y) :- p(X, Y).\n"
      "v2(Y, Z) :- r(Y, Z).\n"
      "v3(X) :- p(X, X).\n");
  std::vector<GoalQuery> queries = {
      GQ("g0(X, Z) :- p(X, Y), r(Y, Z).", "g0"),
      GQ("g1(X, X) :- p(X, X).", "g1"),
      GQ("g2(X, Y) :- p(X, Y).", "g2"),
      GQ("g3(X, Z) :- p(X, Y), r(Y, Z), p(X, X).", "g3"),
  };
  for (const GoalQuery& a : queries) {
    for (const GoalQuery& b : queries) {
      Result<RelativeContainmentResult> decision =
          RelativelyContained(a, b, views, &interner_);
      ASSERT_TRUE(decision.ok());
      // Sample check: on every frozen disjunct of a's plan, certain answers
      // of a contain the frozen head; containment demands b does too.
      bool sample_holds = true;
      for (const Rule& d : decision->plan1.disjuncts) {
        Database inst;
        Substitution freeze;
        for (SymbolId v : d.Variables()) {
          freeze.Bind(v, Term::Symbol(interner_.Fresh("_w")));
        }
        for (const Atom& atom : d.body) inst.Add(freeze.Apply(atom));
        Tuple head = freeze.Apply(d.head).args;
        Result<std::vector<Tuple>> cb =
            CertainAnswers(b.program, b.goal, views, inst, &interner_);
        ASSERT_TRUE(cb.ok());
        if (std::find(cb->begin(), cb->end(), head) == cb->end()) {
          sample_holds = false;
          break;
        }
      }
      // The frozen-disjunct family is exactly the hard direction of the
      // containment proof, so the decision and the samples must agree.
      EXPECT_EQ(decision->contained, sample_holds);
    }
  }
}

}  // namespace
}  // namespace relcont

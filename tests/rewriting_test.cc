#include <gtest/gtest.h>

#include "containment/cq_containment.h"
#include "datalog/parser.h"
#include "eval/evaluator.h"
#include "rewriting/inverse_rules.h"

namespace relcont {
namespace {

// The mediated schema and sources of the paper's Example 1.
constexpr char kCarViews[] = R"(
  redcars(CarNo, Model, Year) :- cardesc(CarNo, Model, red, Year).
  antiquecars(CarNo, Model, Year) :-
      cardesc(CarNo, Model, Color, Year), Year < 1970.
  caranddriver(Model, Review) :- review(Model, Review, 10).
)";

class RewritingTest : public ::testing::Test {
 protected:
  ViewSet MustParseViews(const std::string& text) {
    Result<ViewSet> v = ParseViews(text, &interner_);
    EXPECT_TRUE(v.ok()) << v.status().ToString();
    return *v;
  }
  Program MustParseProgram(const std::string& text) {
    Result<Program> p = ParseProgram(text, &interner_);
    EXPECT_TRUE(p.ok()) << p.status().ToString();
    return *p;
  }
  SymbolId S(const char* name) { return interner_.Intern(name); }

  Interner interner_;
};

TEST_F(RewritingTest, ViewSetBasics) {
  ViewSet v = MustParseViews(kCarViews);
  EXPECT_EQ(v.size(), 3u);
  EXPECT_NE(v.Find(S("redcars")), nullptr);
  EXPECT_EQ(v.Find(S("cardesc")), nullptr);
  EXPECT_EQ(v.SourcePredicates().size(), 3u);
  std::set<SymbolId> mediated = v.MediatedPredicates();
  EXPECT_EQ(mediated.size(), 2u);
  EXPECT_TRUE(mediated.count(S("cardesc")) > 0);
  EXPECT_TRUE(mediated.count(S("review")) > 0);
}

TEST_F(RewritingTest, ViewSetRejectsDuplicates) {
  EXPECT_FALSE(
      ParseViews("v(X) :- p(X).\nv(X) :- q(X).\n", &interner_).ok());
}

TEST_F(RewritingTest, ViewSetRejectsSourceInBody) {
  EXPECT_FALSE(
      ParseViews("v(X) :- p(X).\nw(X) :- v(X).\n", &interner_).ok());
}

TEST_F(RewritingTest, ViewSetRejectsUnsafeView) {
  EXPECT_FALSE(ParseViews("v(X, Y) :- p(X).\n", &interner_).ok());
}

// Paper Example 2: the inverse rules of the three car sources.
TEST_F(RewritingTest, InverseRulesMatchExample2) {
  ViewSet v = MustParseViews(kCarViews);
  Result<Program> inv = InvertViews(v, &interner_);
  ASSERT_TRUE(inv.ok()) << inv.status().ToString();
  ASSERT_EQ(inv->rules.size(), 3u);  // one relational subgoal per view

  // redcars: cardesc(CarNo, Model, red, Year) :- redcars(CarNo, Model, Year).
  const Rule& red = inv->rules[0];
  EXPECT_EQ(red.head.predicate, S("cardesc"));
  EXPECT_EQ(red.head.args[2].value().symbol(), S("red"));
  ASSERT_EQ(red.body.size(), 1u);
  EXPECT_EQ(red.body[0].predicate, S("redcars"));

  // antiquecars: cardesc(C, M, f(C, M, Y), Y) :- antiquecars(C, M, Y).
  const Rule& antique = inv->rules[1];
  EXPECT_EQ(antique.head.predicate, S("cardesc"));
  const Term& skolem = antique.head.args[2];
  ASSERT_TRUE(skolem.is_function());
  EXPECT_EQ(skolem.args().size(), 3u);  // f(CarNo, Model, Year)
  EXPECT_TRUE(antique.comparisons.empty());  // view comparison dropped

  // caranddriver: review(Model, Review, 10) :- caranddriver(Model, Review).
  const Rule& cad = inv->rules[2];
  EXPECT_EQ(cad.head.predicate, S("review"));
  EXPECT_EQ(cad.head.args[2].value().number(), Rational(10));
}

TEST_F(RewritingTest, InverseRulesMultiAtomBody) {
  ViewSet v = MustParseViews("v3(X, Y) :- p(X, Y), r(X, Y).");
  Result<Program> inv = InvertViews(v, &interner_);
  ASSERT_TRUE(inv.ok());
  EXPECT_EQ(inv->rules.size(), 2u);
}

TEST_F(RewritingTest, InverseRulesSharedSkolemAcrossSubgoals) {
  // The same existential Y must become the same Skolem term in both
  // inverted subgoals.
  ViewSet v = MustParseViews("v(X) :- p(X, Y), r(Y).");
  Result<Program> inv = InvertViews(v, &interner_);
  ASSERT_TRUE(inv.ok());
  ASSERT_EQ(inv->rules.size(), 2u);
  const Term& in_p = inv->rules[0].head.args[1];
  const Term& in_r = inv->rules[1].head.args[0];
  EXPECT_TRUE(in_p.is_function());
  EXPECT_EQ(in_p, in_r);
}

TEST_F(RewritingTest, MaximallyContainedPlanStructure) {
  ViewSet v = MustParseViews(kCarViews);
  Program q1 = MustParseProgram(
      "q1(CarNo, Review) :- cardesc(CarNo, Model, C, Y), "
      "review(Model, Review, Rating).");
  Result<Program> plan = MaximallyContainedPlan(q1, v, &interner_);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->rules.size(), 4u);  // query + 3 inverse rules
  // The plan's EDB relations are exactly the sources.
  std::set<SymbolId> edb = plan->EdbPredicates();
  EXPECT_EQ(edb, v.SourcePredicates());
}

TEST_F(RewritingTest, PlanRejectsQueryOverSources) {
  ViewSet v = MustParseViews(kCarViews);
  Program bad = MustParseProgram("q(X) :- redcars(X, M, Y).");
  EXPECT_FALSE(MaximallyContainedPlan(bad, v, &interner_).ok());
}

// Paper Example 3: function-term elimination and unfolding yield exactly
// two conjunctive plans for Q1.
TEST_F(RewritingTest, UnionPlanMatchesExample3) {
  ViewSet v = MustParseViews(kCarViews);
  Program q1 = MustParseProgram(
      "q1(CarNo, Review) :- cardesc(CarNo, Model, C, Y), "
      "review(Model, Review, Rating).");
  Result<UnionQuery> ucq = UnionPlan(q1, S("q1"), v, &interner_);
  ASSERT_TRUE(ucq.ok()) << ucq.status().ToString();
  ASSERT_EQ(ucq->disjuncts.size(), 2u);

  UnionQuery expected;
  expected.disjuncts.push_back(*ParseRule(
      "p1(CarNo, Review) :- redcars(CarNo, Model, Year), "
      "caranddriver(Model, Review).",
      &interner_));
  expected.disjuncts.push_back(*ParseRule(
      "p1(CarNo, Review) :- antiquecars(CarNo, Model, Year), "
      "caranddriver(Model, Review).",
      &interner_));
  Result<bool> eq = UnionEquivalent(*ucq, expected);
  ASSERT_TRUE(eq.ok());
  EXPECT_TRUE(*eq);
}

TEST_F(RewritingTest, UnionPlanDropsSkolemJoinsThatCannotGround) {
  // Asking for the (unknown) color of antique cars must yield only the
  // red-cars plan: the antique color Skolem cannot join `pcolor`.
  ViewSet v = MustParseViews(
      "redcars(C, M, Y) :- cardesc(C, M, red, Y).\n"
      "antiquecars(C, M, Y) :- cardesc(C, M, Col, Y).\n"
      "pcolor(Col) :- popular(Col).\n");
  Program q = MustParseProgram(
      "q(C) :- cardesc(C, M, Col, Y), popular(Col).");
  Result<UnionQuery> ucq = UnionPlan(q, S("q"), v, &interner_);
  ASSERT_TRUE(ucq.ok());
  ASSERT_EQ(ucq->disjuncts.size(), 1u);
  EXPECT_EQ(ucq->disjuncts[0].body[0].predicate, S("redcars"));
}

TEST_F(RewritingTest, UnionPlanKeepsSelfJoinThroughSameSkolem) {
  // Joining an unknown value with itself is fine: both sides resolve to the
  // same Skolem term, which unifies away.
  ViewSet v = MustParseViews("src(X, Y) :- p(X, Z), q(Z, Y).");
  Program query = MustParseProgram("qq(X, Y) :- p(X, Z), q(Z, Y).");
  Result<UnionQuery> ucq = UnionPlan(query, S("qq"), v, &interner_);
  ASSERT_TRUE(ucq.ok());
  ASSERT_EQ(ucq->disjuncts.size(), 1u);
  // The Skolems for Z unify, collapsing both subgoals onto one src atom;
  // semantically the disjunct must equal qq(X, Y) :- src(X, Y).
  UnionQuery expected;
  expected.disjuncts.push_back(*ParseRule("qq(X, Y) :- src(X, Y).",
                                          &interner_));
  Result<bool> eq = UnionEquivalent(*ucq, expected);
  ASSERT_TRUE(eq.ok());
  EXPECT_TRUE(*eq);
}

TEST_F(RewritingTest, ExpandUnionPlanRestoresMediatedSchema) {
  ViewSet v = MustParseViews(kCarViews);
  UnionQuery plan;
  plan.disjuncts.push_back(*ParseRule(
      "p1(C, R) :- redcars(C, M, Y), caranddriver(M, R).", &interner_));
  Result<UnionQuery> exp = ExpandUnionPlan(plan, v, &interner_);
  ASSERT_TRUE(exp.ok()) << exp.status().ToString();
  ASSERT_EQ(exp->disjuncts.size(), 1u);
  const Rule& e = exp->disjuncts[0];
  ASSERT_EQ(e.body.size(), 2u);
  EXPECT_EQ(e.body[0].predicate, S("cardesc"));
  EXPECT_EQ(e.body[1].predicate, S("review"));
  // The 'red' constant and the rating 10 come back from the view bodies.
  EXPECT_EQ(e.body[0].args[2].value().symbol(), S("red"));
  EXPECT_EQ(e.body[1].args[2].value().number(), Rational(10));
  EXPECT_TRUE(e.comparisons.empty());  // redcars view has no comparisons
}

TEST_F(RewritingTest, ExpandUnionPlanCarriesViewComparisons) {
  ViewSet v = MustParseViews(kCarViews);
  UnionQuery plan;
  plan.disjuncts.push_back(*ParseRule(
      "p(C, R) :- antiquecars(C, M, Y), caranddriver(M, R).", &interner_));
  Result<UnionQuery> exp = ExpandUnionPlan(plan, v, &interner_);
  ASSERT_TRUE(exp.ok());
  ASSERT_EQ(exp->disjuncts.size(), 1u);
  ASSERT_EQ(exp->disjuncts[0].comparisons.size(), 1u);
  EXPECT_EQ(exp->disjuncts[0].comparisons[0].op, ComparisonOp::kLt);
}

TEST_F(RewritingTest, ExpandPlanProgramHandlesRecursivePlans) {
  ViewSet v = MustParseViews("sedge(X, Y) :- edge(X, Y).");
  Program plan = MustParseProgram(
      "tc(X, Y) :- sedge(X, Y).\n"
      "tc(X, Y) :- sedge(X, Z), tc(Z, Y).\n");
  Result<Program> exp = ExpandPlanProgram(plan, v, &interner_);
  ASSERT_TRUE(exp.ok());
  ASSERT_EQ(exp->rules.size(), 2u);
  EXPECT_EQ(exp->rules[0].body[0].predicate, S("edge"));
  EXPECT_EQ(exp->rules[1].body[0].predicate, S("edge"));
  EXPECT_EQ(exp->rules[1].body[1].predicate, S("tc"));
  EXPECT_TRUE(exp->IsRecursive());
}

TEST_F(RewritingTest, ExpandPlanProgramDropsClashingRules) {
  // The plan rule forces s's view head (constant 1) to unify with the
  // clashing constant 2 — impossible, so the rule disappears.
  ViewSet v = MustParseViews("s(1) :- p(1, 1).");
  Program plan;
  plan.rules.push_back(*ParseRule("q() :- s(2).", &interner_));
  Result<Program> exp = ExpandPlanProgram(plan, v, &interner_);
  ASSERT_TRUE(exp.ok());
  EXPECT_TRUE(exp->rules.empty());
}

// Semantics check: evaluating the plan on source instances returns exactly
// the certain answers one gets from the two-disjunct plan of Example 3.
TEST_F(RewritingTest, PlanEvaluationMatchesExample1Story) {
  ViewSet v = MustParseViews(kCarViews);
  Program q1 = MustParseProgram(
      "q1(CarNo, Review) :- cardesc(CarNo, Model, C, Y), "
      "review(Model, Review, Rating).");
  Result<Program> plan = MaximallyContainedPlan(q1, v, &interner_);
  ASSERT_TRUE(plan.ok());
  Database sources = *ParseDatabase(
      "redcars(1, corolla, 1990).\n"
      "antiquecars(2, model_t, 1920).\n"
      "caranddriver(corolla, 'great car').\n"
      "caranddriver(model_t, 'classic').\n",
      &interner_);
  Result<std::vector<Tuple>> answers =
      EvaluateGoal(*plan, S("q1"), sources);
  ASSERT_TRUE(answers.ok());
  // Certain answers: (1, 'great car') from redcars, (2, 'classic') from
  // antiquecars.
  EXPECT_EQ(answers->size(), 2u);
}

}  // namespace
}  // namespace relcont

#include <gtest/gtest.h>

#include <algorithm>

#include "datalog/parser.h"
#include "datalog/unfold.h"
#include "eval/evaluator.h"
#include "relcont/version.h"
#include "relcont/workload.h"

namespace relcont {
namespace {

TEST(VersionTest, VersionStringMatchesComponents) {
  std::string expected = std::to_string(kVersionMajor) + "." +
                         std::to_string(kVersionMinor) + "." +
                         std::to_string(kVersionPatch);
  EXPECT_EQ(expected, kVersionString);
}

class ApiSurfaceTest : public ::testing::Test {
 protected:
  Interner interner_;
};

TEST_F(ApiSurfaceTest, ValueTotalOrderIsConsistent) {
  std::vector<Value> values = {
      Value::Number(Rational(2)), Value::Number(Rational(-1)),
      Value::Symbol(interner_.Intern("b")),
      Value::Symbol(interner_.Intern("a")), Value::Number(Rational(1, 2))};
  std::sort(values.begin(), values.end());
  // Numbers sort before symbols; numbers by value; symbols by id.
  EXPECT_TRUE(values[0].is_number());
  EXPECT_EQ(values[0].number(), Rational(-1));
  EXPECT_EQ(values[1].number(), Rational(1, 2));
  EXPECT_EQ(values[2].number(), Rational(2));
  EXPECT_TRUE(values[3].is_symbol());
  // Antisymmetry on a sample.
  EXPECT_FALSE(values[0] < values[0]);
}

TEST_F(ApiSurfaceTest, TermHashDistinguishesKinds) {
  SymbolId s = interner_.Intern("x");
  Term var = Term::Var(s);
  Term sym = Term::Symbol(s);
  Term num = Term::Number(Rational(0));
  EXPECT_NE(var, sym);
  EXPECT_NE(var.Hash(), sym.Hash());
  EXPECT_NE(sym, num);
  Term f1 = Term::Function(s, {var});
  Term f2 = Term::Function(s, {sym});
  EXPECT_NE(f1, f2);
  EXPECT_NE(f1.Hash(), f2.Hash());
  EXPECT_EQ(f1, Term::Function(s, {Term::Var(s)}));
}

TEST_F(ApiSurfaceTest, TermOrderingIsTotalOnMixedKinds) {
  SymbolId f = interner_.Intern("f");
  std::vector<Term> terms = {
      Term::Var(interner_.Intern("B")), Term::Var(interner_.Intern("A")),
      Term::Number(Rational(3)), Term::Symbol(interner_.Intern("sym")),
      Term::Function(f, {Term::Number(Rational(1))}),
      Term::Function(f, {Term::Number(Rational(0))})};
  std::sort(terms.begin(), terms.end());
  for (size_t i = 0; i + 1 < terms.size(); ++i) {
    EXPECT_FALSE(terms[i + 1] < terms[i]);
  }
}

TEST_F(ApiSurfaceTest, DatabaseToStringRoundTrips) {
  Database db = *ParseDatabase("p(1, red). q('two words').", &interner_);
  std::string text = db.ToString(interner_);
  Database again = *ParseDatabase(text, &interner_);
  EXPECT_TRUE(db.SameFactsAs(again));
}

TEST_F(ApiSurfaceTest, ViewSetToStringMarksCompleteSources) {
  Result<ViewSet> parsed = ParseViews("v(X) :- p(X).", &interner_);
  ASSERT_TRUE(parsed.ok());
  std::vector<ViewDefinition> defs = parsed->views();
  defs[0].complete = true;
  ViewSet views = *ViewSet::Make(std::move(defs), &interner_);
  EXPECT_NE(views.ToString(interner_).find("% complete"), std::string::npos);
}

TEST_F(ApiSurfaceTest, MatchingTuplesPrunesByColumn) {
  Database db = *ParseDatabase(
      "e(a, b). e(a, c). e(b, c). e(c, d).", &interner_);
  SymbolId e = interner_.Lookup("e");
  Term a = Term::Symbol(interner_.Lookup("a"));
  const std::vector<int32_t>* hits = db.MatchingTuples(e, 0, a);
  ASSERT_NE(hits, nullptr);
  EXPECT_EQ(hits->size(), 2u);
  // Out-of-range column: no index.
  EXPECT_EQ(db.MatchingTuples(e, 5, a), nullptr);
  // Unknown predicate: empty.
  const std::vector<int32_t>* none =
      db.MatchingTuples(interner_.Intern("ghost"), 0, a);
  ASSERT_NE(none, nullptr);
  EXPECT_TRUE(none->empty());
}

TEST_F(ApiSurfaceTest, EvaluatorReportsIterations) {
  Program tc = *ParseProgram(
      "tc(X, Y) :- e(X, Y).\n"
      "tc(X, Y) :- e(X, Z), tc(Z, Y).\n",
      &interner_);
  Database line = *ParseDatabase("e(1, 2). e(2, 3).", &interner_);
  Result<EvalResult> r = Evaluate(tc, line);
  ASSERT_TRUE(r.ok());
  EXPECT_GE(r->iterations, 2);
  EXPECT_FALSE(r->depth_truncated);
}

TEST_F(ApiSurfaceTest, UnionQueryToStringListsAllDisjuncts) {
  UnionQuery u;
  u.disjuncts.push_back(*ParseRule("q(X) :- a(X).", &interner_));
  u.disjuncts.push_back(*ParseRule("q(X) :- b(X).", &interner_));
  std::string text = u.ToString(interner_);
  EXPECT_NE(text.find("a(X)"), std::string::npos);
  EXPECT_NE(text.find("b(X)"), std::string::npos);
  Result<Program> reparsed = ParseProgram(text, &interner_);
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed->rules.size(), 2u);
}

TEST_F(ApiSurfaceTest, WorkloadGeneratorsAreDeterministic) {
  RandomQueryOptions opts;
  opts.seed = 99;
  Rule a = RandomConjunctiveQuery(opts, "g", &interner_);
  Rule b = RandomConjunctiveQuery(opts, "g", &interner_);
  EXPECT_EQ(a, b);
  Database g1 = RandomGraph("e", 10, 20, 5, &interner_);
  Database g2 = RandomGraph("e", 10, 20, 5, &interner_);
  EXPECT_TRUE(g1.SameFactsAs(g2));
}

TEST_F(ApiSurfaceTest, ChainAndStarShapes) {
  Rule chain = ChainQuery(3, "g", "e", &interner_);
  EXPECT_EQ(chain.body.size(), 3u);
  EXPECT_EQ(chain.head.arity(), 2);
  EXPECT_TRUE(chain.CheckSafe().ok());
  Rule star = StarQuery(4, "g", "e", &interner_);
  EXPECT_EQ(star.body.size(), 4u);
  EXPECT_EQ(star.head.arity(), 1);
  // All rays share the center.
  for (const Atom& atom : star.body) {
    EXPECT_EQ(atom.args[0], star.head.args[0]);
  }
}

TEST_F(ApiSurfaceTest, UnfoldEmptyGoalYieldsEmptyUnion) {
  Program p = *ParseProgram("q(X) :- a(X).", &interner_);
  Result<UnionQuery> u =
      UnfoldToUnion(p, interner_.Intern("nothing"), &interner_);
  ASSERT_TRUE(u.ok());
  EXPECT_TRUE(u->disjuncts.empty());
}

TEST_F(ApiSurfaceTest, ComparisonOpHelpers) {
  EXPECT_EQ(FlipComparisonOp(ComparisonOp::kLt), ComparisonOp::kGt);
  EXPECT_EQ(FlipComparisonOp(ComparisonOp::kGe), ComparisonOp::kLe);
  EXPECT_EQ(FlipComparisonOp(ComparisonOp::kEq), ComparisonOp::kEq);
  EXPECT_EQ(NegateComparisonOp(ComparisonOp::kLt), ComparisonOp::kGe);
  EXPECT_EQ(NegateComparisonOp(ComparisonOp::kNe), ComparisonOp::kEq);
  EXPECT_STREQ(ComparisonOpToString(ComparisonOp::kLe), "<=");
}

TEST_F(ApiSurfaceTest, SemiIntervalClassifierOnAtoms) {
  Term x = Term::Var(interner_.Intern("X"));
  Term y = Term::Var(interner_.Intern("Y"));
  Term five = Term::Number(Rational(5));
  EXPECT_TRUE(Comparison(x, ComparisonOp::kLt, five).IsSemiInterval());
  EXPECT_TRUE(Comparison(five, ComparisonOp::kGe, x).IsSemiInterval());
  EXPECT_FALSE(Comparison(x, ComparisonOp::kLt, y).IsSemiInterval());
  EXPECT_FALSE(Comparison(x, ComparisonOp::kEq, five).IsSemiInterval());
  Term red = Term::Symbol(interner_.Intern("red"));
  EXPECT_FALSE(Comparison(x, ComparisonOp::kLt, red).IsSemiInterval());
}

TEST_F(ApiSurfaceTest, GroundComparisonEvaluation) {
  Term a = Term::Number(Rational(1));
  Term b = Term::Number(Rational(2));
  EXPECT_TRUE(Comparison(a, ComparisonOp::kLt, b).EvaluateGround());
  EXPECT_FALSE(Comparison(b, ComparisonOp::kLt, a).EvaluateGround());
  Term red = Term::Symbol(interner_.Intern("red"));
  Term blue = Term::Symbol(interner_.Intern("blue"));
  EXPECT_TRUE(Comparison(red, ComparisonOp::kNe, blue).EvaluateGround());
  EXPECT_FALSE(Comparison(red, ComparisonOp::kLt, blue).EvaluateGround());
  // Non-ground evaluates to false.
  Term x = Term::Var(interner_.Intern("X"));
  EXPECT_FALSE(Comparison(x, ComparisonOp::kEq, x).EvaluateGround());
}

}  // namespace
}  // namespace relcont

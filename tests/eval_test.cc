#include <gtest/gtest.h>

#include "common/budget.h"
#include "datalog/parser.h"
#include "eval/evaluator.h"

namespace relcont {
namespace {

class EvalTest : public ::testing::Test {
 protected:
  Program MustParseProgram(const std::string& text) {
    Result<Program> p = ParseProgram(text, &interner_);
    EXPECT_TRUE(p.ok()) << p.status().ToString();
    return *p;
  }
  Database MustParseDatabase(const std::string& text) {
    Result<Database> d = ParseDatabase(text, &interner_);
    EXPECT_TRUE(d.ok()) << d.status().ToString();
    return *d;
  }
  std::vector<Tuple> Goal(const Program& p, const char* goal,
                          const Database& db) {
    Result<std::vector<Tuple>> r =
        EvaluateGoal(p, interner_.Lookup(goal), db);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return *r;
  }

  Interner interner_;
};

TEST_F(EvalTest, DatabaseAddAndContains) {
  Database db = MustParseDatabase("p(1, 2). p(1, 2). p(3, 4).");
  SymbolId p = interner_.Lookup("p");
  EXPECT_EQ(db.TotalFacts(), 2);
  EXPECT_EQ(db.Count(p), 2);
  EXPECT_TRUE(db.Contains(p, {Term::Number(1), Term::Number(2)}));
  EXPECT_FALSE(db.Contains(p, {Term::Number(2), Term::Number(1)}));
}

TEST_F(EvalTest, ParseDatabaseRejectsRulesAndNonGround) {
  EXPECT_FALSE(ParseDatabase("p(X).", &interner_).ok());
  EXPECT_FALSE(ParseDatabase("p(1) :- q(1).", &interner_).ok());
}

TEST_F(EvalTest, ActiveDomainDeduplicates) {
  Database db = MustParseDatabase("p(1, red). q(red, 2).");
  EXPECT_EQ(db.ActiveDomain().size(), 3u);  // 1, red, 2
}

TEST_F(EvalTest, SingleRuleJoin) {
  Program p = MustParseProgram("q(X, Z) :- e(X, Y), e(Y, Z).");
  Database db = MustParseDatabase("e(1, 2). e(2, 3). e(3, 4).");
  std::vector<Tuple> out = Goal(p, "q", db);
  EXPECT_EQ(out.size(), 2u);  // (1,3), (2,4)
}

TEST_F(EvalTest, TransitiveClosure) {
  Program p = MustParseProgram(
      "tc(X, Y) :- e(X, Y).\n"
      "tc(X, Y) :- e(X, Z), tc(Z, Y).\n");
  Database db = MustParseDatabase("e(1, 2). e(2, 3). e(3, 4). e(4, 2).");
  std::vector<Tuple> out = Goal(p, "tc", db);
  // From 1: 2,3,4; from 2: 3,4,2; from 3: 4,2,3; from 4: 2,3,4.
  EXPECT_EQ(out.size(), 12u);
}

TEST_F(EvalTest, SemiNaiveIterationCountIsLinearInChain) {
  Program p = MustParseProgram(
      "tc(X, Y) :- e(X, Y).\n"
      "tc(X, Y) :- e(X, Z), tc(Z, Y).\n");
  Database db =
      MustParseDatabase("e(1, 2). e(2, 3). e(3, 4). e(4, 5). e(5, 6).");
  Result<EvalResult> r = Evaluate(p, db);
  ASSERT_TRUE(r.ok());
  EXPECT_GE(r->iterations, 5);
  EXPECT_LE(r->iterations, 7);
}

TEST_F(EvalTest, ComparisonsFilterDerivations) {
  Program p = MustParseProgram("old(C) :- car(C, Y), Y < 1970.");
  Database db = MustParseDatabase("car(1, 1965). car(2, 1980). car(3, 1969).");
  std::vector<Tuple> out = Goal(p, "old", db);
  EXPECT_EQ(out.size(), 2u);
}

TEST_F(EvalTest, ComparisonOnSymbolsSupportsEqualityOnly) {
  Program p = MustParseProgram(
      "match(X) :- item(X, C), C = red.\n"
      "nomatch(X) :- item(X, C), C != red.\n"
      "weird(X) :- item(X, C), C < red.\n");
  Database db = MustParseDatabase("item(1, red). item(2, blue).");
  EXPECT_EQ(Goal(p, "match", db).size(), 1u);
  EXPECT_EQ(Goal(p, "nomatch", db).size(), 1u);
  EXPECT_EQ(Goal(p, "weird", db).size(), 0u);  // order undefined on symbols
}

TEST_F(EvalTest, ConstantsInRuleBodiesSelect) {
  Program p = MustParseProgram("top(M, R) :- review(M, R, 10).");
  Database db = MustParseDatabase(
      "review(corolla, good, 10). review(pinto, bad, 2).");
  std::vector<Tuple> out = Goal(p, "top", db);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0][0].value().symbol(), interner_.Lookup("corolla"));
}

TEST_F(EvalTest, SkolemHeadsConstructFunctionTerms) {
  // Inverse-rule style: antique cars have an unknown color f(C, M, Y).
  Program p = MustParseProgram(
      "cardesc(C, M, f(C, M, Y), Y) :- antique(C, M, Y).\n"
      "q(C, Col) :- cardesc(C, M, Col, Y).\n");
  Database db = MustParseDatabase("antique(7, model_t, 1920).");
  // q's answer contains a Skolem term, so it is filtered from goal output.
  EXPECT_EQ(Goal(p, "q", db).size(), 0u);
  // But the fact itself is derived.
  Result<EvalResult> r = Evaluate(p, db);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->database.Tuples(interner_.Lookup("cardesc")).size(), 1u);
  EXPECT_EQ(r->database.Tuples(interner_.Lookup("q")).size(), 1u);
}

TEST_F(EvalTest, SkolemTermsJoinStructurally) {
  Program p = MustParseProgram(
      "v(f(X), X) :- a(X).\n"
      "w(Y) :- v(Z, Y), v(Z, Y2).\n");
  Database db = MustParseDatabase("a(1). a(2).");
  std::vector<Tuple> out = Goal(p, "w", db);
  // f(1) joins only with f(1): w(1), w(2).
  EXPECT_EQ(out.size(), 2u);
}

TEST_F(EvalTest, DepthBoundStopsRunawaySkolems) {
  // p(f(X)) :- p(X) would diverge without the term-depth bound.
  Program p = MustParseProgram("p(f(X)) :- p(X).\n");
  Database db = MustParseDatabase("p(0).");
  EvalOptions opts;
  opts.max_term_depth = 3;
  Result<EvalResult> r = Evaluate(p, db, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->depth_truncated);
  EXPECT_EQ(r->database.Tuples(interner_.Lookup("p")).size(), 4u);
}

TEST_F(EvalTest, StepBudgetBoundsEvaluation) {
  Program p = MustParseProgram("pair(X, Y) :- a(X), a(Y).");
  std::string facts;
  for (int i = 0; i < 100; ++i) facts += "a(" + std::to_string(i) + ").";
  Database db = MustParseDatabase(facts);
  WorkBudget budget;
  budget.set_max_steps(1000);  // one step per join result; 10000 needed
  BudgetScope scope(&budget);
  Result<EvalResult> r = Evaluate(p, db);
  EXPECT_EQ(r.status().code(), StatusCode::kBoundReached);
}

TEST_F(EvalTest, MultipleGoalRulesUnion) {
  Program p = MustParseProgram(
      "q(X) :- a(X).\n"
      "q(X) :- b(X).\n");
  Database db = MustParseDatabase("a(1). b(2). b(1).");
  EXPECT_EQ(Goal(p, "q", db).size(), 2u);
}

TEST_F(EvalTest, EmptyEdbYieldsEmptyGoal) {
  Program p = MustParseProgram("q(X) :- a(X).");
  Database db;
  EXPECT_EQ(Goal(p, "q", db).size(), 0u);
}

TEST_F(EvalTest, MutualRecursionTerminates) {
  Program p = MustParseProgram(
      "even(X) :- zero(X).\n"
      "even(Y) :- succ(X, Y), odd(X).\n"
      "odd(Y) :- succ(X, Y), even(X).\n");
  Database db = MustParseDatabase(
      "zero(0). succ(0, 1). succ(1, 2). succ(2, 3). succ(3, 4).");
  EXPECT_EQ(Goal(p, "even", db).size(), 3u);  // 0, 2, 4
  EXPECT_EQ(Goal(p, "odd", db).size(), 2u);   // 1, 3
}

TEST_F(EvalTest, DatabaseSetOperations) {
  Database a = MustParseDatabase("p(1). q(2).");
  Database b = MustParseDatabase("p(1).");
  EXPECT_TRUE(b.SubsetOf(a));
  EXPECT_FALSE(a.SubsetOf(b));
  EXPECT_FALSE(a.SameFactsAs(b));
  b.UnionWith(a);
  EXPECT_TRUE(a.SameFactsAs(b));
}

}  // namespace
}  // namespace relcont

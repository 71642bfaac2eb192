#include <gtest/gtest.h>

#include "common/budget.h"
#include "datalog/parser.h"
#include "datalog/program.h"
#include "datalog/substitution.h"
#include "datalog/unfold.h"

namespace relcont {
namespace {

class DatalogTest : public ::testing::Test {
 protected:
  Rule MustParseRule(const std::string& text) {
    Result<Rule> r = ParseRule(text, &interner_);
    EXPECT_TRUE(r.ok()) << r.status().ToString() << " for: " << text;
    return *r;
  }
  Program MustParseProgram(const std::string& text) {
    Result<Program> p = ParseProgram(text, &interner_);
    EXPECT_TRUE(p.ok()) << p.status().ToString() << " for: " << text;
    return *p;
  }

  Interner interner_;
};

TEST_F(DatalogTest, ParsesSimpleRule) {
  Rule r = MustParseRule("q(X, Y) :- p(X, Z), r(Z, Y).");
  EXPECT_EQ(r.head.arity(), 2);
  EXPECT_EQ(r.body.size(), 2u);
  EXPECT_TRUE(r.comparisons.empty());
  EXPECT_TRUE(r.head.args[0].is_variable());
}

TEST_F(DatalogTest, ParsesFact) {
  Rule r = MustParseRule("p(1, red).");
  EXPECT_TRUE(r.body.empty());
  EXPECT_TRUE(r.head.IsGround());
  EXPECT_TRUE(r.head.args[0].value().is_number());
  EXPECT_TRUE(r.head.args[1].value().is_symbol());
}

TEST_F(DatalogTest, ParsesComparisons) {
  Rule r = MustParseRule(
      "q3(C, R) :- cardesc(C, M, Col, Y), review(M, R, 10), Y < 1970.");
  EXPECT_EQ(r.body.size(), 2u);
  ASSERT_EQ(r.comparisons.size(), 1u);
  EXPECT_EQ(r.comparisons[0].op, ComparisonOp::kLt);
  EXPECT_EQ(r.comparisons[0].rhs.value().number(), Rational(1970));
}

TEST_F(DatalogTest, ParsesAllComparisonOps) {
  Rule r = MustParseRule(
      "q(X) :- p(X, Y, Z), X < 1, X <= 2, Y > 3, Y >= 4, Z = 5, Z != 6.");
  ASSERT_EQ(r.comparisons.size(), 6u);
  EXPECT_EQ(r.comparisons[0].op, ComparisonOp::kLt);
  EXPECT_EQ(r.comparisons[1].op, ComparisonOp::kLe);
  EXPECT_EQ(r.comparisons[2].op, ComparisonOp::kGt);
  EXPECT_EQ(r.comparisons[3].op, ComparisonOp::kGe);
  EXPECT_EQ(r.comparisons[4].op, ComparisonOp::kEq);
  EXPECT_EQ(r.comparisons[5].op, ComparisonOp::kNe);
}

TEST_F(DatalogTest, ParsesZeroArityHeads) {
  Rule r1 = MustParseRule("q() :- p(X).");
  EXPECT_EQ(r1.head.arity(), 0);
  Rule r2 = MustParseRule("q :- p(X).");
  EXPECT_EQ(r2.head.arity(), 0);
}

TEST_F(DatalogTest, ParsesQuotedAndDecimalConstants) {
  Rule r = MustParseRule("q(X) :- p(X, 'red car', 12.5).");
  EXPECT_EQ(r.body[0].args[1].value().symbol(), interner_.Lookup("red car"));
  EXPECT_EQ(r.body[0].args[2].value().number(), Rational(25, 2));
}

TEST_F(DatalogTest, ParsesFunctionTerms) {
  Rule r = MustParseRule("cardesc(C, M, f(C, M, Y), Y) :- antique(C, M, Y).");
  const Term& skolem = r.head.args[2];
  EXPECT_TRUE(skolem.is_function());
  EXPECT_EQ(skolem.args().size(), 3u);
}

TEST_F(DatalogTest, ParseErrorsAreReported) {
  EXPECT_FALSE(ParseRule("q(X) :- ", &interner_).ok());
  EXPECT_FALSE(ParseRule("q(X) :- p(X", &interner_).ok());
  EXPECT_FALSE(ParseRule("q(X) :- p(X) r(X).", &interner_).ok());
  EXPECT_FALSE(ParseRule("q(X) : p(X).", &interner_).ok());
  EXPECT_FALSE(ParseRule("q(X) :- p('unterminated).", &interner_).ok());
}

TEST_F(DatalogTest, CommentsAreSkipped) {
  Program p = MustParseProgram(
      "% listing rules\n"
      "q(X) :- p(X).  % body comment\n"
      "p(1).\n");
  EXPECT_EQ(p.rules.size(), 2u);
}

TEST_F(DatalogTest, RoundTripThroughPrinter) {
  const std::string text =
      "q3(C, R) :- cardesc(C, M, Col, Y), review(M, R, 10), Y < 1970.";
  Rule r = MustParseRule(text);
  std::string printed = r.ToString(interner_);
  Rule reparsed = MustParseRule(printed);
  EXPECT_EQ(r, reparsed) << printed;
}

TEST_F(DatalogTest, SafetyAcceptsSafeRule) {
  Rule r = MustParseRule("q(X) :- p(X, Y), Y < 3.");
  EXPECT_TRUE(r.CheckSafe().ok());
}

TEST_F(DatalogTest, SafetyRejectsUnboundHeadVariable) {
  Rule r = MustParseRule("q(X, W) :- p(X, Y).");
  Status s = r.CheckSafe();
  EXPECT_EQ(s.code(), StatusCode::kUnsafe);
}

TEST_F(DatalogTest, SafetyRejectsComparisonOnlyVariable) {
  Rule r = MustParseRule("q(X) :- p(X), W < 3.");
  EXPECT_EQ(r.CheckSafe().code(), StatusCode::kUnsafe);
}

TEST_F(DatalogTest, VariableCollection) {
  Rule r = MustParseRule("q(X, Y) :- p(X, Z), r(Z, Y), Z < 5.");
  std::vector<SymbolId> vars = r.Variables();
  EXPECT_EQ(vars.size(), 3u);  // X, Y, Z
  EXPECT_EQ(r.HeadVariables().size(), 2u);
  EXPECT_EQ(r.BodyVariables().size(), 3u);
}

TEST_F(DatalogTest, ConstantsCollection) {
  Rule r = MustParseRule("q(X) :- p(X, red, 7), X < 9.");
  std::vector<Value> consts = r.Constants();
  EXPECT_EQ(consts.size(), 3u);  // red, 7, 9
}

TEST_F(DatalogTest, IdbEdbSplit) {
  Program p = MustParseProgram(
      "q(X) :- p(X), r(X).\n"
      "p(X) :- s(X, Y).\n");
  std::set<SymbolId> idb = p.IdbPredicates();
  std::set<SymbolId> edb = p.EdbPredicates();
  EXPECT_EQ(idb.size(), 2u);  // q, p
  EXPECT_EQ(edb.size(), 2u);  // r, s
  EXPECT_TRUE(idb.count(interner_.Lookup("q")) > 0);
  EXPECT_TRUE(edb.count(interner_.Lookup("s")) > 0);
}

TEST_F(DatalogTest, RecursionDetection) {
  Program nonrec = MustParseProgram(
      "q(X) :- p(X).\n"
      "p(X) :- e(X).\n");
  EXPECT_FALSE(nonrec.IsRecursive());

  Program rec = MustParseProgram(
      "tc(X, Y) :- e(X, Y).\n"
      "tc(X, Y) :- e(X, Z), tc(Z, Y).\n");
  EXPECT_TRUE(rec.IsRecursive());
  EXPECT_EQ(rec.RecursivePredicates().size(), 1u);

  Program mutual = MustParseProgram(
      "a(X) :- b(X).\n"
      "b(X) :- a(X).\n"
      "c(X) :- a(X).\n");
  EXPECT_TRUE(mutual.IsRecursive());
  EXPECT_EQ(mutual.RecursivePredicates().size(), 2u);
  EXPECT_EQ(mutual.RecursivePredicates().count(interner_.Lookup("c")), 0u);

  // Two paths to one predicate are not a cycle.
  Program diamond = MustParseProgram(
      "a(X) :- b(X), c(X).\n"
      "b(X) :- d(X).\n"
      "c(X) :- d(X).\n"
      "d(X) :- e(X).\n");
  EXPECT_FALSE(diamond.IsRecursive());
  EXPECT_TRUE(diamond.RecursivePredicates().empty());

  // A deep acyclic chain p0 :- p1 :- ... :- p199 :- e, rules listed from
  // the bottom up; closing it makes every predicate recursive.
  std::string chain;
  for (int i = 199; i >= 0; --i) {
    std::string body = i == 199 ? "e(X)" : "p" + std::to_string(i + 1) + "(X)";
    chain += "p" + std::to_string(i) + "(X) :- " + body + ".\n";
  }
  EXPECT_FALSE(MustParseProgram(chain).IsRecursive());
  Program closed = MustParseProgram(chain + "p199(X) :- p0(X).\n");
  EXPECT_TRUE(closed.IsRecursive());
  EXPECT_EQ(closed.RecursivePredicates().size(), 200u);

  // A cycle the goal cannot reach still makes the program recursive.
  Program unreachable = MustParseProgram(
      "q(X) :- e(X).\n"
      "t(X) :- t(X).\n");
  EXPECT_TRUE(unreachable.IsRecursive());
  EXPECT_EQ(unreachable.RecursivePredicates().size(), 1u);
}

TEST_F(DatalogTest, TopologicalOrderRespectsDependencies) {
  Program p = MustParseProgram(
      "a(X) :- b(X), c(X).\n"
      "b(X) :- c(X).\n"
      "c(X) :- e(X).\n");
  Result<std::vector<SymbolId>> order = p.TopologicalIdbOrder();
  ASSERT_TRUE(order.ok());
  ASSERT_EQ(order->size(), 3u);
  auto pos = [&](const char* name) {
    SymbolId id = interner_.Lookup(name);
    for (size_t i = 0; i < order->size(); ++i) {
      if ((*order)[i] == id) return static_cast<int>(i);
    }
    return -1;
  };
  EXPECT_LT(pos("c"), pos("b"));
  EXPECT_LT(pos("b"), pos("a"));
}

TEST_F(DatalogTest, TopologicalOrderFailsOnRecursion) {
  Program rec = MustParseProgram("t(X) :- t(X).\n");
  EXPECT_EQ(rec.TopologicalIdbOrder().status().code(),
            StatusCode::kUnsupported);
}

TEST_F(DatalogTest, UnificationBindsVariables) {
  Rule r1 = MustParseRule("q(X, Y) :- p(X, Y).");
  Rule r2 = MustParseRule("q(1, Z) :- p(1, Z).");
  Substitution s;
  EXPECT_TRUE(UnifyAtoms(r1.head, r2.head, &s));
  Term x = s.Apply(Term::Var(interner_.Lookup("X")));
  EXPECT_TRUE(x.is_constant());
  EXPECT_EQ(x.value().number(), Rational(1));
}

TEST_F(DatalogTest, UnificationOccursCheck) {
  SymbolId x = interner_.Intern("X");
  SymbolId f = interner_.Intern("f");
  Substitution s;
  // X = f(X) must fail.
  EXPECT_FALSE(UnifyTerms(Term::Var(x), Term::Function(f, {Term::Var(x)}), &s));
}

TEST_F(DatalogTest, UnificationFunctionTerms) {
  SymbolId f = interner_.Intern("f");
  SymbolId g = interner_.Intern("g");
  SymbolId x = interner_.Intern("X");
  SymbolId y = interner_.Intern("Y");
  {
    // f(X, 2) ~ f(1, Y) succeeds with X=1, Y=2.
    Substitution s;
    EXPECT_TRUE(UnifyTerms(
        Term::Function(f, {Term::Var(x), Term::Number(Rational(2))}),
        Term::Function(f, {Term::Number(Rational(1)), Term::Var(y)}), &s));
    EXPECT_EQ(s.Apply(Term::Var(x)).value().number(), Rational(1));
    EXPECT_EQ(s.Apply(Term::Var(y)).value().number(), Rational(2));
  }
  {
    // f(X) ~ g(X) fails (different functors).
    Substitution s;
    EXPECT_FALSE(UnifyTerms(Term::Function(f, {Term::Var(x)}),
                            Term::Function(g, {Term::Var(x)}), &s));
  }
  {
    // f(X) ~ 1 fails (function vs constant).
    Substitution s;
    EXPECT_FALSE(UnifyTerms(Term::Function(f, {Term::Var(x)}),
                            Term::Number(Rational(1)), &s));
  }
}

TEST_F(DatalogTest, UnificationConstantClash) {
  SymbolId red = interner_.Intern("red");
  Substitution s;
  EXPECT_FALSE(
      UnifyTerms(Term::Number(Rational(1)), Term::Symbol(red), &s));
  EXPECT_TRUE(UnifyTerms(Term::Symbol(red), Term::Symbol(red), &s));
}

TEST_F(DatalogTest, SubstitutionFollowsChains) {
  SymbolId x = interner_.Intern("X");
  SymbolId y = interner_.Intern("Y");
  Substitution s;
  s.Bind(x, Term::Var(y));
  s.Bind(y, Term::Number(Rational(5)));
  Term out = s.Apply(Term::Var(x));
  EXPECT_TRUE(out.is_constant());
  EXPECT_EQ(out.value().number(), Rational(5));
}

TEST_F(DatalogTest, ApplyOnceSwapsWithoutChasing) {
  SymbolId x = interner_.Intern("X");
  SymbolId y = interner_.Intern("Y");
  SymbolId p = interner_.Intern("p");
  Substitution s;
  s.Bind(x, Term::Var(y));
  s.Bind(y, Term::Var(x));
  Atom swapped = s.ApplyOnce(Atom(p, {Term::Var(x), Term::Var(y)}));
  EXPECT_EQ(swapped, Atom(p, {Term::Var(y), Term::Var(x)}));
}

TEST_F(DatalogTest, ApplyChasesChainsIntoFunctionArguments) {
  SymbolId x = interner_.Intern("X");
  SymbolId y = interner_.Intern("Y");
  SymbolId z = interner_.Intern("Z");
  SymbolId v = interner_.Intern("V");
  SymbolId w = interner_.Intern("W");
  SymbolId f = interner_.Intern("f");
  SymbolId g = interner_.Intern("g");
  Substitution s;
  s.Bind(x, Term::Var(y));
  s.Bind(y, Term::Function(f, {Term::Var(z), Term::Var(w)}));
  s.Bind(z, Term::Var(v));
  s.Bind(v, Term::Number(Rational(1)));
  Term expected =
      Term::Function(f, {Term::Number(Rational(1)), Term::Var(w)});
  EXPECT_EQ(s.Apply(Term::Var(x)), expected);
  EXPECT_EQ(s.Apply(Term::Function(g, {Term::Var(x)})),
            Term::Function(g, {expected}));
}

TEST_F(DatalogTest, RebindOverwrites) {
  SymbolId x = interner_.Intern("X");
  Substitution s;
  s.Bind(x, Term::Number(Rational(1)));
  s.Bind(x, Term::Number(Rational(2)));
  EXPECT_EQ(s.size(), 1u);
  EXPECT_EQ(s.Apply(Term::Var(x)), Term::Number(Rational(2)));
}

TEST_F(DatalogTest, UndoRestoresTheStoreAtItsMark) {
  SymbolId x = interner_.Intern("X");
  SymbolId y = interner_.Intern("Y");
  SymbolId z = interner_.Fresh("_R");
  Substitution s;
  s.Bind(x, Term::Number(Rational(1)));
  const size_t mark = s.Mark();
  s.Bind(y, Term::Var(z));
  s.Bind(z, Term::Number(Rational(2)));
  s.Bind(x, Term::Number(Rational(3)));  // overwrites the binding at mark
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(s.Apply(Term::Var(y)), Term::Number(Rational(2)));
  s.Undo(mark);
  EXPECT_EQ(s.size(), 1u);
  EXPECT_EQ(s.Apply(Term::Var(x)), Term::Number(Rational(1)));
  EXPECT_FALSE(s.Contains(y));
  EXPECT_FALSE(s.Contains(z));
  s.Undo(0);
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.Find(x), nullptr);
}

TEST_F(DatalogTest, RigidVariablesUnifyOnlyWithThemselves) {
  SymbolId rigid = interner_.Fresh("_R");
  SymbolId other_rigid = interner_.Fresh("_R");
  SymbolId first_bindable = interner_.FreshBlock("_R", 0);
  SymbolId free = interner_.Fresh("_R");
  Substitution s;
  EXPECT_TRUE(UnifyTerms(Term::Var(rigid), Term::Var(rigid), &s,
                         first_bindable));
  EXPECT_FALSE(UnifyTerms(Term::Var(rigid), Term::Number(Rational(1)), &s,
                          first_bindable));
  EXPECT_FALSE(UnifyTerms(Term::Var(rigid), Term::Var(other_rigid), &s,
                          first_bindable));
  EXPECT_TRUE(s.empty());
  // A bindable variable takes the rigid one as its value.
  EXPECT_TRUE(UnifyTerms(Term::Var(rigid), Term::Var(free), &s,
                         first_bindable));
  EXPECT_EQ(s.Apply(Term::Var(free)), Term::Var(rigid));
}

TEST_F(DatalogTest, OccursCheckFollowsChains) {
  SymbolId x = interner_.Intern("X");
  SymbolId y = interner_.Intern("Y");
  SymbolId f = interner_.Intern("f");
  Substitution s;
  ASSERT_TRUE(UnifyTerms(Term::Var(x), Term::Function(f, {Term::Var(y)}),
                         &s));
  // Y = X would make Y = f(Y).
  EXPECT_FALSE(UnifyTerms(Term::Var(y), Term::Var(x), &s));
}

TEST_F(DatalogTest, RenameApartMintsOneFreshNamePerVariable) {
  const std::string text = "q(X, Y) :- p(X, Z), r(Z, Y, W), s(W, X).";
  Rule r = MustParseRule(text);
  int64_t before = interner_.size();
  Rule renamed = RenameApart(r, &interner_);
  ASSERT_EQ(interner_.size() - before, 4);
  // The same names as four Fresh("_R") calls on an identical interner, in
  // first-occurrence order.
  Interner twin;
  ASSERT_TRUE(ParseRule(text, &twin).ok());
  std::vector<SymbolId> vars = renamed.Variables();
  ASSERT_EQ(vars.size(), 4u);
  for (SymbolId v : vars) {
    EXPECT_EQ(interner_.NameOf(v), twin.NameOf(twin.Fresh("_R")));
  }
  EXPECT_EQ(renamed.ToString(interner_),
            "q(_R0, _R1) :- p(_R0, _R2), r(_R2, _R1, _R3), s(_R3, _R0).");
}

TEST_F(DatalogTest, RenameApartProducesDisjointVariables) {
  Rule r = MustParseRule("q(X, Y) :- p(X, Y, Z).");
  Rule renamed = RenameApart(r, &interner_);
  std::vector<SymbolId> orig = r.Variables();
  std::vector<SymbolId> fresh = renamed.Variables();
  EXPECT_EQ(fresh.size(), orig.size());
  for (SymbolId v : fresh) {
    for (SymbolId w : orig) EXPECT_NE(v, w);
  }
  // Structure preserved: head vars coincide with body prefix.
  EXPECT_EQ(renamed.head.args[0], renamed.body[0].args[0]);
  EXPECT_EQ(renamed.head.args[1], renamed.body[0].args[1]);
}

TEST_F(DatalogTest, UnfoldLinearChain) {
  Program p = MustParseProgram(
      "q(X) :- a(X).\n"
      "a(X) :- b(X, Y), c(Y).\n");
  Result<UnionQuery> u =
      UnfoldToUnion(p, interner_.Lookup("q"), &interner_);
  ASSERT_TRUE(u.ok()) << u.status().ToString();
  ASSERT_EQ(u->disjuncts.size(), 1u);
  EXPECT_EQ(u->disjuncts[0].body.size(), 2u);
  EXPECT_EQ(u->disjuncts[0].body[0].predicate, interner_.Lookup("b"));
}

TEST_F(DatalogTest, UnfoldBranchingProducesUnion) {
  Program p = MustParseProgram(
      "q(X) :- a(X), a(X).\n"  // a resolved twice
      "a(X) :- b(X).\n"
      "a(X) :- c(X).\n");
  Result<UnionQuery> u = UnfoldToUnion(p, interner_.Lookup("q"), &interner_);
  ASSERT_TRUE(u.ok());
  EXPECT_EQ(u->disjuncts.size(), 4u);  // 2 choices x 2 choices
}

TEST_F(DatalogTest, UnfoldCarriesComparisons) {
  Program p = MustParseProgram(
      "q(X) :- a(X), X < 10.\n"
      "a(X) :- b(X, Y), Y >= 3.\n");
  Result<UnionQuery> u = UnfoldToUnion(p, interner_.Lookup("q"), &interner_);
  ASSERT_TRUE(u.ok());
  ASSERT_EQ(u->disjuncts.size(), 1u);
  EXPECT_EQ(u->disjuncts[0].comparisons.size(), 2u);
}

TEST_F(DatalogTest, UnfoldRejectsRecursion) {
  Program p = MustParseProgram("t(X) :- e(X).\nt(X) :- t(X).\n");
  EXPECT_EQ(UnfoldToUnion(p, interner_.Lookup("t"), &interner_)
                .status()
                .code(),
            StatusCode::kUnsupported);
}

TEST_F(DatalogTest, UnfoldWithConstantsFiltersUnunifiableBranches) {
  // a's second definition requires its argument to be 1; resolving q's
  // subgoal a(2) against it must fail.
  Program p = MustParseProgram(
      "q() :- a(2).\n"
      "a(X) :- b(X).\n"
      "a(1) :- c().\n");
  Result<UnionQuery> u = UnfoldToUnion(p, interner_.Lookup("q"), &interner_);
  ASSERT_TRUE(u.ok());
  ASSERT_EQ(u->disjuncts.size(), 1u);
  EXPECT_EQ(u->disjuncts[0].body[0].predicate, interner_.Lookup("b"));
}

TEST_F(DatalogTest, UnfoldStepBudgetBound) {
  Program p = MustParseProgram(
      "q(X) :- a(X), a(X), a(X), a(X).\n"
      "a(X) :- b(X).\n"
      "a(X) :- c(X).\n");
  WorkBudget budget;
  budget.set_max_steps(3);  // 16 disjuncts take 31 resolution steps
  BudgetScope scope(&budget);
  Result<UnionQuery> u = UnfoldToUnion(p, interner_.Lookup("q"), &interner_);
  EXPECT_EQ(u.status().code(), StatusCode::kBoundReached);
}

TEST_F(DatalogTest, ProgramToStringRoundTrips) {
  Program p = MustParseProgram(
      "q(X) :- p(X, Y), Y < 10.\n"
      "p(1, 2).\n");
  Program reparsed = *ParseProgram(p.ToString(interner_), &interner_);
  ASSERT_EQ(reparsed.rules.size(), p.rules.size());
  EXPECT_EQ(reparsed.rules[0], p.rules[0]);
  EXPECT_EQ(reparsed.rules[1], p.rules[1]);
}

}  // namespace
}  // namespace relcont

#include <gtest/gtest.h>

#include "constraints/order_constraints.h"
#include "containment/canonical.h"
#include "containment/comparison_containment.h"
#include "containment/cq_containment.h"
#include "datalog/parser.h"
#include "eval/evaluator.h"
#include "support/linearization_oracle.h"

namespace relcont {
namespace {

class ContainmentTest : public ::testing::Test {
 protected:
  Rule R(const std::string& text) {
    Result<Rule> r = ParseRule(text, &interner_);
    EXPECT_TRUE(r.ok()) << r.status().ToString() << " for " << text;
    return *r;
  }
  UnionQuery U(const std::vector<std::string>& texts) {
    UnionQuery u;
    for (const auto& t : texts) u.disjuncts.push_back(R(t));
    return u;
  }
  bool Contained(const std::string& q1, const std::string& q2) {
    Result<bool> r = CqContained(R(q1), R(q2));
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return *r;
  }
  bool ContainedCmp(const std::string& q1, const std::string& q2) {
    Result<bool> r = CqContainedComplete(R(q1), R(q2));
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return *r;
  }

  Interner interner_;
};

TEST_F(ContainmentTest, IdenticalQueriesContained) {
  EXPECT_TRUE(Contained("q(X) :- p(X, Y).", "q(X) :- p(X, Y)."));
}

TEST_F(ContainmentTest, MoreRestrictiveContainedInLess) {
  // Chain of length 2 is contained in "has an outgoing edge".
  EXPECT_TRUE(Contained("q(X) :- e(X, Y), e(Y, Z).", "q(X) :- e(X, W)."));
  EXPECT_FALSE(Contained("q(X) :- e(X, W).", "q(X) :- e(X, Y), e(Y, Z)."));
}

TEST_F(ContainmentTest, ConstantsMustMatch) {
  EXPECT_TRUE(Contained("q(X) :- p(X, 1).", "q(X) :- p(X, Y)."));
  EXPECT_FALSE(Contained("q(X) :- p(X, Y).", "q(X) :- p(X, 1)."));
  EXPECT_FALSE(Contained("q(X) :- p(X, 2).", "q(X) :- p(X, 1)."));
}

TEST_F(ContainmentTest, HeadVariablesMustCorrespond) {
  EXPECT_FALSE(Contained("q(X, Y) :- p(X, Y).", "q(X, Y) :- p(Y, X)."));
  EXPECT_TRUE(Contained("q(X, X) :- p(X, X).", "q(A, B) :- p(A, B)."));
  EXPECT_FALSE(Contained("q(A, B) :- p(A, B).", "q(X, X) :- p(X, X)."));
}

TEST_F(ContainmentTest, SelfJoinFolding) {
  // Example-1-style: the cycle query maps onto the self-loop.
  EXPECT_TRUE(Contained("q() :- e(X, X).", "q() :- e(A, B), e(B, A)."));
  EXPECT_FALSE(Contained("q() :- e(A, B), e(B, A).", "q() :- e(X, X)."));
}

TEST_F(ContainmentTest, ArityMismatchIsError) {
  EXPECT_FALSE(CqContained(R("q(X) :- p(X)."), R("q(X, Y) :- p(X), p(Y).")).ok());
}

TEST_F(ContainmentTest, ComparisonInputRejectedByClassicalTest) {
  EXPECT_FALSE(
      CqContained(R("q(X) :- p(X), X < 3."), R("q(X) :- p(X).")).ok());
}

TEST_F(ContainmentTest, UnionContainment) {
  UnionQuery u = U({"q(X) :- a(X).", "q(X) :- b(X)."});
  Result<bool> r1 = CqContainedInUnion(R("q(X) :- a(X), c(X)."), u);
  ASSERT_TRUE(r1.ok());
  EXPECT_TRUE(*r1);
  Result<bool> r2 = CqContainedInUnion(R("q(X) :- c(X)."), u);
  ASSERT_TRUE(r2.ok());
  EXPECT_FALSE(*r2);
}

TEST_F(ContainmentTest, UnionInUnionAndEquivalence) {
  UnionQuery u1 = U({"q(X) :- a(X), b(X).", "q(X) :- b(X), c(X)."});
  UnionQuery u2 = U({"q(X) :- b(X)."});
  Result<bool> r = UnionContainedInUnion(u1, u2);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(*r);
  Result<bool> back = UnionContainedInUnion(u2, u1);
  ASSERT_TRUE(back.ok());
  EXPECT_FALSE(*back);
  Result<bool> eq = UnionEquivalent(u1, u1);
  ASSERT_TRUE(eq.ok());
  EXPECT_TRUE(*eq);
}

TEST_F(ContainmentTest, MinimizeUnionDropsRedundantDisjuncts) {
  UnionQuery u = U({"q(X) :- a(X).", "q(X) :- a(X), b(X).",
                    "q(X) :- c(X)."});
  Result<UnionQuery> m = MinimizeUnion(u);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->disjuncts.size(), 2u);  // a(X),b(X) disjunct is redundant
}

TEST_F(ContainmentTest, MinimizeUnionKeepsOneOfEquivalentPair) {
  UnionQuery u = U({"q(X) :- a(X, Y).", "q(X) :- a(X, Z)."});
  Result<UnionQuery> m = MinimizeUnion(u);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->disjuncts.size(), 1u);
}

TEST_F(ContainmentTest, FreezeProducesCanonicalDatabase) {
  Rule q = R("q(X) :- e(X, Y), e(Y, X).");
  Result<FrozenQuery> f = FreezeRule(q, &interner_);
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(f->database.TotalFacts(), 2);
  EXPECT_EQ(f->head_tuple.size(), 1u);
  EXPECT_TRUE(f->head_tuple[0].is_constant());
}

TEST_F(ContainmentTest, UnionContainedInDatalogRecursive) {
  // Paths of length 1 and 3 are contained in transitive closure; an
  // arbitrary edge pair is not.
  Program tc = *ParseProgram(
      "tc(X, Y) :- e(X, Y).\n"
      "tc(X, Y) :- e(X, Z), tc(Z, Y).\n",
      &interner_);
  SymbolId goal = interner_.Lookup("tc");
  UnionQuery contained = U({"q(X, Y) :- e(X, Y).",
                            "q(X, W) :- e(X, Y), e(Y, Z), e(Z, W)."});
  Result<bool> r1 = UnionContainedInDatalog(contained, tc, goal, &interner_);
  ASSERT_TRUE(r1.ok());
  EXPECT_TRUE(*r1);
  UnionQuery not_contained = U({"q(X, W) :- e(X, Y), e(Z, W)."});
  Result<bool> r2 =
      UnionContainedInDatalog(not_contained, tc, goal, &interner_);
  ASSERT_TRUE(r2.ok());
  EXPECT_FALSE(*r2);
}

// ---------------------------------------------------------------------------
// Comparison predicates (Section 5 machinery).
// ---------------------------------------------------------------------------

TEST_F(ContainmentTest, StrongerConditionContained) {
  // Paper Example 1 intuition: Rating=10 is stronger than free Rating.
  EXPECT_TRUE(ContainedCmp(
      "q2(C, R) :- cardesc(C, M, Col, Y), review(M, R, 10).",
      "q1(C, R) :- cardesc(C, M, Col, Y), review(M, R, Rat)."));
  EXPECT_FALSE(ContainedCmp(
      "q1(C, R) :- cardesc(C, M, Col, Y), review(M, R, Rat).",
      "q2(C, R) :- cardesc(C, M, Col, Y), review(M, R, 10)."));
}

TEST_F(ContainmentTest, SemiIntervalContainment) {
  EXPECT_TRUE(ContainedCmp("q(X) :- p(X, Y), Y < 5.",
                           "q(X) :- p(X, Y), Y < 10."));
  EXPECT_FALSE(ContainedCmp("q(X) :- p(X, Y), Y < 10.",
                            "q(X) :- p(X, Y), Y < 5."));
  EXPECT_TRUE(ContainedCmp("q(X) :- p(X, Y), Y <= 5.",
                           "q(X) :- p(X, Y), Y < 6."));
  // Dense domain: Y < 6 admits 5.5, so NOT contained in Y <= 5.
  EXPECT_FALSE(ContainedCmp("q(X) :- p(X, Y), Y < 6.",
                            "q(X) :- p(X, Y), Y <= 5."));
}

TEST_F(ContainmentTest, ComparisonFreeSidesAgreeWithClassicalTest) {
  EXPECT_TRUE(ContainedCmp("q(X) :- e(X, Y), e(Y, Z).", "q(X) :- e(X, W)."));
  EXPECT_FALSE(ContainedCmp("q(X) :- e(X, W).", "q(X) :- e(X, Y), e(Y, Z)."));
}

TEST_F(ContainmentTest, UnsatisfiableLeftSideContainedInAnything) {
  EXPECT_TRUE(ContainedCmp("q(X) :- p(X, Y), Y < 3, Y > 5.",
                           "q(X) :- r(X)."));
}

TEST_F(ContainmentTest, EqualityComparisonNormalization) {
  EXPECT_TRUE(ContainedCmp("q(X) :- p(X, Y), Y = 10.",
                           "q(X) :- p(X, 10)."));
  EXPECT_TRUE(ContainedCmp("q(X) :- p(X, 10).",
                           "q(X) :- p(X, Y), Y = 10."));
}

TEST_F(ContainmentTest, ContainmentNeedsUnionWithComparisons) {
  // q(X) :- p(X,Y) is contained in (Y<5) ∪ (Y>=5) but in neither disjunct.
  UnionQuery split = U({"q(X) :- p(X, Y), Y < 5.",
                        "q(X) :- p(X, Y), Y >= 5."});
  Rule plain = R("q(X) :- p(X, Y).");
  Result<bool> whole = CqContainedInUnionComplete(plain, split);
  ASSERT_TRUE(whole.ok());
  EXPECT_TRUE(*whole);
  Result<bool> first = CqContainedComplete(plain, split.disjuncts[0]);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(*first);
  Result<bool> second = CqContainedComplete(plain, split.disjuncts[1]);
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(*second);
}

TEST_F(ContainmentTest, CaseSplitOnVariableOrder) {
  // q(X,Y) :- p(X), p(Y) is contained in (X<=Y branch) ∪ (X>=Y branch).
  UnionQuery split = U({"q(X, Y) :- p(X), p(Y), X <= Y.",
                        "q(X, Y) :- p(X), p(Y), X >= Y."});
  Result<bool> r =
      CqContainedInUnionComplete(R("q(X, Y) :- p(X), p(Y)."), split);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(*r);
  // But not in the <= branch alone.
  Result<bool> half =
      CqContainedComplete(R("q(X, Y) :- p(X), p(Y)."), split.disjuncts[0]);
  ASSERT_TRUE(half.ok());
  EXPECT_FALSE(*half);
}

TEST_F(ContainmentTest, EntailmentTestIsSoundAndSemiIntervalComplete) {
  Result<bool> r1 = CqContainedViaEntailment(
      R("q(X) :- p(X, Y), Y < 5."), R("q(X) :- p(X, Y), Y < 10."));
  ASSERT_TRUE(r1.ok());
  EXPECT_TRUE(*r1);
  Result<bool> r2 = CqContainedViaEntailment(
      R("q(X) :- p(X, Y), Y < 10."), R("q(X) :- p(X, Y), Y < 5."));
  ASSERT_TRUE(r2.ok());
  EXPECT_FALSE(*r2);
}

TEST_F(ContainmentTest, SemiIntervalClassifier) {
  EXPECT_TRUE(AllComparisonsSemiInterval(R("q(X) :- p(X, Y), Y < 5, X >= 2.")));
  EXPECT_FALSE(AllComparisonsSemiInterval(R("q(X) :- p(X, Y), X < Y.")));
  EXPECT_TRUE(AllComparisonsSemiInterval(R("q(X) :- p(X, Y), Y = 5.")));
}

TEST_F(ContainmentTest, NormalizeDropsGroundTrueComparisons) {
  Result<std::optional<Rule>> n =
      NormalizeComparisons(R("q(X) :- p(X), 1 < 2, X <= 5."));
  ASSERT_TRUE(n.ok());
  ASSERT_TRUE(n->has_value());
  EXPECT_EQ((*n)->comparisons.size(), 1u);
}

TEST_F(ContainmentTest, NormalizeDetectsGroundFalse) {
  Result<std::optional<Rule>> n =
      NormalizeComparisons(R("q(X) :- p(X), 2 < 1."));
  ASSERT_TRUE(n.ok());
  EXPECT_FALSE(n->has_value());
}

TEST_F(ContainmentTest, NormalizeSymbolOrderComparisonIsEmptyQuery) {
  Result<std::optional<Rule>> n =
      NormalizeComparisons(R("q(X) :- p(X, C), C < red."));
  ASSERT_TRUE(n.ok());
  EXPECT_FALSE(n->has_value());
}

// Cross-validation: containment decisions agree with evaluation on the
// canonical databases generated from each linearization of the left query.
TEST_F(ContainmentTest, ComparisonContainmentAgreesWithEvalOracle) {
  struct Case {
    std::string q1, q2;
  };
  const std::vector<Case> cases = {
      {"q(X) :- p(X, Y), Y < 5.", "q(X) :- p(X, Y), Y < 10."},
      {"q(X) :- p(X, Y), Y < 10.", "q(X) :- p(X, Y), Y < 5."},
      {"q(X) :- p(X, Y), Y < 5, Y > 1.", "q(X) :- p(X, Y), Y > 0."},
      {"q(X) :- p(X, Y), p(Y, X).", "q(X) :- p(X, Y)."},
      {"q(X) :- p(X, Y).", "q(X) :- p(X, Y), p(Y, X)."},
      {"q(X) :- p(X, Y), X < Y.", "q(X) :- p(X, Y)."},
      {"q(X) :- p(X, Y), X < Y.", "q(A) :- p(A, B), A <= B."},
      {"q(X) :- p(X, Y), X <= Y.", "q(A) :- p(A, B), A < B."},
  };
  for (const Case& c : cases) {
    Rule q1 = R(c.q1);
    Rule q2 = R(c.q2);
    Result<bool> decision = CqContainedComplete(q1, q2);
    ASSERT_TRUE(decision.ok()) << decision.status().ToString();
    // Oracle: for q1 ⊑ q2 a NECESSARY condition is that on every canonical
    // database of q1 (one per linearization), q2 derives q1's frozen head.
    // For these CQs it is also sufficient (the linearization test itself),
    // so we recompute it independently through the evaluator.
    OrderConstraints oc;
    for (SymbolId v : q1.Variables()) {
      ASSERT_TRUE(oc.AddPoint(Term::Var(v)).ok());
    }
    for (const Value& v : q1.Constants()) {
      if (v.is_number()) {
        ASSERT_TRUE(oc.AddPoint(Term::Constant(v)).ok());
      }
    }
    for (const Value& v : q2.Constants()) {
      if (v.is_number()) {
        ASSERT_TRUE(oc.AddPoint(Term::Constant(v)).ok());
      }
    }
    ASSERT_TRUE(oc.AddAll(q1.comparisons).ok());
    bool oracle = true;
    Result<std::vector<Linearization>> lins = EnumerateLinearizations(oc);
    ASSERT_TRUE(lins.ok()) << lins.status().ToString();
    for (const Linearization& lin : *lins) {
      std::map<Term, Rational> sigma = oc.Realize(lin);
      // Canonical database: q1's body under sigma.
      Substitution freeze;
      for (const auto& [term, value] : sigma) {
        if (term.is_variable()) {
          freeze.Bind(term.symbol(), Term::Number(value));
        }
      }
      Database db;
      for (const Atom& a : q1.body) db.Add(freeze.Apply(a));
      Tuple head = freeze.Apply(q1.head).args;
      // Evaluate q2 on it.
      Program prog;
      prog.rules.push_back(q2);
      Result<std::vector<Tuple>> answers =
          EvaluateGoal(prog, q2.head.predicate, db);
      ASSERT_TRUE(answers.ok());
      bool derived = false;
      for (const Tuple& t : *answers) {
        if (t == head) {
          derived = true;
          break;
        }
      }
      if (!derived) {
        oracle = false;
        break;
      }
    }
    EXPECT_EQ(*decision, oracle) << c.q1 << "  vs  " << c.q2;
  }
}

}  // namespace
}  // namespace relcont

#include <gtest/gtest.h>

#include "common/budget.h"
#include "constraints/order_constraints.h"
#include "containment/comparison_containment.h"
#include "datalog/parser.h"
#include "support/linearization_oracle.h"

namespace relcont {
namespace {

class ConstraintsTest : public ::testing::Test {
 protected:
  // Unwraps the materializing oracle (which must succeed in these tests).
  std::vector<Linearization> Lins(const OrderConstraints& c) {
    Result<std::vector<Linearization>> r = EnumerateLinearizations(c);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? *r : std::vector<Linearization>{};
  }

  // Parses the comparisons of a dummy rule "q() :- p(...), <comparisons>."
  std::vector<Comparison> Cmp(const std::string& comparisons) {
    Result<Rule> r =
        ParseRule("q() :- p(A, B, C, D, E), " + comparisons + ".", &interner_);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r->comparisons;
  }
  Comparison One(const std::string& c) { return Cmp(c)[0]; }
  Term Var(const char* name) { return Term::Var(interner_.Intern(name)); }

  Interner interner_;
};

TEST_F(ConstraintsTest, EmptyIsSatisfiable) {
  OrderConstraints c;
  EXPECT_TRUE(c.IsSatisfiable());
}

TEST_F(ConstraintsTest, SimpleChainSatisfiable) {
  OrderConstraints c;
  ASSERT_TRUE(c.AddAll(Cmp("A < B, B < C")).ok());
  EXPECT_TRUE(c.IsSatisfiable());
  EXPECT_TRUE(c.Entails(One("A < C")));
  EXPECT_TRUE(c.Entails(One("A <= C")));
  EXPECT_TRUE(c.Entails(One("A != C")));
  EXPECT_FALSE(c.Entails(One("C < A")));
  EXPECT_FALSE(c.Entails(One("A = C")));
}

TEST_F(ConstraintsTest, StrictCycleUnsatisfiable) {
  OrderConstraints c;
  ASSERT_TRUE(c.AddAll(Cmp("A < B, B < C, C <= A")).ok());
  EXPECT_FALSE(c.IsSatisfiable());
  // Ex falso: an unsatisfiable set entails anything.
  EXPECT_TRUE(c.Entails(One("A = B")));
}

TEST_F(ConstraintsTest, WeakCycleForcesEquality) {
  OrderConstraints c;
  ASSERT_TRUE(c.AddAll(Cmp("A <= B, B <= A")).ok());
  EXPECT_TRUE(c.IsSatisfiable());
  EXPECT_TRUE(c.Entails(One("A = B")));
  EXPECT_FALSE(c.Entails(One("A != B")));
}

TEST_F(ConstraintsTest, DisequalityPlusWeakOrderIsStrict) {
  OrderConstraints c;
  ASSERT_TRUE(c.AddAll(Cmp("A <= B, A != B")).ok());
  EXPECT_TRUE(c.IsSatisfiable());
  EXPECT_TRUE(c.Entails(One("A < B")));
}

TEST_F(ConstraintsTest, EqualityConflictsWithDisequality) {
  OrderConstraints c;
  ASSERT_TRUE(c.AddAll(Cmp("A = B, A != B")).ok());
  EXPECT_FALSE(c.IsSatisfiable());
}

TEST_F(ConstraintsTest, EntailmentThroughSandwichedDisequality) {
  // A <= X, X <= Y, Y <= B, X != Y entails A < B.
  OrderConstraints c;
  ASSERT_TRUE(c.AddAll(Cmp("A <= D, D <= E, E <= B, D != E")).ok());
  EXPECT_TRUE(c.IsSatisfiable());
  EXPECT_TRUE(c.Entails(One("A < B")));
}

TEST_F(ConstraintsTest, DisequalityPropagatesThroughEquality) {
  OrderConstraints c;
  ASSERT_TRUE(c.AddAll(Cmp("A = B, B != C")).ok());
  EXPECT_TRUE(c.Entails(One("A != C")));
}

TEST_F(ConstraintsTest, ConstantsAreImplicitlyOrdered) {
  OrderConstraints c;
  ASSERT_TRUE(c.AddAll(Cmp("A <= 5, B >= 7")).ok());
  EXPECT_TRUE(c.Entails(One("A < B")));
  EXPECT_TRUE(c.Entails(One("A <= 7")));
  EXPECT_FALSE(c.Entails(One("B <= 5")));
}

TEST_F(ConstraintsTest, ConstantSandwichForcesValue) {
  OrderConstraints c;
  ASSERT_TRUE(c.AddAll(Cmp("A >= 5, A <= 5")).ok());
  EXPECT_TRUE(c.Entails(One("A = 5")));
  OrderConstraints bad;
  ASSERT_TRUE(bad.AddAll(Cmp("A > 5, A < 5")).ok());
  EXPECT_FALSE(bad.IsSatisfiable());
}

TEST_F(ConstraintsTest, RationalConstantsCompareExactly) {
  OrderConstraints c;
  ASSERT_TRUE(c.AddAll(Cmp("A <= 2.5, B >= 5/2")).ok());
  // 2.5 == 5/2, so A <= B but not A < B.
  EXPECT_TRUE(c.Entails(One("A <= B")));
  EXPECT_FALSE(c.Entails(One("A < B")));
}

TEST_F(ConstraintsTest, RejectsSymbolicConstants) {
  OrderConstraints c;
  Status s = c.Add(One("A < red"));
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST_F(ConstraintsTest, EntailsTrivialReflexivity) {
  OrderConstraints c;
  EXPECT_TRUE(c.Entails(One("A = A")));
  EXPECT_TRUE(c.Entails(One("A <= A")));
  EXPECT_FALSE(c.Entails(One("A < A")));
  EXPECT_FALSE(c.Entails(One("A != A")));
}

TEST_F(ConstraintsTest, EntailsOnSymbolPairs) {
  OrderConstraints c;
  SymbolId red = interner_.Intern("red");
  SymbolId blue = interner_.Intern("blue");
  Comparison ne(Term::Symbol(red), ComparisonOp::kNe, Term::Symbol(blue));
  EXPECT_TRUE(c.Entails(ne));
  Comparison eq(Term::Symbol(red), ComparisonOp::kEq, Term::Symbol(red));
  EXPECT_TRUE(c.Entails(eq));
  Comparison lt(Term::Symbol(red), ComparisonOp::kLt, Term::Symbol(blue));
  EXPECT_FALSE(c.Entails(lt));
}

TEST_F(ConstraintsTest, UnconstrainedVariablesEntailNothing) {
  OrderConstraints c;
  ASSERT_TRUE(c.AddAll(Cmp("A < B")).ok());
  EXPECT_FALSE(c.Entails(One("C < D")));
  EXPECT_FALSE(c.Entails(One("A < C")));
}

TEST_F(ConstraintsTest, LinearizationsOfTwoFreePoints) {
  OrderConstraints c;
  ASSERT_TRUE(c.AddPoint(Var("A")).ok());
  ASSERT_TRUE(c.AddPoint(Var("B")).ok());
  // A<B, A=B, A>B.
  EXPECT_EQ(Lins(c).size(), 3u);
}

TEST_F(ConstraintsTest, LinearizationsRespectConstraints) {
  OrderConstraints c;
  ASSERT_TRUE(c.AddAll(Cmp("A < B")).ok());
  std::vector<Linearization> lins = Lins(c);
  ASSERT_EQ(lins.size(), 1u);
  ASSERT_EQ(lins[0].size(), 2u);
  EXPECT_EQ(c.points()[lins[0][0][0]], Var("A"));
}

TEST_F(ConstraintsTest, LinearizationsThreeFreePointsOrderedBell) {
  OrderConstraints c;
  ASSERT_TRUE(c.AddPoint(Var("A")).ok());
  ASSERT_TRUE(c.AddPoint(Var("B")).ok());
  ASSERT_TRUE(c.AddPoint(Var("C")).ok());
  // Ordered Bell number of 3 = 13.
  EXPECT_EQ(Lins(c).size(), 13u);
}

TEST_F(ConstraintsTest, LinearizationsKeepConstantsApart) {
  OrderConstraints c;
  ASSERT_TRUE(c.AddPoint(Term::Number(Rational(1))).ok());
  ASSERT_TRUE(c.AddPoint(Term::Number(Rational(2))).ok());
  ASSERT_TRUE(c.AddPoint(Var("A")).ok());
  // A < 1, A = 1, 1 < A < 2, A = 2, A > 2.
  EXPECT_EQ(Lins(c).size(), 5u);
}

TEST_F(ConstraintsTest, LinearizationEnumerationGuardsLargePointSets) {
  OrderConstraints c;
  for (int i = 0; i <= kMaxEnumerablePoints; ++i) {
    ASSERT_TRUE(
        c.AddPoint(Term::Var(interner_.Intern("P" + std::to_string(i))))
            .ok());
  }
  EXPECT_TRUE(TooManyPointsToEnumerate(c));
  // The materializing oracle refuses over-cap point sets with an explicit
  // status — no longer an empty vector indistinguishable from "unsat".
  EXPECT_EQ(EnumerateLinearizations(c).status().code(),
            StatusCode::kBoundReached);
  // The containment layer surfaces the bound as kBoundReached: the
  // streaming DFS has no point cap, but 15 unconstrained points exceed
  // any small step budget.
  WorkBudget budget;
  budget.set_max_steps(1 << 20);
  BudgetScope scope(&budget);
  std::string body = "q(V0) :- ";
  for (int i = 0; i < 14; ++i) {
    if (i > 0) body += ", ";
    body += "p(V" + std::to_string(i) + ", V" + std::to_string(i + 1) + ")";
  }
  Result<Rule> wide = ParseRule(body + ".", &interner_);
  ASSERT_TRUE(wide.ok());
  // Force the linearization path with a union of case-split disjuncts.
  Result<Rule> le = ParseRule("q(A) :- p(A, B), A <= B.", &interner_);
  Result<Rule> ge = ParseRule("q(A) :- p(A, B), A >= B.", &interner_);
  ASSERT_TRUE(le.ok());
  ASSERT_TRUE(ge.ok());
  UnionQuery split;
  split.disjuncts.push_back(*le);
  split.disjuncts.push_back(*ge);
  Result<bool> r = CqContainedInUnionComplete(*wide, split);
  EXPECT_EQ(r.status().code(), StatusCode::kBoundReached);
}

TEST_F(ConstraintsTest, RealizeAssignsConsistentValues) {
  OrderConstraints c;
  ASSERT_TRUE(c.AddAll(Cmp("A < B, B <= C, C < 10, D > 10")).ok());
  for (const Linearization& lin : Lins(c)) {
    std::map<Term, Rational> sigma = c.Realize(lin);
    EXPECT_LT(sigma.at(Var("A")), sigma.at(Var("B")));
    EXPECT_LE(sigma.at(Var("B")), sigma.at(Var("C")));
    EXPECT_LT(sigma.at(Var("C")), Rational(10));
    EXPECT_GT(sigma.at(Var("D")), Rational(10));
    EXPECT_EQ(sigma.at(Term::Number(Rational(10))), Rational(10));
  }
}

TEST_F(ConstraintsTest, RealizeRespectsClassStructure) {
  OrderConstraints c;
  ASSERT_TRUE(c.AddPoint(Var("A")).ok());
  ASSERT_TRUE(c.AddPoint(Var("B")).ok());
  ASSERT_TRUE(c.AddPoint(Var("C")).ok());
  for (const Linearization& lin : Lins(c)) {
    std::map<Term, Rational> sigma = c.Realize(lin);
    // Rebuild class order from sigma and compare with lin.
    for (size_t i = 0; i < lin.size(); ++i) {
      for (size_t j = i + 1; j < lin.size(); ++j) {
        for (int p : lin[i]) {
          for (int q : lin[j]) {
            EXPECT_LT(sigma.at(c.points()[p]), sigma.at(c.points()[q]));
          }
        }
      }
      for (size_t a = 1; a < lin[i].size(); ++a) {
        EXPECT_EQ(sigma.at(c.points()[lin[i][0]]),
                  sigma.at(c.points()[lin[i][a]]));
      }
    }
  }
}

// Property: entailment agrees with linearization semantics. C ⊨ c iff every
// consistent linearization satisfies c under its realization.
TEST_F(ConstraintsTest, EntailmentAgreesWithLinearizationSemantics) {
  const std::vector<std::string> constraint_sets = {
      "A < B",          "A <= B, B <= C", "A < 5, B > 3",
      "A = B, B < C",   "A != B, A <= B", "A < B, C < D",
      "A <= 4, A >= 4", "A < B, B < 5, C > 2",
  };
  const std::vector<std::string> candidates = {
      "A < B",  "A <= B", "A = B",  "A != B", "B < A",  "A < C",
      "A <= C", "A < 5",  "A <= 4", "B > 3",  "C > 2",  "A = 4",
  };
  for (const std::string& cs : constraint_sets) {
    OrderConstraints c;
    ASSERT_TRUE(c.AddAll(Cmp(cs)).ok());
    for (const std::string& cand : candidates) {
      Comparison target = One(cand);
      // Build a solver with the candidate's points registered too, so that
      // linearizations cover them.
      OrderConstraints full;
      ASSERT_TRUE(full.AddPoint(target.lhs).ok());
      ASSERT_TRUE(full.AddPoint(target.rhs).ok());
      ASSERT_TRUE(full.AddAll(Cmp(cs)).ok());
      bool all_lins_satisfy = true;
      for (const Linearization& lin : Lins(full)) {
        std::map<Term, Rational> sigma = full.Realize(lin);
        Rational a = target.lhs.is_constant() ? target.lhs.value().number()
                                              : sigma.at(target.lhs);
        Rational b = target.rhs.is_constant() ? target.rhs.value().number()
                                              : sigma.at(target.rhs);
        bool holds = false;
        switch (target.op) {
          case ComparisonOp::kEq: holds = a == b; break;
          case ComparisonOp::kNe: holds = a != b; break;
          case ComparisonOp::kLt: holds = a < b; break;
          case ComparisonOp::kLe: holds = a <= b; break;
          case ComparisonOp::kGt: holds = a > b; break;
          case ComparisonOp::kGe: holds = a >= b; break;
        }
        if (!holds) {
          all_lins_satisfy = false;
          break;
        }
      }
      EXPECT_EQ(full.Entails(target), all_lins_satisfy)
          << "constraints {" << cs << "} candidate {" << cand << "}";
    }
  }
}

// The pair-matrix engine has no point cap: satisfiability and entailment
// are closure-based, so constraint sets far beyond the old 12-point
// enumerable limit are decided outright (never kBoundReached).
TEST_F(ConstraintsTest, SatisfiabilityAndEntailmentUncappedAtTwentyPoints) {
  auto v = [&](int i) {
    return Term::Var(interner_.Intern("V" + std::to_string(i)));
  };
  OrderConstraints c;
  const int n = 24;
  for (int i = 0; i + 1 < n; ++i) {
    ASSERT_TRUE(c.Add(Comparison(v(i), ComparisonOp::kLt, v(i + 1))).ok());
  }
  ASSERT_GT(c.points().size(), 20u);
  EXPECT_TRUE(c.IsSatisfiable());
  EXPECT_TRUE(c.Entails(Comparison(v(0), ComparisonOp::kLt, v(n - 1))));
  EXPECT_TRUE(c.Entails(Comparison(v(0), ComparisonOp::kNe, v(n - 1))));
  EXPECT_FALSE(c.Entails(Comparison(v(n - 1), ComparisonOp::kLe, v(0))));
  // Closing the chain into a strict cycle is caught by closure alone.
  ASSERT_TRUE(c.Add(Comparison(v(n - 1), ComparisonOp::kLe, v(0))).ok());
  EXPECT_FALSE(c.IsSatisfiable());
}

TEST_F(ConstraintsTest, StreamingEnumerationHandlesTwentyPlusPoints) {
  // A 20-point strict chain plus two free points: ~2k realizable
  // linearizations out of an ordered-Bell space of ~10^21. The pruned DFS
  // visits only what the closed matrix allows and completes.
  auto v = [&](int i) {
    return Term::Var(interner_.Intern("V" + std::to_string(i)));
  };
  OrderConstraints c;
  for (int i = 0; i + 1 < 20; ++i) {
    ASSERT_TRUE(c.Add(Comparison(v(i), ComparisonOp::kLt, v(i + 1))).ok());
  }
  ASSERT_TRUE(c.AddPoint(Var("Y")).ok());
  ASSERT_TRUE(c.AddPoint(Var("Z")).ok());
  ASSERT_EQ(c.points().size(), 22u);
  uint64_t count = 0;
  Status st = c.ForEachLinearization([&](const Linearization& lin) {
    EXPECT_FALSE(lin.empty());
    ++count;
    return true;
  });
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_GT(count, 0u);
}

TEST_F(ConstraintsTest, ContainmentSucceedsBeyondOldEnumerationCap) {
  // 22 dense-order points (20-chain plus free Y, Z): the old
  // materialize-then-iterate path reported kBoundReached here; the
  // streaming DFS decides it.
  std::string body = "q(V0) :- ";
  std::string comparisons;
  for (int i = 0; i + 1 < 20; ++i) {
    body += "p(V" + std::to_string(i) + ", V" + std::to_string(i + 1) + "), ";
    comparisons +=
        ", V" + std::to_string(i) + " < V" + std::to_string(i + 1);
  }
  body += "r(Y, Z)";
  Result<Rule> q1 = ParseRule(body + comparisons + ".", &interner_);
  ASSERT_TRUE(q1.ok()) << q1.status().ToString();
  // Case-split union on the free pair: no single disjunct is entailed, so
  // the decision must walk the linearizations.
  Result<Rule> le =
      ParseRule("q(A) :- p(A, B), r(C, D), C <= D.", &interner_);
  Result<Rule> ge =
      ParseRule("q(A) :- p(A, B), r(C, D), C >= D.", &interner_);
  ASSERT_TRUE(le.ok());
  ASSERT_TRUE(ge.ok());
  UnionQuery split;
  split.disjuncts.push_back(*le);
  split.disjuncts.push_back(*ge);
  Result<bool> res = CqContainedInUnionComplete(*q1, split);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_TRUE(*res);
}

}  // namespace
}  // namespace relcont

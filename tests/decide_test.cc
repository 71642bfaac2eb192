#include <gtest/gtest.h>

#include "datalog/parser.h"
#include "relcont/decide.h"

namespace relcont {
namespace {

class DecideTest : public ::testing::Test {
 protected:
  ViewSet V(const std::string& text) {
    Result<ViewSet> v = ParseViews(text, &interner_);
    EXPECT_TRUE(v.ok()) << v.status().ToString();
    return *v;
  }
  GoalQuery GQ(const std::string& text, const char* goal) {
    Result<Program> p = ParseProgram(text, &interner_);
    EXPECT_TRUE(p.ok()) << p.status().ToString();
    return GoalQuery{*p, interner_.Intern(goal)};
  }
  Decision Decide(const GoalQuery& a, const GoalQuery& b, const ViewSet& v,
                  const BindingPatterns& patterns = {}) {
    Result<Decision> d =
        DecideRelativeContainment(a, b, v, patterns, &interner_);
    EXPECT_TRUE(d.ok()) << d.status().ToString();
    return d.ok() ? *d : Decision{};
  }

  Interner interner_;
};

TEST_F(DecideTest, DispatchesToSection3) {
  ViewSet views = V("v(X, Y) :- p(X, Y).");
  Decision d = Decide(GQ("a(X) :- p(X, X).", "a"),
                      GQ("b(X) :- p(X, Y).", "b"), views);
  EXPECT_TRUE(d.contained);
  EXPECT_EQ(d.regime, Regime::kSection3);
}

TEST_F(DecideTest, DispatchesToTheorem52OnComparisonViews) {
  ViewSet views = V("cheap(X, P) :- item(X, P), P < 10.");
  Decision d = Decide(GQ("a(X) :- item(X, P).", "a"),
                      GQ("b(X) :- item(X, P), P < 10.", "b"), views);
  EXPECT_TRUE(d.contained);
  EXPECT_EQ(d.regime, Regime::kTheorem52);
}

TEST_F(DecideTest, DispatchesToTheorem51WhenLeftHasComparisons) {
  ViewSet views = V("cheap(X, P) :- item(X, P), P < 10.");
  Decision d = Decide(GQ("a(X) :- item(X, P), P < 5.", "a"),
                      GQ("b(X) :- item(X, P).", "b"), views);
  EXPECT_TRUE(d.contained);
  EXPECT_EQ(d.regime, Regime::kTheorem51);
}

TEST_F(DecideTest, DispatchesToTheorem32OnRecursiveQuery) {
  ViewSet views = V("sedge(X, Y) :- e(X, Y).");
  GoalQuery tc = GQ(
      "tc(X, Y) :- e(X, Y).\n"
      "tc(X, Y) :- e(X, Z), tc(Z, Y).\n",
      "tc");
  Decision d =
      Decide(GQ("a(X, Y) :- e(X, Z), e(Z, Y).", "a"), tc, views);
  EXPECT_TRUE(d.contained);
  EXPECT_EQ(d.regime, Regime::kTheorem32);
}

TEST_F(DecideTest, DispatchesToSection4OnPatterns) {
  ViewSet views = V(
      "seed(X) :- link(a, X).\n"
      "next(X, Y) :- link(X, Y).\n");
  BindingPatterns patterns;
  patterns.Set(interner_.Lookup("next"), *Adornment::Parse("bf"));
  Decision d = Decide(GQ("q1(Y) :- link(X, Y).", "q1"),
                      GQ("q2(Y) :- link(a, Y).", "q2"), views, patterns);
  EXPECT_FALSE(d.contained);
  EXPECT_EQ(d.regime, Regime::kSection4);
  EXPECT_TRUE(d.witness.has_value());
}

TEST_F(DecideTest, PatternsPlusComparisonsUnsupported) {
  ViewSet views = V("cheap(X, P) :- item(X, P), P < 10.");
  BindingPatterns patterns;
  patterns.Set(interner_.Lookup("cheap"), *Adornment::Parse("bf"));
  Result<Decision> d = DecideRelativeContainment(
      GQ("a(X) :- item(X, P).", "a"), GQ("b(X) :- item(X, P).", "b"), views,
      patterns, &interner_);
  EXPECT_EQ(d.status().code(), StatusCode::kUnsupported);
}

TEST_F(DecideTest, WitnessSurfacesOnTheorem52Failure) {
  ViewSet views = V("cheap(X, P) :- item(X, P), P < 10.");
  Decision d = Decide(GQ("a(X) :- item(X, P).", "a"),
                      GQ("b(X) :- item(X, P), P < 5.", "b"), views);
  EXPECT_FALSE(d.contained);
  EXPECT_EQ(d.regime, Regime::kTheorem52);
  EXPECT_TRUE(d.witness.has_value());
}

TEST_F(DecideTest, WitnessSurfacesOnTheorem32Failure) {
  // Recursive Q2: the failing plan disjunct of Q1 is the witness.
  ViewSet views = V(
      "sedge(X, Y) :- e(X, Y).\n"
      "snode(X) :- n(X).\n");
  GoalQuery tc = GQ(
      "tc(X, Y) :- e(X, Y).\n"
      "tc(X, Y) :- e(X, Z), tc(Z, Y).\n",
      "tc");
  Decision d = Decide(GQ("a(X, X) :- n(X).", "a"), tc, views);
  EXPECT_FALSE(d.contained);
  EXPECT_EQ(d.regime, Regime::kTheorem32);
  EXPECT_TRUE(d.witness.has_value());
}

TEST_F(DecideTest, WitnessSurfacesOnRecursiveQ1Failure) {
  // Recursive Q1: the counterexample expansion is the witness.
  ViewSet views = V("sedge(X, Y) :- e(X, Y).");
  GoalQuery tc = GQ(
      "tc(X, Y) :- e(X, Y).\n"
      "tc(X, Y) :- e(X, Z), tc(Z, Y).\n",
      "tc");
  Decision d = Decide(tc, GQ("b(X, Y) :- e(X, Y).", "b"), views);
  EXPECT_FALSE(d.contained);
  EXPECT_EQ(d.regime, Regime::kTheorem32);
  EXPECT_TRUE(d.witness.has_value());
}

TEST_F(DecideTest, RecursiveQ1ContainedPairIsABoundNeverANo) {
  // A known limit of the Theorem 3.2 route: with Q1 recursive, the bounded
  // expansion search can refute a containment but never certify one.
  // Every expansion of qa is contained in qb, so the search runs out of
  // derivation depth and answers kBoundReached, never a NO verdict.
  ViewSet views = V("e1(X, Y) :- e(X, Y).");
  GoalQuery qa = GQ(
      "a(X) :- t(X, Y).\n"
      "t(X, Y) :- e(X, Y).\n"
      "t(X, Y) :- e(X, Z), t(Z, Y).\n",
      "a");
  GoalQuery qb = GQ("b(X) :- e(X, Y).", "b");
  for (int depth : {4, 12}) {
    DecideOptions options;
    options.max_rule_applications = depth;
    Result<Decision> d =
        DecideRelativeContainment(qa, qb, views, {}, &interner_, options);
    ASSERT_FALSE(d.ok()) << "depth " << depth << ": contained="
                         << d->contained;
    EXPECT_EQ(d.status().code(), StatusCode::kBoundReached)
        << d.status().ToString();
    EXPECT_NE(d.status().ToString().find("[expansion]"), std::string::npos)
        << d.status().ToString();
  }
  // The reversed pair has the recursive query on the right: exact.
  Decision reversed = Decide(qb, qa, views);
  EXPECT_TRUE(reversed.contained);
  EXPECT_EQ(reversed.regime, Regime::kTheorem32);
}

TEST_F(DecideTest, Theorem51WitnessCarriesViewGuaranteedComparisons) {
  ViewSet views = V("cheap(X, P) :- item(X, P), P < 10.");
  Decision d = Decide(GQ("a(X) :- item(X, P), P < 5.", "a"),
                      GQ("b(X) :- item(X, P), P < 2.", "b"), views);
  EXPECT_FALSE(d.contained);
  EXPECT_EQ(d.regime, Regime::kTheorem51);
  ASSERT_TRUE(d.witness.has_value());
  // The witness is the *augmented* disjunct: it keeps the comparisons its
  // views guarantee, so it genuinely fails on a consistent instance.
  EXPECT_FALSE(d.witness->comparisons.empty());
}

TEST_F(DecideTest, RegimeNamesRoundTrip) {
  for (Regime regime :
       {Regime::kSection3, Regime::kTheorem32, Regime::kSection4,
        Regime::kTheorem51, Regime::kTheorem52}) {
    EXPECT_EQ(ParseRegime(RegimeName(regime)), regime);
  }
  EXPECT_EQ(ParseRegime("nonsense"), Regime::kUnknown);
  EXPECT_EQ(RegimeName(Regime::kUnknown), "unknown");
}

TEST_F(DecideTest, WitnessSurfacesOnSection3Failure) {
  ViewSet views = V(
      "v1(X, Y) :- p(X, Y).\n"
      "v2(X) :- s(X).\n");
  Decision d = Decide(GQ("a(X) :- p(X, Y).", "a"),
                      GQ("b(X) :- p(X, Y), s(X).", "b"), views);
  EXPECT_FALSE(d.contained);
  EXPECT_EQ(d.regime, Regime::kSection3);
  EXPECT_TRUE(d.witness.has_value());
}

}  // namespace
}  // namespace relcont

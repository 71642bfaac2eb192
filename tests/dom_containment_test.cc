#include <gtest/gtest.h>

#include "binding/dom_containment.h"
#include "containment/canonical.h"
#include "containment/cq_containment.h"
#include "containment/expansion.h"
#include "datalog/parser.h"
#include "eval/evaluator.h"
#include "relcont/binding_containment.h"

namespace relcont {
namespace {

class DomContainmentTest : public ::testing::Test {
 protected:
  Program P(const std::string& text) {
    Result<Program> p = ParseProgram(text, &interner_);
    EXPECT_TRUE(p.ok()) << p.status().ToString();
    return *p;
  }
  UnionQuery U(const std::vector<std::string>& texts) {
    UnionQuery u;
    for (const auto& t : texts) {
      Result<Rule> r = ParseRule(t, &interner_);
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      u.disjuncts.push_back(*r);
    }
    return u;
  }
  SymbolId S(const char* name) { return interner_.Intern(name); }

  // Runs the exact decider and, when it reports non-containment,
  // validates the counterexample: it must be a genuine expansion (the
  // program derives its head on its frozen body) that the UCQ does not
  // contain.
  bool Decide(const Program& prog, const char* goal, const UnionQuery& q2) {
    Result<DomContainmentResult> r =
        DomPlanContainedInUcq(prog, S(goal), S("dom"), q2, &interner_);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (!r.ok()) return false;
    if (!r->contained) {
      EXPECT_TRUE(r->counterexample.has_value());
      if (r->counterexample.has_value()) {
        ValidateCounterexample(prog, S(goal), q2, *r->counterexample);
      }
    }
    return r->contained;
  }

  void ValidateCounterexample(const Program& prog, SymbolId goal,
                              const UnionQuery& q2, const Rule& cx) {
    // Not contained in the UCQ.
    Result<bool> contained = CqContainedInUnion(cx, q2);
    ASSERT_TRUE(contained.ok()) << contained.status().ToString();
    EXPECT_FALSE(*contained) << "witness is contained: "
                             << cx.ToString(interner_);
    // A genuine expansion: the program derives the frozen head on the
    // frozen body.
    Result<FrozenQuery> frozen = FreezeRule(cx, &interner_);
    ASSERT_TRUE(frozen.ok());
    Result<EvalResult> eval = Evaluate(prog, frozen->database);
    ASSERT_TRUE(eval.ok()) << eval.status().ToString();
    EXPECT_TRUE(eval->database.Contains(goal, frozen->head_tuple))
        << "witness is not an expansion: " << cx.ToString(interner_);
  }

  // The bounded expansion-enumeration oracle (definite only when it finds
  // a counterexample or the enumeration completes).
  Result<bool> Bounded(const Program& prog, const char* goal,
                       const UnionQuery& q2, int depth) {
    ExpansionOptions opts;
    opts.max_rule_applications = depth;
    return DatalogContainedInUcqBounded(prog, S(goal), q2, &interner_, opts);
  }

  Interner interner_;
};

// The canonical chain program: values reachable from the constant c.
constexpr char kChain[] =
    "q(Y) :- e(X, Y), dom(X).\n"
    "dom(c).\n"
    "dom(Y) :- dom(X), e(X, Y).\n";

TEST_F(DomContainmentTest, ChainContainedInAnyEdge) {
  Program prog = P(kChain);
  EXPECT_TRUE(Decide(prog, "q", U({"p(Y) :- e(X, Y)."})));
}

TEST_F(DomContainmentTest, ChainNotContainedInEdgeFromC) {
  Program prog = P(kChain);
  // Chains of length >= 2 end at values not directly adjacent to c.
  EXPECT_FALSE(Decide(prog, "q", U({"p(Y) :- e(c, Y)."})));
}

TEST_F(DomContainmentTest, ChainContainedInEdgeFromCOrTwoStep) {
  Program prog = P(kChain);
  // Every chain is either a single step from c or ends with two steps.
  EXPECT_TRUE(Decide(prog, "q",
                     U({"p(Y) :- e(c, Y).",
                        "p(Y) :- e(X1, X2), e(X2, Y)."})));
}

TEST_F(DomContainmentTest, ChainNotContainedInTwoStepOnly) {
  Program prog = P(kChain);
  // The single step e(c, y) has no two-step suffix.
  EXPECT_FALSE(Decide(prog, "q", U({"p(Y) :- e(X1, X2), e(X2, Y)."})));
}

TEST_F(DomContainmentTest, ChainRequiresConstantAnchorIsDetected) {
  Program prog = P(kChain);
  // Every expansion starts at c, but q2 demanding the LAST step from c
  // only matches depth-1 expansions.
  EXPECT_TRUE(Decide(prog, "q",
                     U({"p(Y) :- e(c, X), e(X2, Y).",
                        "p(Y) :- e(c, Y)."})));
}

TEST_F(DomContainmentTest, BranchingGuardsAreTrees) {
  // A dom rule with two guards: pairs table reachable by two keys.
  Program prog = P(
      "q(Z) :- t(X, Y, Z), dom(X), dom(Y).\n"
      "dom(c).\n"
      "dom(Z) :- t(X, Y, Z), dom(X), dom(Y).\n");
  EXPECT_TRUE(Decide(prog, "q", U({"p(Z) :- t(X, Y, Z)."})));
  EXPECT_FALSE(Decide(prog, "q", U({"p(Z) :- t(c, c, Z)."})));
  EXPECT_TRUE(Decide(
      prog, "q",
      U({"p(Z) :- t(c, c, Z).", "p(Z) :- t(A, B, Z), t(X, Y, A).",
         "p(Z) :- t(A, B, Z), t(X, Y, B)."})));
}

TEST_F(DomContainmentTest, NonRecursiveProgramsAlsoHandled) {
  Program prog = P(
      "q(Y) :- e(c, Y), dom(c).\n"
      "dom(c).\n");
  EXPECT_TRUE(Decide(prog, "q", U({"p(Y) :- e(c, Y)."})));
  EXPECT_FALSE(Decide(prog, "q", U({"p(Y) :- e(Y, Y)."})));
}

TEST_F(DomContainmentTest, SkolemsInCoresAreOpaque) {
  // The core carries a Skolem value; q2 variables may land on it, but q2
  // constants may not.
  Program prog = P(
      "q(X) :- r(X, f(X)), dom(X).\n"
      "dom(c).\n");
  EXPECT_TRUE(Decide(prog, "q", U({"p(X) :- r(X, W)."})));
  EXPECT_FALSE(Decide(prog, "q", U({"p(X) :- r(X, c)."})));
}

TEST_F(DomContainmentTest, ConstantsInsideTreeBodiesMatchUcqConstants) {
  // The dom rule's body carries a constant; a UCQ disjunct demanding that
  // constant can map into tree atoms.
  Program prog = P(
      "q(Y) :- e(X, Y, K), dom(X).\n"
      "dom(c).\n"
      "dom(Y) :- dom(X), e(X, Y, special).\n");
  // Every expansion's TREE atoms have 'special' in the third column, but
  // the CORE atom's third column is free — so demanding it everywhere
  // fails...
  EXPECT_FALSE(Decide(prog, "q", U({"p(Y) :- e(X, Y, special)."})));
  // ...while a union covering both the seeded core and the special-marked
  // suffix succeeds.
  EXPECT_TRUE(Decide(
      prog, "q",
      U({"p(Y) :- e(c, Y, K).",
         "p(Y) :- e(A, B, special), e(B, Y, K)."})));
}

TEST_F(DomContainmentTest, ThreeGuardTreesSaturate) {
  Program prog = P(
      "q(W) :- t(X, Y, Z, W), dom(X), dom(Y), dom(Z).\n"
      "dom(c).\n"
      "dom(W) :- t(X, Y, Z, W), dom(X), dom(Y), dom(Z).\n");
  EXPECT_TRUE(Decide(prog, "q", U({"p(W) :- t(X, Y, Z, W)."})));
  EXPECT_FALSE(Decide(prog, "q", U({"p(W) :- t(c, c, c, W)."})));
}

TEST_F(DomContainmentTest, DisjunctOverTheMaskLimitIsUnsupported) {
  // Disjunct atoms index 64-bit masks: up to kMaxDisjunctSize atoms are
  // decided, one more is a representation limit no budget can lift.
  Program prog = P(
      "q(X) :- r(X), dom(X).\n"
      "dom(c).\n"
      "dom(Y) :- dom(X), e(X, Y).\n");
  auto wide = [](int atoms) {
    std::string text = "p(X) :- r(X)";
    for (int i = 1; i < atoms; ++i) text += ", r(X)";
    return text + ".";
  };
  EXPECT_TRUE(Decide(prog, "q", U({wide(kMaxDisjunctSize)})));
  Result<DomContainmentResult> over = DomPlanContainedInUcq(
      prog, S("q"), S("dom"), U({wide(kMaxDisjunctSize + 1)}), &interner_);
  EXPECT_EQ(over.status().code(), StatusCode::kUnsupported)
      << over.status().ToString();
}

TEST_F(DomContainmentTest, RejectsNonDomRecursion) {
  Program prog = P(
      "q(Y) :- t(X, Y).\n"
      "t(X, Y) :- e(X, Y).\n"
      "t(X, Y) :- e(X, Z), t(Z, Y).\n");
  Result<DomContainmentResult> r = DomPlanContainedInUcq(
      prog, S("q"), S("dom"), U({"p(Y) :- e(X, Y)."}), &interner_);
  EXPECT_EQ(r.status().code(), StatusCode::kUnsupported);
}

TEST_F(DomContainmentTest, RejectsNonUnaryDom) {
  Program prog = P(
      "q(Y) :- e(X, Y), dom(X, X).\n"
      "dom(c, c).\n");
  Result<DomContainmentResult> r = DomPlanContainedInUcq(
      prog, S("q"), S("dom"), U({"p(Y) :- e(X, Y)."}), &interner_);
  EXPECT_EQ(r.status().code(), StatusCode::kUnsupported);
}

// Agreement with the bounded expansion-enumeration oracle on every case it
// can decide.
TEST_F(DomContainmentTest, AgreesWithBoundedOracle) {
  struct Case {
    std::string program;
    std::vector<std::string> ucq;
  };
  const std::vector<Case> cases = {
      {kChain, {"p(Y) :- e(X, Y)."}},
      {kChain, {"p(Y) :- e(c, Y)."}},
      {kChain, {"p(Y) :- e(c, Y).", "p(Y) :- e(X1, X2), e(X2, Y)."}},
      {kChain, {"p(Y) :- e(X1, X2), e(X2, Y)."}},
      {kChain, {"p(Y) :- e(Y, Y)."}},
      {"q(Y) :- e(X, Y), dom(X).\ndom(c).\ndom(d).\n"
       "dom(Y) :- dom(X), e(X, Y).\n",
       {"p(Y) :- e(X, Y)."}},
      {"q(Y) :- e(X, Y), dom(X).\ndom(c).\ndom(d).\n"
       "dom(Y) :- dom(X), e(X, Y).\n",
       {"p(Y) :- e(c, Y).", "p(Y) :- e(X1, X2), e(X2, Y)."}},
  };
  for (const Case& c : cases) {
    Program prog = P(c.program);
    UnionQuery ucq = U(c.ucq);
    Result<DomContainmentResult> exact =
        DomPlanContainedInUcq(prog, S("q"), S("dom"), ucq, &interner_);
    ASSERT_TRUE(exact.ok()) << exact.status().ToString();
    Result<bool> oracle = Bounded(prog, "q", ucq, 7);
    if (oracle.ok()) {
      EXPECT_EQ(exact->contained, *oracle) << c.program;
    } else {
      // Oracle inconclusive (recursion ran past the bound without finding
      // a counterexample): the exact decider must say contained.
      EXPECT_EQ(oracle.status().code(), StatusCode::kBoundReached);
      EXPECT_TRUE(exact->contained) << c.program;
    }
  }
}

// A function term only a body writes is an opaque value; one a rule head
// builds (a Skolem) is held by no stored relation; a goal tuple carrying
// either is no answer. The exact decider and the bounded expansion search
// read all three the same way.
TEST_F(DomContainmentTest, FunctionTermsMeanTheSameToDeciderAndOracle) {
  struct Case {
    std::string program;
    std::vector<std::string> ucq;
    bool contained;
  };
  const std::string skolem =
      "q(X, Y) :- s(X, Y), dom(X).\ns(X, f(X)) :- t(X).\ndom(c).\n";
  const std::vector<Case> cases = {
      {"q(X) :- r(X, f(X)), dom(X).\ndom(c).\n", {"p(X) :- r(X, W)."}, true},
      {"q(X) :- r(X, f(X)), dom(X).\ndom(c).\n", {"p(X) :- r(X, c)."},
       false},
      // The only expansion needs r to store a value s builds.
      {"q(X) :- s(X, Y), r(Y), dom(X).\ns(X, f(X)) :- t(X).\ndom(c).\n",
       {"p(X) :- u(X)."},
       true},
      // The only expansion answers a value s builds.
      {skolem, {"p(X, Y) :- u(X)."}, true},
      // A Skolem-free sibling rule still refutes.
      {skolem + "s(X, X) :- t(X).\n", {"p(X, Y) :- u(X)."}, false},
  };
  for (const Case& c : cases) {
    Program prog = P(c.program);
    UnionQuery ucq = U(c.ucq);
    EXPECT_EQ(Decide(prog, "q", ucq), c.contained) << c.program;
    Result<bool> oracle = Bounded(prog, "q", ucq, 7);
    ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
    EXPECT_EQ(*oracle, c.contained) << c.program;
  }
}

// ---------------------------------------------------------------------------
// Theorem 4.1 / 4.2 end to end.
// ---------------------------------------------------------------------------

class BindingRelativeTest : public DomContainmentTest {
 protected:
  GoalQuery GQ(const std::string& text, const char* goal) {
    return GoalQuery{P(text), S(goal)};
  }
  bool RelContained(const GoalQuery& a, const GoalQuery& b,
                    const ViewSet& views, const BindingPatterns& patterns) {
    Result<BindingRelativeResult> r = RelativelyContainedWithBindingPatterns(
        a, b, views, patterns, &interner_);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() && r->contained;
  }
  ViewSet V(const std::string& text) {
    Result<ViewSet> v = ParseViews(text, &interner_);
    EXPECT_TRUE(v.ok()) << v.status().ToString();
    return *v;
  }
  Adornment A(const char* text) { return *Adornment::Parse(text); }
};

TEST_F(BindingRelativeTest, AccessPatternsCreateRelativeContainment) {
  // Prices are only retrievable by probing with a known value. Probe
  // values are catalogued ISBNs — or outputs of earlier price lookups,
  // since the untyped dom accumulator admits price VALUES as keys too.
  ViewSet views = V(
      "isbns(I) :- book(I, T).\n"
      "pricelookup(I, P) :- price(I, P).\n");
  BindingPatterns patterns;
  patterns.Set(S("pricelookup"), A("bf"));
  GoalQuery q_price = GQ("qa(P) :- price(I, P).", "qa");
  GoalQuery q_book_price = GQ("qb(P) :- book(I, T), price(I, P).", "qb");
  // Classically not contained:
  Result<bool> classical = CqContained(q_price.program.rules[0],
                                       q_book_price.program.rules[0]);
  ASSERT_TRUE(classical.ok());
  EXPECT_FALSE(*classical);
  // Not contained relative to the patterns either: a reachable price may
  // have been probed with a PRICE value (price(p1, p2) chains), and such
  // a probe key need not be a catalogued ISBN. The decider discovers this
  // subtlety of the untyped dom accumulator by itself.
  EXPECT_FALSE(RelContained(q_price, q_book_price, views, patterns));
  // Adding the price-chain disjunct covers every reachable probe, and the
  // containment appears — this genuinely needs the recursive plan
  // analysis of Theorem 4.2:
  GoalQuery q_cover = GQ(
      "qc(P) :- book(I, T), price(I, P).\n"
      "qc(P) :- price(X, Y), price(Y, P).\n",
      "qc");
  EXPECT_TRUE(RelContained(q_price, q_cover, views, patterns));
  // And trivially in the other direction (classical containment).
  EXPECT_TRUE(RelContained(q_book_price, q_price, views, patterns));
}

TEST_F(BindingRelativeTest, WithoutPatternsTheContainmentDisappears) {
  ViewSet views = V(
      "isbns(I) :- book(I, T).\n"
      "pricelookup(I, P) :- price(I, P).\n");
  BindingPatterns none;
  GoalQuery q_price = GQ("qa(P) :- price(I, P).", "qa");
  GoalQuery q_book_price = GQ("qb(P) :- book(I, T), price(I, P).", "qb");
  EXPECT_FALSE(RelContained(q_price, q_book_price, views, none));
}

TEST_F(BindingRelativeTest, RecursivePlansStillDecidable) {
  // The [DGL] chain: answering q1 requires a recursive plan, yet relative
  // containment is decidable (Theorem 4.2).
  ViewSet views = V(
      "seed(X) :- link(a, X).\n"
      "next(X, Y) :- link(X, Y).\n");
  BindingPatterns patterns;
  patterns.Set(S("next"), A("bf"));
  GoalQuery q_any = GQ("q1(Y) :- link(X, Y).", "q1");
  GoalQuery q_same = GQ("q2(Y) :- link(X, Y).", "q2");
  EXPECT_TRUE(RelContained(q_any, q_same, views, patterns));
  // Everything reachable is a link out of a or a link out of a link
  // target:
  GoalQuery q_cover = GQ(
      "q3(Y) :- link(a, Y).\n"
      "q3(Y) :- link(X1, X2), link(X2, Y).\n",
      "q3");
  EXPECT_TRUE(RelContained(q_any, q_cover, views, patterns));
  // But not every reachable link starts at a:
  GoalQuery q_from_a = GQ("q4(Y) :- link(a, Y).", "q4");
  EXPECT_FALSE(RelContained(q_any, q_from_a, views, patterns));
}

TEST_F(BindingRelativeTest, ConstantDisciplineEnforced) {
  ViewSet views = V("v(X) :- p(X).");
  BindingPatterns none;
  GoalQuery q1 = GQ("q1() :- p(zebra).", "q1");
  GoalQuery q2 = GQ("q2() :- p(X).", "q2");
  Result<BindingRelativeResult> r = RelativelyContainedWithBindingPatterns(
      q1, q2, views, none, &interner_);
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(BindingRelativeTest, NoPatternsMatchesSection3Semantics) {
  // With all-free sources the binding-pattern machinery must agree with
  // the plain Section 3 decision.
  ViewSet views = V(
      "v1(X, Y) :- p(X, Y).\n"
      "v2(X) :- p(X, X).\n");
  BindingPatterns none;
  struct Pair {
    const char* a;
    const char* ga;
    const char* b;
    const char* gb;
  };
  const std::vector<Pair> pairs = {
      {"g1(X) :- p(X, X).", "g1", "g2(X) :- p(X, Y).", "g2"},
      {"g3(X) :- p(X, Y).", "g3", "g4(X) :- p(X, X).", "g4"},
      {"g5(X) :- p(X, Y), p(Y, X).", "g5", "g6(X) :- p(X, Y).", "g6"},
  };
  for (const Pair& pr : pairs) {
    GoalQuery a = GQ(pr.a, pr.ga);
    GoalQuery b = GQ(pr.b, pr.gb);
    Result<RelativeContainmentResult> plain =
        RelativelyContained(a, b, views, &interner_);
    ASSERT_TRUE(plain.ok());
    Result<BindingRelativeResult> with = RelativelyContainedWithBindingPatterns(
        a, b, views, none, &interner_);
    ASSERT_TRUE(with.ok()) << with.status().ToString();
    EXPECT_EQ(plain->contained, with->contained) << pr.a << " vs " << pr.b;
  }
}

}  // namespace
}  // namespace relcont

#include <algorithm>
#include <gtest/gtest.h>

#include "containment/cq_containment.h"
#include "containment/minimize.h"
#include "datalog/parser.h"
#include "eval/evaluator.h"
#include "relcont/cwa.h"
#include "relcont/gav.h"

namespace relcont {
namespace {

class ExtensionsTest : public ::testing::Test {
 protected:
  Program P(const std::string& text) {
    Result<Program> p = ParseProgram(text, &interner_);
    EXPECT_TRUE(p.ok()) << p.status().ToString();
    return *p;
  }
  Rule R(const std::string& text) {
    Result<Rule> r = ParseRule(text, &interner_);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return *r;
  }
  Database D(const std::string& text) {
    Result<Database> d = ParseDatabase(text, &interner_);
    EXPECT_TRUE(d.ok()) << d.status().ToString();
    return *d;
  }
  GoalQuery GQ(const std::string& text, const char* goal) {
    return GoalQuery{P(text), interner_.Intern(goal)};
  }
  SymbolId S(const char* name) { return interner_.Intern(name); }

  Interner interner_;
};

// ---------------------------------------------------------------------------
// Global-as-view (Sections 1/6).
// ---------------------------------------------------------------------------

TEST_F(ExtensionsTest, GavComposeUnfoldsDefinitions) {
  GavSchema schema = *ParseGavSchema(
      "cardesc(C, M, Col, Y) :- dealer1(C, M, Col, Y).\n"
      "cardesc(C, M, Col, Y) :- dealer2(C, M, Col, Y).\n"
      "review(M, R, S) :- critics(M, R, S).\n",
      &interner_);
  Program q = P("q(C) :- cardesc(C, M, Col, Y), review(M, R, S).");
  Result<UnionQuery> composed = schema.Compose(q, S("q"), &interner_);
  ASSERT_TRUE(composed.ok()) << composed.status().ToString();
  EXPECT_EQ(composed->disjuncts.size(), 2u);  // two dealers x one critic
  for (const Rule& d : composed->disjuncts) {
    for (const Atom& a : d.body) {
      EXPECT_TRUE(a.predicate == S("dealer1") || a.predicate == S("dealer2") ||
                  a.predicate == S("critics"));
    }
  }
}

TEST_F(ExtensionsTest, GavRejectsRecursionAndSourceQueries) {
  EXPECT_FALSE(ParseGavSchema("m(X) :- m(X).", &interner_).ok());
  GavSchema schema = *ParseGavSchema("m(X) :- s(X).", &interner_);
  Program over_sources = P("q(X) :- s(X).");
  EXPECT_FALSE(schema.Compose(over_sources, S("q"), &interner_).ok());
}

TEST_F(ExtensionsTest, GavRelativeContainmentIsClassicalOnCompositions) {
  // Mediated `reachable2` is defined as source-edge pairs; containment of
  // mediated queries reduces to plain containment over the sources.
  GavSchema schema = *ParseGavSchema(
      "hop(X, Y) :- e(X, Y).\n"
      "hop2(X, Z) :- e(X, Y), e(Y, Z).\n",
      &interner_);
  GoalQuery two{P("q2(X, Z) :- hop2(X, Z)."), S("q2")};
  GoalQuery pair{P("qp(X, Z) :- hop(X, Y), hop(Y, Z)."), S("qp")};
  Result<RelativeContainmentResult> a =
      GavRelativelyContained(two, pair, schema, &interner_);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  EXPECT_TRUE(a->contained);
  Result<RelativeContainmentResult> b =
      GavRelativelyContained(pair, two, schema, &interner_);
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(b->contained);  // the two formulations coincide under GAV
}

TEST_F(ExtensionsTest, GavRelativeWithoutClassical) {
  // The only definition of `review` hard-codes top ratings, so two
  // classically different queries coincide relative to the schema.
  GavSchema schema = *ParseGavSchema(
      "cardesc(C, M, Col, Y) :- dealer(C, M, Col, Y).\n"
      "review(M, R, 10) :- topcritics(M, R).\n",
      &interner_);
  GoalQuery all{P("qa(C, R) :- cardesc(C, M, Col, Y), review(M, R, S)."),
                S("qa")};
  GoalQuery top{P("qt(C, R) :- cardesc(C, M, Col, Y), review(M, R, 10)."),
                S("qt")};
  Result<RelativeContainmentResult> r =
      GavRelativelyContained(all, top, schema, &interner_);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->contained);
}

TEST_F(ExtensionsTest, GavCertainAnswersEvaluateComposition) {
  GavSchema schema = *ParseGavSchema(
      "cardesc(C, M) :- dealer1(C, M).\n"
      "cardesc(C, M) :- dealer2(C, M).\n",
      &interner_);
  Program q = P("q(C) :- cardesc(C, corolla).");
  Database inst = D("dealer1(1, corolla). dealer2(2, corolla). "
                    "dealer2(3, pinto).");
  Result<std::vector<Tuple>> answers =
      GavCertainAnswers(q, S("q"), schema, inst, &interner_);
  ASSERT_TRUE(answers.ok());
  EXPECT_EQ(answers->size(), 2u);
}

TEST_F(ExtensionsTest, GavUncoveredMediatedRelationYieldsNothing) {
  GavSchema schema = *ParseGavSchema("m(X) :- s(X).", &interner_);
  Program q = P("q(X) :- m(X), unheard_of(X).");
  Result<UnionQuery> composed = schema.Compose(q, S("q"), &interner_);
  ASSERT_TRUE(composed.ok());
  EXPECT_TRUE(composed->disjuncts.empty());
}

// ---------------------------------------------------------------------------
// Closed-world refuter (Section 6 / Example 5).
// ---------------------------------------------------------------------------

TEST_F(ExtensionsTest, CwaRefuterFindsExample5Counterexample) {
  ViewSet views = *ParseViews(
      "v1(X) :- p(X, Y).\n"
      "v2(Y) :- p(X, Y).\n"
      "v3(X, Y) :- p(X, Y), r(X, Y).\n",
      &interner_);
  GoalQuery q1{P("q1(X, Y) :- p(X, Y)."), S("q1")};
  GoalQuery q2{P("q2(X, Y) :- r(X, Y)."), S("q2")};
  CwaRefuterOptions opts;
  opts.max_instance_facts = 2;
  opts.domain_size = 2;
  Result<std::optional<CwaRefutation>> r =
      RefuteCwaContainment(q1, q2, views, &interner_, opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_TRUE(r->has_value());
  // The refutation instance must behave as claimed: recompute the oracle.
  std::vector<ViewDefinition> defs = views.views();
  for (ViewDefinition& d : defs) d.complete = true;
  ViewSet complete = *ViewSet::Make(std::move(defs), &interner_);
  Result<std::vector<Tuple>> c1 = BruteForceCertainAnswers(
      q1.program, q1.goal, complete, (*r)->instance, &interner_);
  ASSERT_TRUE(c1.ok());
  EXPECT_NE(std::find(c1->begin(), c1->end(), (*r)->answer), c1->end());
  Result<std::vector<Tuple>> c2 = BruteForceCertainAnswers(
      q2.program, q2.goal, complete, (*r)->instance, &interner_);
  ASSERT_TRUE(c2.ok());
  EXPECT_EQ(std::find(c2->begin(), c2->end(), (*r)->answer), c2->end());
}

TEST_F(ExtensionsTest, CwaRefuterInconclusiveOnActualContainment) {
  ViewSet views = *ParseViews("v(X, Y) :- p(X, Y).", &interner_);
  GoalQuery strong{P("q1(X) :- p(X, X)."), S("q1")};
  GoalQuery weak{P("q2(X) :- p(X, Y)."), S("q2")};
  CwaRefuterOptions opts;
  opts.max_instance_facts = 2;
  opts.domain_size = 2;
  Result<std::optional<CwaRefutation>> r =
      RefuteCwaContainment(strong, weak, views, &interner_, opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_FALSE(r->has_value());  // classical containment holds, so no cx
}

// ---------------------------------------------------------------------------
// Core minimization.
// ---------------------------------------------------------------------------

TEST_F(ExtensionsTest, MinimizeDropsRedundantAtoms) {
  // e(X, Y2) folds onto e(X, Y): the second atom is redundant.
  Rule q = R("q(X) :- e(X, Y), e(X, Y2).");
  Result<Rule> core = MinimizeQuery(q);
  ASSERT_TRUE(core.ok());
  EXPECT_EQ(core->body.size(), 1u);
  EXPECT_FALSE(*IsMinimal(q));
}

TEST_F(ExtensionsTest, MinimizeKeepsGenuineJoins) {
  Rule q = R("q(X) :- e(X, Y), f(Y, Z).");
  Result<Rule> core = MinimizeQuery(q);
  ASSERT_TRUE(core.ok());
  EXPECT_EQ(core->body.size(), 2u);
  EXPECT_TRUE(*IsMinimal(q));
}

TEST_F(ExtensionsTest, MinimizeBooleanChainOntoLoop) {
  // A boolean 3-chain plus a self-loop folds entirely onto the loop.
  Rule q = R("q() :- e(X, Y), e(Y, Z), e(Z, W), e(V, V).");
  Result<Rule> core = MinimizeQuery(q);
  ASSERT_TRUE(core.ok());
  EXPECT_EQ(core->body.size(), 1u);
  ASSERT_EQ(core->body[0].args.size(), 2u);
  EXPECT_EQ(core->body[0].args[0], core->body[0].args[1]);
}

TEST_F(ExtensionsTest, MinimizePreservesEquivalence) {
  const std::vector<std::string> queries = {
      "q(X) :- e(X, Y), e(X, Y2), e(Y2, Z).",
      "q(X, Y) :- e(X, Y), e(X, W).",
      "q() :- e(A, B), e(B, C), e(C, A), e(D, D).",
      "q(X) :- p(X, 1), p(X, Y).",
  };
  for (const std::string& text : queries) {
    Rule q = R(text);
    Result<Rule> core = MinimizeQuery(q);
    ASSERT_TRUE(core.ok()) << text;
    Result<bool> a = CqContained(q, *core);
    Result<bool> b = CqContained(*core, q);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_TRUE(*a && *b) << text << " -> " << core->ToString(interner_);
    EXPECT_LE(core->body.size(), q.body.size());
    EXPECT_TRUE(*IsMinimal(*core));
  }
}

TEST_F(ExtensionsTest, MinimizeRejectsComparisons) {
  Rule q = R("q(X) :- e(X, Y), Y < 3.");
  EXPECT_EQ(MinimizeQuery(q).status().code(), StatusCode::kUnsupported);
}

TEST_F(ExtensionsTest, MinimizeKeepsHeadVariableSupport) {
  // Dropping e(X, Y) would make head var Y unsafe even though a folding
  // exists; the core must stay safe.
  Rule q = R("q(Y) :- e(X, Y), e(X2, Y2).");
  Result<Rule> core = MinimizeQuery(q);
  ASSERT_TRUE(core.ok());
  ASSERT_EQ(core->body.size(), 1u);
  EXPECT_TRUE(core->CheckSafe().ok());
}

// ---------------------------------------------------------------------------
// Indexed evaluation agrees with the unindexed reference.
// ---------------------------------------------------------------------------

TEST_F(ExtensionsTest, IndexedEvaluationMatchesReference) {
  Program tc = P(
      "tc(X, Y) :- e(X, Y).\n"
      "tc(X, Y) :- e(X, Z), tc(Z, Y).\n");
  Database graph = D(
      "e(1, 2). e(2, 3). e(3, 1). e(3, 4). e(4, 4). e(5, 1).");
  EvalOptions with, without;
  with.use_index = true;
  without.use_index = false;
  Result<EvalResult> a = Evaluate(tc, graph, with);
  Result<EvalResult> b = Evaluate(tc, graph, without);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(a->database.SameFactsAs(b->database));
}

TEST_F(ExtensionsTest, IndexHandlesSkolemValues) {
  Program p = P(
      "v(f(X), X) :- a(X).\n"
      "w(Y) :- v(Z, Y), u(Z).\n"
      "u(f(X)) :- a(X).\n");
  Database db = D("a(1). a(2).");
  Result<std::vector<Tuple>> out = EvaluateGoal(p, S("w"), db);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 2u);
}

}  // namespace
}  // namespace relcont

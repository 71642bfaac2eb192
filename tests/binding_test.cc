#include <algorithm>
#include <gtest/gtest.h>

#include "binding/dom_plan.h"
#include "datalog/parser.h"
#include "datalog/substitution.h"
#include "eval/evaluator.h"
#include "relcont/decide.h"

namespace relcont {
namespace {

class BindingTest : public ::testing::Test {
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
  SymbolId S(const char* name) { return interner_.Intern(name); }
  Adornment A(const char* text) {
    Result<Adornment> a = Adornment::Parse(text);
    EXPECT_TRUE(a.ok());
    return *a;
  }

  Interner interner_;
};

TEST_F(BindingTest, AdornmentParseAndPrint) {
  Adornment a = A("fbf");
  EXPECT_EQ(a.arity(), 3);
  EXPECT_FALSE(a.IsBound(0));
  EXPECT_TRUE(a.IsBound(1));
  EXPECT_FALSE(a.IsBound(2));
  EXPECT_TRUE(a.HasBoundPosition());
  EXPECT_EQ(a.ToString(), "fbf");
  EXPECT_FALSE(Adornment::Parse("fxb").ok());
  EXPECT_FALSE(Adornment::AllFree(2).HasBoundPosition());
}

TEST_F(BindingTest, ExecutabilityDefinition41) {
  BindingPatterns patterns;
  patterns.Set(S("redcars"), A("fbf"));
  // The paper's example: the model must be known before calling RedCars.
  EXPECT_FALSE(IsRuleExecutable(
      R("p(C, Y) :- redcars(C, M, Y)."), patterns));
  EXPECT_TRUE(IsRuleExecutable(
      R("p(C, Y) :- models(M), redcars(C, M, Y)."), patterns));
  // A constant in the bound position is fine ("cheating" plans, which the
  // sound-plan discipline rules out separately).
  EXPECT_TRUE(IsRuleExecutable(
      R("p(C, Y) :- redcars(C, corolla, Y)."), patterns));
}

TEST_F(BindingTest, ExecutabilityIsOrderSensitive) {
  BindingPatterns patterns;
  patterns.Set(S("lookup"), A("bf"));
  Rule bad = R("p(Y) :- lookup(X, Y), seed(X).");
  EXPECT_FALSE(IsRuleExecutable(bad, patterns));
  std::optional<Rule> fixed = ReorderForExecutability(bad, patterns);
  ASSERT_TRUE(fixed.has_value());
  EXPECT_TRUE(IsRuleExecutable(*fixed, patterns));
  EXPECT_EQ(fixed->body[0].predicate, S("seed"));
}

TEST_F(BindingTest, ReorderFailsWhenImpossible) {
  BindingPatterns patterns;
  patterns.Set(S("a"), A("bf"));
  patterns.Set(S("b"), A("bf"));
  // a needs X which only b outputs, and b needs Y which only a outputs.
  Rule rule = R("p(X, Y) :- a(X, Y), b(Y, X).");
  EXPECT_FALSE(ReorderForExecutability(rule, patterns).has_value());
}

TEST_F(BindingTest, ExecutablePlanGuardsAndDomRules) {
  ViewSet views = V(
      "isbns(I) :- book(I, T).\n"
      "pricelookup(I, P) :- price(I, P).\n");
  BindingPatterns patterns;
  patterns.Set(S("pricelookup"), A("bf"));
  Program query = P("q(T, P) :- book(I, T), price(I, P).");
  Result<ExecutablePlanResult> plan =
      ExecutablePlan(query, views, patterns, &interner_);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  // Expected rules: the query; book-inverse (from isbns); price-inverse
  // guarded by dom; dom rules for isbns' free column and pricelookup's
  // free column. No constants, so no dom facts.
  const Program& prog = plan->program;
  SymbolId dom = plan->dom_predicate;
  int guarded_inverse = 0;
  int dom_rules = 0;
  for (const Rule& r : prog.rules) {
    bool has_guard = false;
    for (const Atom& a : r.body) {
      if (a.predicate == dom) has_guard = true;
    }
    if (r.head.predicate == dom) {
      ++dom_rules;
    } else if (has_guard) {
      ++guarded_inverse;
    }
  }
  EXPECT_EQ(guarded_inverse, 1);  // price-inverse needs dom(I)
  EXPECT_EQ(dom_rules, 2);        // dom(I) from isbns, dom(P) from lookup
  EXPECT_TRUE(prog.IsRecursive() ||
              !prog.RecursivePredicates().count(dom));
}

TEST_F(BindingTest, ReachableCertainAnswersNeedSeeds) {
  // Amazon-style: prices only by ISBN; ISBNs come from the catalog.
  ViewSet views = V(
      "isbns(I) :- book(I, T).\n"
      "pricelookup(I, P) :- price(I, P).\n");
  BindingPatterns patterns;
  patterns.Set(S("pricelookup"), A("bf"));
  Program query = P("q(P) :- price(I, P).");
  Database inst = D(
      "isbns(i1).\n"
      "pricelookup(i1, 10).\n"
      "pricelookup(i2, 20).\n");
  Result<std::vector<Tuple>> answers = ReachableCertainAnswers(
      query, S("q"), views, patterns, inst, &interner_);
  ASSERT_TRUE(answers.ok()) << answers.status().ToString();
  // i2's price is unreachable: no way to learn i2.
  ASSERT_EQ(answers->size(), 1u);
  EXPECT_EQ((*answers)[0][0].value().number(), Rational(10));
}

TEST_F(BindingTest, WithoutPatternsAllAnswersReachable) {
  ViewSet views = V(
      "isbns(I) :- book(I, T).\n"
      "pricelookup(I, P) :- price(I, P).\n");
  BindingPatterns none;
  Program query = P("q(P) :- price(I, P).");
  Database inst = D("pricelookup(i1, 10). pricelookup(i2, 20).");
  Result<std::vector<Tuple>> answers = ReachableCertainAnswers(
      query, S("q"), views, none, inst, &interner_);
  ASSERT_TRUE(answers.ok());
  EXPECT_EQ(answers->size(), 2u);
}

TEST_F(BindingTest, RecursiveDomChainsUnlockDeepAnswers) {
  // [DGL]: recursion is necessary — values discovered from one lookup seed
  // the next.
  ViewSet views = V(
      "seed(X) :- link(a, X).\n"
      "next(X, Y) :- link(X, Y).\n");
  BindingPatterns patterns;
  patterns.Set(S("next"), A("bf"));
  Program query = P("q(Y) :- link(X, Y).");
  Database inst = D(
      "seed(b).\n"
      "next(b, c). next(c, d). next(z, zz).\n");
  Result<std::vector<Tuple>> answers = ReachableCertainAnswers(
      query, S("q"), views, patterns, inst, &interner_);
  ASSERT_TRUE(answers.ok());
  // Reachable: b (seed), c (next from b), d (next from c); zz requires z,
  // which is never discovered. 'a' is a constant of V, so dom(a) holds and
  // next(a, ...) could fire, but the instance has no such tuple.
  std::set<std::string> got;
  for (const Tuple& t : *answers) {
    got.insert(interner_.NameOf(t[0].value().symbol()));
  }
  EXPECT_EQ(got, (std::set<std::string>{"b", "c", "d"}));
}

TEST_F(BindingTest, PlanUsesOnlyQueryAndViewConstants) {
  // Definition 4.2: sound plans introduce no new constants. The plan may
  // probe with 'corolla' (a view constant) but must not invent 'pinto'.
  ViewSet views = V("bymodel(C, Y) :- car(C, corolla, Y).");
  BindingPatterns patterns;
  patterns.Set(S("bymodel"), A("ff"));
  Program query = P("q(C) :- car(C, M, Y).");
  Result<ExecutablePlanResult> plan =
      ExecutablePlan(query, views, patterns, &interner_);
  ASSERT_TRUE(plan.ok());
  bool has_corolla_fact = false;
  for (const Rule& r : plan->program.rules) {
    if (r.head.predicate == plan->dom_predicate && r.body.empty()) {
      EXPECT_EQ(r.head.args[0].value().symbol(), S("corolla"));
      has_corolla_fact = true;
    }
  }
  EXPECT_TRUE(has_corolla_fact);
}

TEST_F(BindingTest, GeneratedPlansAreThemselvesExecutable) {
  // The construction must produce rules that satisfy its own Definition
  // 4.1: dom guards precede the source subgoal whose bound positions they
  // feed.
  ViewSet views = V(
      "isbns(I) :- book(I, T).\n"
      "pricelookup(I, P) :- price(I, P).\n"
      "review(I, R) :- opinion(I, R).\n");
  BindingPatterns patterns;
  patterns.Set(S("pricelookup"), A("bf"));
  patterns.Set(S("review"), A("bf"));
  Program query = P("q(T, P, R) :- book(I, T), price(I, P), opinion(I, R).");
  Result<ExecutablePlanResult> plan =
      ExecutablePlan(query, views, patterns, &interner_);
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(IsProgramExecutable(plan->program, patterns));
}

TEST_F(BindingTest, ExecutablePlanRejectsComparisons) {
  ViewSet views = V("v(X) :- p(X).");
  BindingPatterns patterns;
  Program query = P("q(X) :- p(X), X < 3.");
  EXPECT_EQ(ExecutablePlan(query, views, patterns, &interner_)
                .status()
                .code(),
            StatusCode::kUnsupported);
}

TEST_F(BindingTest, ExpandedPlanSeparatesPlanRelationsFromStored) {
  ViewSet views = V(
      "isbns(I) :- book(I, T).\n"
      "pricelookup(I, P) :- price(I, P).\n");
  BindingPatterns patterns;
  patterns.Set(S("pricelookup"), A("bf"));
  Program query = P("q(P) :- price(I, P).");
  Result<ExecutablePlanTemplate> plan =
      ExecutablePlanTemplate::Compile(views, patterns);
  ASSERT_TRUE(plan.ok());
  Result<ExpandedExecutablePlan> expanded =
      ExpandExecutablePlan(query, S("q"), views, &*plan, &interner_);
  ASSERT_TRUE(expanded.ok()) << expanded.status().ToString();
  // EDB schema is the mediated schema; the plan's own reconstruction of
  // price is a distinct (primed) IDB predicate.
  std::set<SymbolId> edb = expanded->program.EdbPredicates();
  EXPECT_TRUE(edb.count(S("book")) > 0);
  EXPECT_TRUE(edb.count(S("price")) > 0);
  std::set<SymbolId> idb = expanded->program.IdbPredicates();
  EXPECT_TRUE(idb.count(S("q")) > 0);
  EXPECT_EQ(idb.count(S("price")), 0u);
  EXPECT_TRUE(idb.count(views.Primed(S("price"))) > 0);
  // Recursion survives only through dom.
  EXPECT_EQ(expanded->program.RecursivePredicates(),
            std::set<SymbolId>{expanded->dom});
}

TEST_F(BindingTest, ExpandedPlanDropsUncoveredMediatedRelations) {
  // No source covers relation s, so the query rule through it vanishes.
  ViewSet views = V("v(X) :- p(X).");
  BindingPatterns patterns;
  Program query = P(
      "q(X) :- p(X).\n"
      "q(X) :- s(X).\n");
  Result<ExecutablePlanTemplate> plan =
      ExecutablePlanTemplate::Compile(views, patterns);
  ASSERT_TRUE(plan.ok());
  Result<ExpandedExecutablePlan> expanded =
      ExpandExecutablePlan(query, S("q"), views, &*plan, &interner_);
  ASSERT_TRUE(expanded.ok());
  int q_rules = 0;
  for (const Rule& r : expanded->program.rules) {
    if (r.head.predicate == S("q")) ++q_rules;
  }
  EXPECT_EQ(q_rules, 1);
}

// A relation spelled like the old primed copies ("_plan_" + name) is an
// ordinary mediated relation: the plan's copy of e is spelled e', which no
// parsed identifier spells, so it never merges with _plan_e.
TEST_F(BindingTest, RelationSpelledLikeAPlanCopyStaysApart) {
  ViewSet views = V(
      "v(X, Y) :- e(X, Y).\n"
      "w(X, Y) :- _plan_e(X, Y).\n"
      "u(X, Y) :- e(X, Y).\n");
  BindingPatterns patterns;
  patterns.Set(S("u"), A("bf"));
  GoalQuery a{P("a(X) :- _plan_e(X, Y)."), S("a")};
  GoalQuery b{P("b(X) :- _plan_e(X, Y)."), S("b")};
  Result<Decision> d =
      DecideRelativeContainment(a, b, views, patterns, &interner_);
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  EXPECT_TRUE(d->contained);
  EXPECT_EQ(d->regime, Regime::kSection4);
  EXPECT_NE(views.Primed(S("e")), views.Primed(S("_plan_e")));
  EXPECT_EQ(interner_.NameOf(views.Primed(S("e"))), "e'");

  // Theorem 3.2 with the recursion on Q1: the bounded search cannot certify
  // the containment, and it must not refute it.
  ViewSet open = V(
      "v(X, Y) :- e(X, Y).\n"
      "w(X, Y) :- _plan_e(X, Y).\n");
  GoalQuery tc{P("a(X) :- t(X, Y).\n"
                 "t(X, Y) :- _plan_e(X, Y).\n"
                 "t(X, Y) :- _plan_e(X, Z), t(Z, Y).\n"),
               S("a")};
  Result<Decision> rec =
      DecideRelativeContainment(tc, b, open, BindingPatterns(), &interner_);
  ASSERT_FALSE(rec.ok());
  EXPECT_EQ(rec.status().code(), StatusCode::kBoundReached);
}

// A Section 4 NO from the bounded fallback (Q1 recursive, outside the dom
// shape) carries the witness every regime promises, and the witness is a
// real counterexample: frozen, its induced source instance has the head
// among Q1's reachable certain answers and not among Q2's.
TEST_F(BindingTest, FallbackRefutationCarriesAWitness) {
  ViewSet views = V(
      "v(X, Y) :- e(X, Y).\n"
      "u(X, Y) :- f(X, Y).\n");
  BindingPatterns patterns;
  patterns.Set(S("u"), A("bf"));
  GoalQuery q1{P("a(X) :- t(X, Y).\n"
                 "t(X, Y) :- e(X, Y).\n"
                 "t(X, Y) :- e(X, Z), t(Z, Y).\n"),
               S("a")};
  GoalQuery q2{P("b(X) :- e(X, Y), e(Y, Z)."), S("b")};
  Result<Decision> d =
      DecideRelativeContainment(q1, q2, views, patterns, &interner_);
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  EXPECT_FALSE(d->contained);
  EXPECT_EQ(d->regime, Regime::kSection4);
  ASSERT_TRUE(d->witness.has_value());
  // Freeze the witness and take every view's full extension over it.
  Substitution freeze;
  for (SymbolId v : d->witness->Variables()) {
    freeze.Bind(v, Term::Symbol(interner_.Fresh("_w")));
  }
  Database mediated;
  for (const Atom& a : d->witness->body) mediated.Add(freeze.Apply(a));
  Tuple head = freeze.Apply(d->witness->head).args;
  Database sources;
  for (const ViewDefinition& v : views.views()) {
    Result<std::vector<Tuple>> ext =
        EvaluateGoal(Program({v.rule}), v.source_predicate(), mediated);
    ASSERT_TRUE(ext.ok());
    for (Tuple& t : *ext) sources.Add(v.source_predicate(), std::move(t));
  }
  Result<std::vector<Tuple>> r1 = ReachableCertainAnswers(
      q1.program, q1.goal, views, patterns, sources, &interner_);
  Result<std::vector<Tuple>> r2 = ReachableCertainAnswers(
      q2.program, q2.goal, views, patterns, sources, &interner_);
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_NE(std::find(r1->begin(), r1->end(), head), r1->end());
  EXPECT_EQ(std::find(r2->begin(), r2->end(), head), r2->end());
}

// Cross-validation: plan-based reachable certain answers equal evaluation
// of the expanded program on the canonical completion... here simply: the
// reachable answers are always a subset of the unrestricted certain
// answers.
TEST_F(BindingTest, ReachableAnswersSubsetOfUnrestricted) {
  ViewSet views = V(
      "seed(X) :- link(a, X).\n"
      "next(X, Y) :- link(X, Y).\n");
  Program query = P("q(Y) :- link(X, Y).");
  Database inst = D("seed(b). next(b, c). next(z, zz).");
  BindingPatterns restricted;
  restricted.Set(S("next"), A("bf"));
  BindingPatterns free;
  Result<std::vector<Tuple>> with = ReachableCertainAnswers(
      query, S("q"), views, restricted, inst, &interner_);
  Result<std::vector<Tuple>> without = ReachableCertainAnswers(
      query, S("q"), views, free, inst, &interner_);
  ASSERT_TRUE(with.ok());
  ASSERT_TRUE(without.ok());
  for (const Tuple& t : *with) {
    EXPECT_NE(std::find(without->begin(), without->end(), t),
              without->end());
  }
  EXPECT_LT(with->size(), without->size());
}

}  // namespace
}  // namespace relcont

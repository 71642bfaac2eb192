#include "trace/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "containment/canonical.h"
#include "containment/cq_containment.h"
#include "containment/homomorphism.h"
#include "datalog/parser.h"
#include "datalog/unfold.h"
#include "binding/adornment.h"
#include "relcont/binding_containment.h"
#include "relcont/decide.h"
#include "relcont/relative_containment.h"
#include "rewriting/inverse_rules.h"

namespace relcont {
namespace {

using trace::Counter;
using trace::TraceContext;
using trace::TraceScope;

// --- context mechanics ------------------------------------------------------

TEST(TraceContextTest, SpansNestAndCountersAttachToInnermost) {
  TraceContext ctx;
  int outer = ctx.OpenSpan("outer");
  ctx.AddCount(Counter::kPlanRules, 2);
  int inner = ctx.OpenSpan("inner");
  ctx.AddCount(Counter::kPlanRules, 5);
  ctx.CloseSpan(inner);
  ctx.AddCount(Counter::kHomBacktracks, 1);
  ctx.CloseSpan(outer);

  ASSERT_EQ(ctx.spans().size(), 2u);
  const trace::SpanNode& o = ctx.spans()[0];
  const trace::SpanNode& i = ctx.spans()[1];
  EXPECT_STREQ(o.name, "outer");
  EXPECT_EQ(o.parent, -1);
  EXPECT_EQ(o.depth, 0);
  EXPECT_STREQ(i.name, "inner");
  EXPECT_EQ(i.parent, 0);
  EXPECT_EQ(i.depth, 1);
  EXPECT_EQ(o.counters[static_cast<size_t>(Counter::kPlanRules)], 2u);
  EXPECT_EQ(i.counters[static_cast<size_t>(Counter::kPlanRules)], 5u);
  EXPECT_EQ(o.counters[static_cast<size_t>(Counter::kHomBacktracks)], 1u);
  EXPECT_EQ(ctx.TotalCount(Counter::kPlanRules), 7u);
}

TEST(TraceContextTest, CloseAbsorbsUnclosedChildren) {
  TraceContext ctx;
  int outer = ctx.OpenSpan("outer");
  ctx.OpenSpan("leaked");
  ctx.CloseSpan(outer);  // must close "leaked" too
  for (const trace::SpanNode& s : ctx.spans()) {
    EXPECT_GE(s.end_ns, s.start_ns) << s.name;
  }
  // A new span after that is a fresh root, not a child of a closed span.
  int next = ctx.OpenSpan("next");
  EXPECT_EQ(ctx.spans()[next].depth, 0);
}

TEST(TraceContextTest, ScopeInstallsAndRestores) {
  EXPECT_EQ(trace::CurrentTrace(), nullptr);
  TraceContext outer_ctx;
  {
    TraceScope outer(&outer_ctx);
    EXPECT_EQ(trace::CurrentTrace(), &outer_ctx);
    TraceContext inner_ctx;
    {
      TraceScope inner(&inner_ctx);
      EXPECT_EQ(trace::CurrentTrace(), &inner_ctx);
    }
    EXPECT_EQ(trace::CurrentTrace(), &outer_ctx);
  }
  EXPECT_EQ(trace::CurrentTrace(), nullptr);
}

TEST(TraceContextTest, NoScopeMeansNoRecording) {
  Interner interner;
  Rule from = *ParseRule("q(X) :- e(X, Y).", &interner);
  Rule to = *ParseRule("q(A) :- e(A, B).", &interner);
  // No TraceScope installed: the instrumented search must record nothing
  // anywhere (there is nowhere to record to) and still work.
  EXPECT_TRUE(FindContainmentMapping(from, to).has_value());
  EXPECT_EQ(trace::CurrentTrace(), nullptr);
}

TEST(TraceContextTest, RenderingsContainSpansAndCounters) {
  TraceContext ctx;
  int s = ctx.OpenSpan("decide");
  ctx.AddCount(Counter::kHomMappingCalls, 3);
  ctx.CloseSpan(s);
  std::string text = ctx.ToText();
  EXPECT_NE(text.find("decide"), std::string::npos);
  EXPECT_NE(text.find("hom_mapping_calls=3"), std::string::npos);
  std::string json = ctx.ToChromeJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"decide\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"hom_mapping_calls\":3"), std::string::npos);
}

// --- well-formedness of recorded decision traces ----------------------------

void ExpectWellFormed(const TraceContext& ctx) {
  const std::vector<trace::SpanNode>& spans = ctx.spans();
  for (size_t i = 0; i < spans.size(); ++i) {
    const trace::SpanNode& s = spans[i];
    EXPECT_GE(s.end_ns, s.start_ns) << s.name;
    if (s.parent < 0) {
      EXPECT_EQ(s.depth, 0) << s.name;
      continue;
    }
    ASSERT_LT(s.parent, static_cast<int>(i)) << s.name;
    const trace::SpanNode& p = spans[s.parent];
    EXPECT_EQ(s.depth, p.depth + 1) << s.name;
    // A child's interval nests inside its parent's.
    EXPECT_GE(s.start_ns, p.start_ns) << s.name;
    EXPECT_LE(s.end_ns, p.end_ns) << s.name;
  }
  // Spans are recorded in opening order, so starts are nondecreasing.
  for (size_t i = 1; i < spans.size(); ++i) {
    EXPECT_GE(spans[i].start_ns, spans[i - 1].start_ns);
  }
}

class TraceDecisionTest : public ::testing::Test {
 protected:
  GoalQuery GQ(const std::string& text, const char* goal) {
    Result<Program> p = ParseProgram(text, &interner_);
    EXPECT_TRUE(p.ok()) << p.status().ToString();
    return GoalQuery{*p, interner_.Intern(goal)};
  }
  ViewSet V(const std::string& text) {
    Result<ViewSet> v = ParseViews(text, &interner_);
    EXPECT_TRUE(v.ok()) << v.status().ToString();
    return *v;
  }

  Interner interner_;
};

TEST_F(TraceDecisionTest, DecisionTraceIsWellFormedAndNamesTheRegime) {
  if (!trace::kCompiledIn) GTEST_SKIP() << "trace hooks compiled out";
  ViewSet views = V("v(X, Y) :- p(X, Y).");
  GoalQuery q1 = GQ("a(X) :- p(X, Y).", "a");
  GoalQuery q2 = GQ("b(X) :- p(X, Z).", "b");
  TraceContext ctx;
  {
    TraceScope scope(&ctx);
    Result<Decision> d = DecideRelativeContainment(q1, q2, views,
                                                   BindingPatterns{},
                                                   &interner_);
    ASSERT_TRUE(d.ok()) << d.status().ToString();
    EXPECT_TRUE(d->contained);
    EXPECT_EQ(d->regime, Regime::kSection3);
  }
  ExpectWellFormed(ctx);
  ASSERT_FALSE(ctx.spans().empty());
  EXPECT_STREQ(ctx.spans()[0].name, "decide");
  EXPECT_EQ(ctx.spans()[0].parent, -1);
  std::set<std::string> names;
  for (const trace::SpanNode& s : ctx.spans()) names.insert(s.name);
  EXPECT_TRUE(names.count("regime_section3"));
  EXPECT_TRUE(names.count("build_plans"));
  EXPECT_TRUE(names.count("containment_check"));
  EXPECT_GT(ctx.root_duration_ns(), 0u);
}

TEST_F(TraceDecisionTest, ComparisonRegimeTraceIsWellFormed) {
  if (!trace::kCompiledIn) GTEST_SKIP() << "trace hooks compiled out";
  // Paper Example 1's comparison sources (Theorem 5.1 regime).
  ViewSet views = V(
      "redcars(C, M, Y) :- cardesc(C, M, red, Y).\n"
      "antiquecars(C, M, Y) :- cardesc(C, M, Col, Y), Y < 1970.\n"
      "caranddriver(M, R) :- review(M, R, 10).\n");
  GoalQuery q3 = GQ(
      "q3(C, R) :- cardesc(C, M, Col, Y), review(M, R, 10), Y < 1970.",
      "q3");
  GoalQuery q1 = GQ(
      "q1(C, R) :- cardesc(C, M, Col, Y), review(M, R, Rat), Y < 1980.",
      "q1");
  TraceContext ctx;
  {
    TraceScope scope(&ctx);
    Result<Decision> d = DecideRelativeContainment(q3, q1, views,
                                                   BindingPatterns{},
                                                   &interner_);
    ASSERT_TRUE(d.ok()) << d.status().ToString();
    EXPECT_EQ(d->regime, Regime::kTheorem51);
  }
  ExpectWellFormed(ctx);
  std::set<std::string> names;
  for (const trace::SpanNode& s : ctx.spans()) names.insert(s.name);
  EXPECT_TRUE(names.count("regime_theorem51"));
  EXPECT_TRUE(names.count("plan_comparison_aware"));
}

TEST_F(TraceDecisionTest, RecursiveRegimeTraceIsWellFormed) {
  if (!trace::kCompiledIn) GTEST_SKIP() << "trace hooks compiled out";
  ViewSet views = V("ve(X, Y) :- e(X, Y).");
  GoalQuery q1 = GQ("a(X, Y) :- e(X, Y).", "a");
  GoalQuery q2 = GQ(
      "t(X, Y) :- e(X, Y).\n"
      "t(X, Y) :- e(X, Z), t(Z, Y).\n",
      "t");
  TraceContext ctx;
  {
    TraceScope scope(&ctx);
    Result<Decision> d = DecideRelativeContainment(q1, q2, views,
                                                   BindingPatterns{},
                                                   &interner_);
    ASSERT_TRUE(d.ok()) << d.status().ToString();
    EXPECT_EQ(d->regime, Regime::kTheorem32);
    EXPECT_TRUE(d->contained);
  }
  ExpectWellFormed(ctx);
  std::set<std::string> names;
  for (const trace::SpanNode& s : ctx.spans()) names.insert(s.name);
  EXPECT_TRUE(names.count("regime_theorem32"));
  EXPECT_TRUE(names.count("canonical_eval"));
  EXPECT_GT(ctx.TotalCount(Counter::kFrozenQueries), 0u);
}

// --- counters vs. independent recounts --------------------------------------

// Brute-force containment-mapping counter: enumerates EVERY assignment of
// the variables of `from` to terms occurring in `to` and checks the
// Chandra–Merlin conditions directly. Exponential and entirely independent
// of the backtracking search it double-checks.
uint64_t BruteForceMappingCount(const Rule& from, const Rule& to) {
  std::set<SymbolId> var_set;
  for (SymbolId v : from.HeadVariables()) var_set.insert(v);
  for (SymbolId v : from.BodyVariables()) var_set.insert(v);
  std::vector<SymbolId> vars(var_set.begin(), var_set.end());

  std::vector<Term> targets;
  auto add_target = [&targets](const Term& t) {
    if (std::find(targets.begin(), targets.end(), t) == targets.end()) {
      targets.push_back(t);
    }
  };
  for (const Term& t : to.head.args) add_target(t);
  for (const Atom& a : to.body) {
    for (const Term& t : a.args) add_target(t);
  }

  uint64_t count = 0;
  std::vector<size_t> choice(vars.size(), 0);
  for (;;) {
    Substitution h;
    for (size_t i = 0; i < vars.size(); ++i) h.Bind(vars[i], targets[choice[i]]);
    bool ok = from.head.args.size() == to.head.args.size();
    for (size_t i = 0; ok && i < from.head.args.size(); ++i) {
      if (!(h.Apply(from.head.args[i]) == to.head.args[i])) ok = false;
    }
    for (size_t i = 0; ok && i < from.body.size(); ++i) {
      Atom mapped = h.Apply(from.body[i]);
      bool found = false;
      for (const Atom& target : to.body) {
        if (mapped == target) {
          found = true;
          break;
        }
      }
      ok = found;
    }
    if (ok) ++count;
    // Next assignment in the cartesian product.
    size_t d = 0;
    while (d < vars.size() && ++choice[d] == targets.size()) {
      choice[d] = 0;
      ++d;
    }
    if (d == vars.size()) break;
  }
  return count;
}

TEST_F(TraceDecisionTest, HomCountersMatchBruteForceRecount) {
  if (!trace::kCompiledIn) GTEST_SKIP() << "trace hooks compiled out";
  struct Case {
    const char* from;
    const char* to;
  };
  const Case cases[] = {
      // Two ways to fold a 2-chain into a fork.
      {"q(X) :- e(X, Y).", "q(A) :- e(A, B), e(A, C)."},
      // A 2-chain into a 2-cycle: exactly one folding.
      {"q(X) :- e(X, Y), e(Y, Z).", "q(A) :- e(A, B), e(B, A)."},
      // A triangle into itself: the identity plus rotations that fix the
      // head.
      {"q(X) :- e(X, Y), e(Y, Z), e(Z, X).",
       "q(A) :- e(A, B), e(B, C), e(C, A)."},
      // No mapping: the target lacks the loop.
      {"q(X) :- e(X, X).", "q(A) :- e(A, B)."},
  };
  for (const Case& c : cases) {
    Rule from = *ParseRule(c.from, &interner_);
    Rule to = *ParseRule(c.to, &interner_);
    uint64_t expected = BruteForceMappingCount(from, to);

    TraceContext ctx;
    uint64_t visited = 0;
    {
      TraceScope scope(&ctx);
      ForEachContainmentMapping(from, to, [&](const Substitution&) {
        ++visited;
        return false;  // enumerate everything
      });
    }
    EXPECT_EQ(ctx.TotalCount(Counter::kHomMappingsFound), expected)
        << c.from << " into " << c.to;
    EXPECT_EQ(visited, expected) << c.from << " into " << c.to;
    EXPECT_EQ(ctx.TotalCount(Counter::kHomMappingCalls), 1u);
    // Every mapping found required at least one candidate per subgoal.
    if (expected > 0) {
      EXPECT_GE(ctx.TotalCount(Counter::kHomCandidatesTried),
                expected * from.body.size());
    }
  }
}

TEST_F(TraceDecisionTest, PlanAndDisjunctCountersMatchRecount) {
  if (!trace::kCompiledIn) GTEST_SKIP() << "trace hooks compiled out";
  ViewSet views = V(
      "v1(X) :- p(X, Y).\n"
      "v2(X, Y) :- p(X, Y), r(Y).\n");
  GoalQuery q1 = GQ("a(X) :- p(X, Y).", "a");
  GoalQuery q2 = GQ("b(X) :- p(X, Z).", "b");

  TraceContext ctx;
  Result<RelativeContainmentResult> traced = [&]() {
    TraceScope scope(&ctx);
    return RelativelyContained(q1, q2, views, &interner_);
  }();
  ASSERT_TRUE(traced.ok()) << traced.status().ToString();

  // Independent recount, outside any trace: rebuild both plans with the
  // same public API and count what the counters claim to count.
  Result<Program> p1 = MaximallyContainedPlan(q1.program, views, &interner_);
  Result<Program> p2 = MaximallyContainedPlan(q2.program, views, &interner_);
  ASSERT_TRUE(p1.ok() && p2.ok());
  Result<UnionQuery> u1 = UnfoldToUnion(*p1, q1.goal, &interner_);
  Result<UnionQuery> u2 = UnfoldToUnion(*p2, q2.goal, &interner_);
  ASSERT_TRUE(u1.ok() && u2.ok());
  Result<UnionQuery> plan1 = UnionPlan(q1.program, q1.goal, views, &interner_);
  Result<UnionQuery> plan2 = UnionPlan(q2.program, q2.goal, views, &interner_);
  ASSERT_TRUE(plan1.ok() && plan2.ok());

  // Each view body atom contributes one inverse rule, built once per plan.
  uint64_t inverse_rules = 0;
  for (const ViewDefinition& v : views.views()) {
    inverse_rules += v.rule.body.size();
  }
  EXPECT_EQ(ctx.TotalCount(Counter::kPlanRules), 2 * inverse_rules);
  EXPECT_EQ(ctx.TotalCount(Counter::kUnfoldDisjuncts),
            u1->disjuncts.size() + u2->disjuncts.size());
  EXPECT_EQ(ctx.TotalCount(Counter::kPlanDisjunctsKept),
            plan1->disjuncts.size() + plan2->disjuncts.size());
  EXPECT_EQ(ctx.TotalCount(Counter::kPlanDisjunctsDropped),
            (u1->disjuncts.size() + u2->disjuncts.size()) -
                (plan1->disjuncts.size() + plan2->disjuncts.size()));

  // Disjunct checks: RelativelyContained asks, for every disjunct of
  // plan1, whether it maps into SOME disjunct of plan2, trying plan2's
  // disjuncts in order until one admits a mapping. Recount that loop with
  // FindContainmentMapping, the single-pair primitive.
  uint64_t checks = 0;
  uint64_t hom_calls = 0;
  for (const Rule& d : plan1->disjuncts) {
    for (const Rule& target : plan2->disjuncts) {
      if (d.head.arity() != target.head.arity()) continue;
      ++checks;
      ++hom_calls;
      if (FindContainmentMapping(target, d).has_value()) break;
    }
  }
  EXPECT_EQ(ctx.TotalCount(Counter::kDisjunctChecks), checks);
  EXPECT_EQ(ctx.TotalCount(Counter::kHomMappingCalls), hom_calls);
}

TEST_F(TraceDecisionTest, FrozenCountersMatchRecount) {
  if (!trace::kCompiledIn) GTEST_SKIP() << "trace hooks compiled out";
  Rule q = *ParseRule("q(X) :- e(X, Y), e(Y, Z), f(Z, c).", &interner_);
  TraceContext ctx;
  Result<FrozenQuery> frozen = [&]() {
    TraceScope scope(&ctx);
    return FreezeRule(q, &interner_);
  }();
  ASSERT_TRUE(frozen.ok()) << frozen.status().ToString();
  EXPECT_EQ(ctx.TotalCount(Counter::kFrozenQueries), 1u);
  EXPECT_EQ(ctx.TotalCount(Counter::kFrozenAtoms), q.body.size());
  // FreezeRule invents one fresh constant per distinct variable.
  EXPECT_EQ(ctx.TotalCount(Counter::kFrozenConstants), q.Variables().size());
}

// The section 4 decider's counts on fixed instances, pinned at the values
// it has always reported: a change to how many tree profile types
// saturation keeps, or to how many (core, assignment) combinations the
// forall-exists check visits, fails here.
TEST_F(TraceDecisionTest, DomCountersArePinned) {
  if (!trace::kCompiledIn) GTEST_SKIP() << "trace hooks compiled out";
  struct Case {
    const char* views;
    std::vector<const char*> bf_sources;
    const char* q1;
    const char* q1_goal;
    const char* q2;
    const char* q2_goal;
    bool contained;
    uint64_t tree_options;
    uint64_t cores_checked;
  };
  const char* kChainViews =
      "seed(X) :- link(a, X).\n"
      "next0(X, Y) :- link(X, Y).\n"
      "next1(X, Y) :- link(X, Y).\n";
  const Case cases[] = {
      {"v(X, Y) :- p(X, Y).", {"v"}, "a(Y) :- p(c, Y).", "a",
       "b(Y) :- p(c, Y).", "b", true, 4, 3},
      {kChainViews, {"next0", "next1"}, "q1(Y) :- link(X, Y).", "q1",
       "q3(Y) :- link(a, Y).\nq3(Y) :- link(X1, X2), link(X2, Y).\n", "q3",
       true, 2, 7},
      {kChainViews, {"next0", "next1"}, "q1(Y) :- link(X, Y).", "q1",
       "q4(Y) :- link(a, Y).", "q4", false, 2, 3},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.q2);
    ViewSet views = V(c.views);
    BindingPatterns patterns;
    for (const char* source : c.bf_sources) {
      patterns.Set(interner_.Intern(source), *Adornment::Parse("bf"));
    }
    GoalQuery q1 = GQ(c.q1, c.q1_goal);
    GoalQuery q2 = GQ(c.q2, c.q2_goal);
    TraceContext ctx;
    Result<BindingRelativeResult> r = [&]() {
      TraceScope scope(&ctx);
      return RelativelyContainedWithBindingPatterns(q1, q2, views, patterns,
                                                   &interner_);
    }();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->contained, c.contained);
    EXPECT_EQ(ctx.TotalCount(Counter::kDomTreeOptions), c.tree_options);
    EXPECT_EQ(ctx.TotalCount(Counter::kDomCoresChecked), c.cores_checked);
  }
}

TEST_F(TraceDecisionTest, DomPipelineOpensItsPhaseSpans) {
  if (!trace::kCompiledIn) GTEST_SKIP() << "trace hooks compiled out";
  ViewSet views = V("v(X, Y) :- p(X, Y).");
  BindingPatterns patterns;
  patterns.Set(interner_.Intern("v"), *Adornment::Parse("bf"));
  GoalQuery q1 = GQ("a(Y) :- p(c, Y).", "a");
  GoalQuery q2 = GQ("b(Y) :- p(c, Y).", "b");
  TraceContext ctx;
  Result<BindingRelativeResult> r = [&]() {
    TraceScope scope(&ctx);
    return RelativelyContainedWithBindingPatterns(q1, q2, views, patterns,
                                                 &interner_);
  }();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  std::set<std::string> names;
  for (const trace::SpanNode& s : ctx.spans()) names.insert(s.name);
  // Called below DecideRelativeContainment, so no regime_* span here —
  // the dom pipeline's own phases are the markers.
  EXPECT_TRUE(names.count("dom_containment"));
  EXPECT_TRUE(names.count("plan_executable"));
}

// --- budget counters ---------------------------------------------------------

TEST_F(TraceDecisionTest, BoundHitsCounterTracksBudgetTrips) {
  if (!trace::kCompiledIn) GTEST_SKIP() << "trace hooks compiled out";
  ViewSet views = V("v(X, Y) :- p(X, Y).");
  GoalQuery q1 = GQ("a(X) :- p(X, Y), p(Y, Z).", "a");
  GoalQuery q2 = GQ("b(X) :- p(X, Y).", "b");
  DecideOptions options;
  options.max_steps = 1;
  TraceContext ctx;
  Result<Decision> r = [&]() {
    TraceScope scope(&ctx);
    return DecideRelativeContainment(q1, q2, views, {}, &interner_, options);
  }();
  // The one-step budget trips, the trip mints exactly the uniform
  // kBoundReached status, and every mint bumps the counter.
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kBoundReached)
      << r.status().ToString();
  EXPECT_GE(ctx.TotalCount(Counter::kBoundHits), 1u);

  // An unbounded rerun of the same question mints no bound status.
  TraceContext clean;
  Result<Decision> ok = [&]() {
    TraceScope scope(&clean);
    return DecideRelativeContainment(q1, q2, views, {}, &interner_, {});
  }();
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(clean.TotalCount(Counter::kBoundHits), 0u);
}

}  // namespace
}  // namespace relcont

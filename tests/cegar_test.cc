// Property tests for the CEGAR counterexample search (relcont/cegar.h).
//
// The four pinned properties:
//
//   1. Blocking clauses are SOUND: a blocked proposal can never become a
//      counterexample, so enabling blocking never changes a verdict —
//      checked on a handcrafted family where clauses provably fire and on
//      a seeded random sweep.
//   2. The iteration count is monotone non-increasing as clauses
//      accumulate: cover checks with blocking on never exceed (and on the
//      handcrafted family strictly undercut) the count with blocking off.
//   3. A budget trip mid-refinement answers kBoundReached at the
//      `cegar_search` bound site — never a verdict — and the counts of the
//      partial work are kept: the thread's counter delta, its span
//      attribution and the process-wide totals it folds into agree.
//   4. An 8-thread strategy=cegar batch returns the serial verdicts (the
//      run also joins the TSan matrix in CI, pinning the engine's shared
//      state — the process-wide counters — as race-free).

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/budget.h"
#include "datalog/parser.h"
#include "relcont/cegar.h"
#include "relcont/pi2p_reduction.h"
#include "relcont/relative_containment.h"
#include "relcont/workload.h"
#include "service/protocol.h"
#include "service/service.h"
#include "trace/trace.h"

namespace relcont {
namespace {

GoalQuery MakeQuery(const std::string& text, Interner* interner) {
  Result<Program> program = ParseProgram(text, interner);
  EXPECT_TRUE(program.ok()) << program.status().ToString() << "\n" << text;
  GoalQuery q;
  q.program = *program;
  q.goal = program->rules[0].head.predicate;
  return q;
}

ViewSet MakeViews(const std::vector<std::string>& rules, Interner* interner) {
  std::vector<ViewDefinition> defs;
  for (const std::string& text : rules) {
    Result<Rule> rule = ParseRule(text, interner);
    EXPECT_TRUE(rule.ok()) << rule.status().ToString() << "\n" << text;
    defs.push_back(ViewDefinition{*rule, /*complete=*/false});
  }
  Result<ViewSet> views = ViewSet::Make(std::move(defs), interner);
  EXPECT_TRUE(views.ok()) << views.status().ToString();
  return views.ok() ? *views : ViewSet();
}

/// What one CEGAR run counted: the calling thread's counter delta.
struct RunCounts {
  uint64_t proposals = 0;
  uint64_t iterations = 0;
  uint64_t blocking_clauses = 0;
};

Result<RelativeContainmentResult> RunCegar(const GoalQuery& q1,
                                           const GoalQuery& q2,
                                           const ViewSet& views,
                                           Interner* interner, bool blocking,
                                           RunCounts* counts) {
  RelativeContainmentOptions options;
  options.strategy = ContainmentStrategy::kCegar;
  options.cegar.enable_blocking = blocking;
  const trace::CounterArray mark = trace::ThreadCounts();
  Result<RelativeContainmentResult> out =
      CegarRelativelyContained(q1, q2, views, interner, options);
  auto since = [&](trace::Counter c) {
    const size_t i = static_cast<size_t>(c);
    return trace::ThreadCounts()[i] - mark[i];
  };
  counts->proposals = since(trace::Counter::kCegarProposals);
  counts->iterations = since(trace::Counter::kCegarIterations);
  counts->blocking_clauses = since(trace::Counter::kCegarBlockingClauses);
  return out;
}

/// The process-wide total of `c`.
uint64_t ProcessCount(trace::Counter c) {
  return trace::ProcessCounts()[static_cast<size_t>(c)].load();
}

// ---------------------------------------------------------------------------
// 1 + 2. Blocking soundness and iteration monotonicity.
// ---------------------------------------------------------------------------

// A family where blocking provably fires: Q1 joins two variable-disjoint
// mediated atoms, Q2 inspects only the second. A cover's support closure
// therefore pins only the q-position's choice, the learned clause leaves
// the p-position free, and every later revisit of the q-position under a
// different p-choice is pruned: k cover checks instead of k^2.
TEST(CegarPropertyTest, BlockingPrunesProvablyOnDisjointJoinFamily) {
  for (int k = 2; k <= 5; ++k) {
    Interner interner;
    std::vector<std::string> view_rules;
    for (int i = 0; i < k; ++i) {
      std::string idx = std::to_string(i);
      view_rules.push_back("v" + idx + "(A, B) :- p(A, B).");
      view_rules.push_back("w" + idx + "(A, B) :- q(A, B).");
    }
    ViewSet views = MakeViews(view_rules, &interner);
    GoalQuery q1 = MakeQuery("q1() :- p(X, Y), q(Z, W).", &interner);
    GoalQuery q2 = MakeQuery("q2() :- q(A, B).", &interner);

    RunCounts off;
    Result<RelativeContainmentResult> r_off =
        RunCegar(q1, q2, views, &interner, /*blocking=*/false, &off);
    RunCounts on;
    Result<RelativeContainmentResult> r_on =
        RunCegar(q1, q2, views, &interner, /*blocking=*/true, &on);
    ASSERT_TRUE(r_off.ok()) << r_off.status().ToString();
    ASSERT_TRUE(r_on.ok()) << r_on.status().ToString();

    // Soundness: every proposal is covered either way.
    EXPECT_TRUE(r_off->contained) << "k=" << k;
    EXPECT_TRUE(r_on->contained) << "k=" << k;
    EXPECT_EQ(off.blocking_clauses, 0u);
    EXPECT_GT(on.blocking_clauses, 0u) << "k=" << k;

    // Exact counts: the proposal space is k x k; blocking collapses the
    // cover checks to the first p-row (k checks), pruning the rest.
    uint64_t kk = static_cast<uint64_t>(k);
    EXPECT_EQ(off.proposals, kk * kk) << "k=" << k;
    EXPECT_EQ(off.iterations, kk * kk) << "k=" << k;
    EXPECT_EQ(on.iterations, kk) << "k=" << k;
    EXPECT_LT(on.proposals, off.proposals) << "k=" << k;
  }
}

TEST(CegarPropertyTest, BlockingNeverChangesVerdictsOnRandomSweep) {
  int decided = 0;
  uint64_t clauses_total = 0;
  for (uint64_t seed = 1; seed <= 150; ++seed) {
    Interner interner;
    RandomQueryOptions options;
    options.num_atoms = 3;
    options.num_variables = 4;
    options.num_predicates = 2;
    options.arity = 2;
    options.constant_probability = 0.15;
    options.head_arity = 1;
    options.seed = seed;
    Rule r1 = RandomConjunctiveQuery(options, "q1", &interner);
    RandomQueryOptions options2 = options;
    options2.seed = seed * 2654435761ULL + 97;
    Rule r2 = RandomConjunctiveQuery(options2, "q2", &interner);
    GoalQuery q1{Program({r1}), r1.head.predicate};
    GoalQuery q2{Program({r2}), r2.head.predicate};
    ViewSet views = RandomViews(options, /*num_views=*/5, &interner);
    if (views.empty() || r1.head.arity() != r2.head.arity()) continue;

    RunCounts off;
    Result<RelativeContainmentResult> r_off =
        RunCegar(q1, q2, views, &interner, /*blocking=*/false, &off);
    RunCounts on;
    Result<RelativeContainmentResult> r_on =
        RunCegar(q1, q2, views, &interner, /*blocking=*/true, &on);
    ASSERT_EQ(r_on.ok(), r_off.ok()) << "seed=" << seed;
    if (!r_off.ok()) continue;
    ++decided;

    // Soundness both ways: a blocked proposal never becomes a
    // counterexample (on-NO => off-NO), and blocking never invents one
    // (on-YES => off-YES).
    EXPECT_EQ(r_on->contained, r_off->contained) << "seed=" << seed;
    EXPECT_EQ(r_on->witness.has_value(), r_off->witness.has_value())
        << "seed=" << seed;

    // Monotonicity: clauses only ever remove cover checks.
    EXPECT_LE(on.iterations, off.iterations) << "seed=" << seed;
    EXPECT_LE(on.proposals, off.proposals) << "seed=" << seed;
    EXPECT_EQ(off.blocking_clauses, 0u) << "seed=" << seed;
    clauses_total += on.blocking_clauses;
  }
  // The sweep must exercise real decisions and real clause learning.
  EXPECT_GT(decided, 100);
  EXPECT_GT(clauses_total, 0u);
}

// ---------------------------------------------------------------------------
// 3. Budget trip mid-refinement.
// ---------------------------------------------------------------------------

TEST(CegarPropertyTest, BudgetTripAnswersBoundReachedAtCegarSearchSite) {
  Interner interner;
  QbfFormula f = RandomQbf(/*num_exists=*/3, /*num_forall=*/8,
                           /*num_clauses=*/4, /*seed=*/7);
  Result<Pi2pInstance> inst = BuildPi2pReduction(f, &interner);
  ASSERT_TRUE(inst.ok()) << inst.status().ToString();

  // Reference run under an UNLIMITED budget: completes normally while
  // counting every charged step, which calibrates the bounded run below.
  RunCounts full;
  int64_t total_steps = 0;
  {
    WorkBudget counter;
    BudgetScope scope(&counter);
    Result<RelativeContainmentResult> reference =
        RunCegar(inst->q2, inst->q1, inst->views, &interner,
                 /*blocking=*/true, &full);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    total_steps = counter.steps_used();
  }
  ASSERT_GT(full.iterations, 2u);
  ASSERT_GT(total_steps, 8);

  // Bounded run at half the measured work: deep enough to clear plan
  // building and check some proposals, far too shallow for the whole loop.
  WorkBudget budget;
  budget.set_max_steps(total_steps / 2);
  trace::TraceContext ctx;
  trace::TraceScope trace_scope(&ctx);
  BudgetScope budget_scope(&budget);
  const trace::CounterArray mark = trace::ThreadCounts();
  const uint64_t g_iterations = ProcessCount(trace::Counter::kCegarIterations);
  const uint64_t g_clauses =
      ProcessCount(trace::Counter::kCegarBlockingClauses);
  const uint64_t g_proposals = ProcessCount(trace::Counter::kCegarProposals);

  RunCounts partial;
  Result<RelativeContainmentResult> bounded =
      RunCegar(inst->q2, inst->q1, inst->views, &interner, /*blocking=*/true,
               &partial);
  trace::FoldIntoProcess(mark);

  // Never a wrong verdict: the trip surfaces as a status, at the engine's
  // own bound site.
  ASSERT_FALSE(bounded.ok());
  EXPECT_EQ(bounded.status().code(), StatusCode::kBoundReached)
      << bounded.status().ToString();
  EXPECT_EQ(BoundSiteFromStatus(bounded.status()), "cegar_search")
      << bounded.status().ToString();

  // The loop tripped mid-refinement: some proposals were checked, not all.
  EXPECT_GT(partial.iterations, 0u);
  EXPECT_LT(partial.iterations, full.iterations);

  // The counts of the partial work survive the error path: the thread's
  // delta, its attribution to the open spans (when hooks are compiled in)
  // and the process-wide totals the delta folds into agree.
  if (trace::kCompiledIn) {
    EXPECT_EQ(ctx.TotalCount(trace::Counter::kCegarIterations),
              partial.iterations);
    EXPECT_EQ(ctx.TotalCount(trace::Counter::kCegarBlockingClauses),
              partial.blocking_clauses);
    EXPECT_EQ(ctx.TotalCount(trace::Counter::kCegarProposals),
              partial.proposals);
  }
  EXPECT_EQ(ProcessCount(trace::Counter::kCegarIterations) - g_iterations,
            partial.iterations);
  EXPECT_EQ(ProcessCount(trace::Counter::kCegarBlockingClauses) - g_clauses,
            partial.blocking_clauses);
  EXPECT_EQ(ProcessCount(trace::Counter::kCegarProposals) - g_proposals,
            partial.proposals);
}

// ---------------------------------------------------------------------------
// 4. Concurrency: strategy=cegar under the batch fan-out (TSan matrix).
// ---------------------------------------------------------------------------

std::string RenderViews(const ViewSet& views, const Interner& interner) {
  std::string text;
  for (const ViewDefinition& v : views.views()) {
    text += v.rule.ToString(interner);
    text += '\n';
  }
  return text;
}

std::string RenderQuery(const GoalQuery& q, const Interner& interner) {
  std::string text;
  for (const Rule& r : q.program.rules) {
    text += r.ToString(interner);
    text += '\n';
  }
  return text;
}

TEST(CegarPropertyTest, EightThreadCegarBatchMatchesSerialVerdicts) {
  // A pool of QBF instances, both containment directions, all forced
  // through the CEGAR engine; 8 batch workers hammer the global counters
  // concurrently.
  std::vector<DecisionRequest> requests;
  std::string views_text;
  {
    Interner gen;
    for (uint64_t seed = 1; seed <= 8; ++seed) {
      Interner local;
      QbfFormula f = RandomQbf(/*num_exists=*/3, /*num_forall=*/4,
                               /*num_clauses=*/3, seed);
      Result<Pi2pInstance> inst = BuildPi2pReduction(f, &local);
      ASSERT_TRUE(inst.ok()) << inst.status().ToString();
      DecisionRequest request;
      request.q1_text = RenderQuery(inst->q2, local);
      request.q2_text = RenderQuery(inst->q1, local);
      request.catalog = "qbf" + std::to_string(seed);
      request.options.strategy = ContainmentStrategy::kCegar;
      request.bypass_cache = true;
      requests.push_back(request);
      DecisionRequest reversed = request;
      std::swap(reversed.q1_text, reversed.q2_text);
      requests.push_back(reversed);
      if (seed == 1) views_text = RenderViews(inst->views, local);
    }
  }
  // All instances of the family share the same catalog shape per seed;
  // register each seed's catalog.
  ContainmentService parallel_service;
  ContainmentService serial_service;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Interner local;
    QbfFormula f = RandomQbf(3, 4, 3, seed);
    Result<Pi2pInstance> inst = BuildPi2pReduction(f, &local);
    ASSERT_TRUE(inst.ok());
    std::string views = RenderViews(inst->views, local);
    std::string name = "qbf" + std::to_string(seed);
    ASSERT_TRUE(parallel_service.catalogs().Register(name, views).ok());
    ASSERT_TRUE(serial_service.catalogs().Register(name, views).ok());
  }

  std::vector<DecisionResponse> serial =
      serial_service.ExecuteBatch(requests, 1);
  std::vector<DecisionResponse> concurrent =
      parallel_service.ExecuteBatch(requests, 8);
  ASSERT_EQ(serial.size(), requests.size());
  ASSERT_EQ(concurrent.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    ASSERT_TRUE(serial[i].status.ok()) << serial[i].status.ToString();
    ASSERT_TRUE(concurrent[i].status.ok()) << concurrent[i].status.ToString();
    EXPECT_EQ(concurrent[i].contained, serial[i].contained) << "at " << i;
  }
  // The engine ran: the process-wide proposal counter moved.
  EXPECT_GT(ProcessCount(trace::Counter::kCegarProposals), 0u);
}

// ---------------------------------------------------------------------------
// Protocol surface for the strategy option.
// ---------------------------------------------------------------------------

TEST(CegarPropertyTest, StrategyProtocolOptionParsesAndRejects) {
  ContainmentService service;
  ServerSession session(&service);
  session.HandleLine("CATALOG c VIEW v(X, Y) :- p(X, Y).");
  session.HandleLine("DEFINE a a(X) :- p(X, X).");
  session.HandleLine("DEFINE b b(X) :- p(X, Y).");
  for (const char* strategy : {"cegar", "scan", "auto"}) {
    std::string out = session.HandleLine(
        std::string("CONTAINED? a b @c strategy=") + strategy);
    EXPECT_EQ(out.rfind("YES section3", 0), 0u) << strategy << ": " << out;
  }
  std::string no =
      session.HandleLine("CONTAINED? b a @c strategy=cegar budget=100000");
  EXPECT_EQ(no.rfind("NO section3", 0), 0u) << no;
  std::string err = session.HandleLine("CONTAINED? a b @c strategy=bogus");
  EXPECT_EQ(err.rfind("ERR InvalidArgument", 0), 0u) << err;
  EXPECT_NE(err.find("cegar, scan, or auto"), std::string::npos) << err;
}

TEST(CegarPropertyTest, StrategyNamesRoundTrip) {
  for (ContainmentStrategy s :
       {ContainmentStrategy::kScan, ContainmentStrategy::kCegar,
        ContainmentStrategy::kAuto}) {
    std::optional<ContainmentStrategy> parsed =
        ParseContainmentStrategy(ContainmentStrategyName(s));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, s);
  }
  EXPECT_FALSE(ParseContainmentStrategy("SCAN").has_value());
  EXPECT_FALSE(ParseContainmentStrategy("").has_value());
}

}  // namespace
}  // namespace relcont

// The plan service end to end: the plan-cache counters the METRICS
// surfaces render, the Planner facade over both plan regimes (Section 2.3
// UCQ plans and Section 4 executable dom plans), the PLAN?/REWRITE?/CATALOG?
// protocol verbs, budget behavior (a bound is an error, never a wrong
// plan), and the path-view workload generator. The cache itself is tested
// in sharded_lru_test.cc.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "datalog/parser.h"
#include "planner/planner.h"
#include "relcont/pi2p_reduction.h"
#include "relcont/workload.h"
#include "service/protocol.h"
#include "service/service.h"
#include "trace/trace.h"

namespace relcont {
namespace {

// --- planner facade ---------------------------------------------------------

class PlannerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(service_.catalogs()
                    .Register("plain",
                              "v(X, Y) :- e(X, Y).\n"
                              "w(X, Y) :- e(X, Z), e(Z, Y).\n")
                    .ok());
    ASSERT_TRUE(service_.catalogs()
                    .Register("bound",
                              "v(X, Y) :- e(X, Y).\n",
                              {{"v", "bf"}})
                    .ok());
  }

  PlanResponse Plan(const std::string& query, const std::string& catalog,
                    bool bypass_cache = false) {
    PlanRequest request;
    request.query_text = query;
    request.catalog = catalog;
    request.bypass_cache = bypass_cache;
    return service_.planner().Plan(request, &ctx_);
  }

  RewriteResponse Rewrite(const std::string& q1, const std::string& q2,
                          const std::string& catalog) {
    RewriteRequest request;
    request.q1_text = q1;
    request.q2_text = q2;
    request.catalog = catalog;
    return service_.planner().Rewrite(request, &ctx_);
  }

  ContainmentService service_;
  WorkerContext ctx_;
};

TEST_F(PlannerTest, UcqPlanForPatternFreeCatalog) {
  PlanResponse r = Plan("q(X, Z) :- e(X, Y), e(Y, Z).", "plain");
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_FALSE(r.recursive);
  EXPECT_TRUE(r.dom_predicate.empty());
  EXPECT_GE(r.num_rules, 1);
  EXPECT_EQ(r.catalog_version, 1);
  // The plan is executable text over the sources: it re-parses, every
  // rule's head is the goal, and every body predicate is a source.
  Interner check;
  Result<Program> parsed = ParseProgram(r.plan_text, &check);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(static_cast<int>(parsed->rules.size()), r.num_rules);
  for (const Rule& rule : parsed->rules) {
    EXPECT_EQ(check.NameOf(rule.head.predicate), "q");
    for (const Atom& atom : rule.body) {
      std::string name = check.NameOf(atom.predicate);
      EXPECT_TRUE(name == "v" || name == "w") << name;
    }
  }
}

TEST_F(PlannerTest, RecursiveDomPlanForPatternCatalog) {
  PlanResponse r = Plan("q(X, Y) :- e(X, Y).", "bound");
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_TRUE(r.recursive);
  EXPECT_FALSE(r.dom_predicate.empty());
  EXPECT_GE(r.num_rules, 2);
  // The recursive plan (Skolem terms included) round-trips through the
  // parser — the differential sweep and the cache both rely on this.
  Interner check;
  Result<Program> parsed = ParseProgram(r.plan_text, &check);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(static_cast<int>(parsed->rules.size()), r.num_rules);
  EXPECT_NE(r.plan_text.find(r.dom_predicate), std::string::npos);
}

TEST_F(PlannerTest, PlanCacheHitAndCatalogInvalidation) {
  PlanResponse cold = Plan("q(X, Z) :- e(X, Y), e(Y, Z).", "plain");
  ASSERT_TRUE(cold.status.ok());
  EXPECT_FALSE(cold.cache_hit);
  // Renamed variables still hit: the key uses canonical fingerprints.
  PlanResponse warm = Plan("q(A, C) :- e(A, B), e(B, C).", "plain");
  ASSERT_TRUE(warm.status.ok());
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(warm.plan_text, cold.plan_text);

  // Other catalogs' entries survive a re-registration...
  PlanResponse other = Plan("q(X, Y) :- e(X, Y).", "bound");
  ASSERT_TRUE(other.status.ok());
  ASSERT_TRUE(
      service_.catalogs().Register("plain", "v(X, Y) :- e(Y, X).\n").ok());
  CacheStats stats = service_.planner().cache().Stats();
  EXPECT_GE(stats.invalidated, 1u);

  // ...so "bound" still hits while "plain" re-plans against v2.
  PlanResponse after = Plan("q(X, Z) :- e(X, Y), e(Y, Z).", "plain");
  ASSERT_TRUE(after.status.ok());
  EXPECT_FALSE(after.cache_hit);
  EXPECT_EQ(after.catalog_version, 2);
  PlanResponse bound_again = Plan("q(X, Y) :- e(X, Y).", "bound");
  ASSERT_TRUE(bound_again.status.ok());
  EXPECT_TRUE(bound_again.cache_hit);
}

TEST_F(PlannerTest, RewriteDecidesPlanLevelContainment) {
  // Identical queries: P1^exp ⊑ Q2 holds.
  RewriteResponse yes = Rewrite("q1(X, Z) :- e(X, Y), e(Y, Z).",
                                "q2(X, Z) :- e(X, Y), e(Y, Z).", "plain");
  ASSERT_TRUE(yes.status.ok()) << yes.status.ToString();
  EXPECT_TRUE(yes.contained);
  EXPECT_TRUE(yes.witness_text.empty());

  // A length-1 chain is not contained in a length-2 chain.
  RewriteResponse no = Rewrite("q1(X, Y) :- e(X, Y).",
                               "q2(X, Z) :- e(X, Y), e(Y, Z).", "plain");
  ASSERT_TRUE(no.status.ok()) << no.status.ToString();
  EXPECT_FALSE(no.contained);
  EXPECT_FALSE(no.witness_text.empty());

  // Same question under binding patterns (Theorem 4.1 route).
  RewriteResponse bound = Rewrite("q1(X, Y) :- e(X, Y).",
                                  "q2(X, Y) :- e(X, Y).", "bound");
  ASSERT_TRUE(bound.status.ok()) << bound.status.ToString();
  EXPECT_TRUE(bound.contained);
}

TEST_F(PlannerTest, RewriteResultsAreCachedAndInvalidated) {
  RewriteResponse cold = Rewrite("q1(X, Y) :- e(X, Y).",
                                 "q2(X, Z) :- e(X, Y), e(Y, Z).", "plain");
  ASSERT_TRUE(cold.status.ok());
  EXPECT_FALSE(cold.cache_hit);
  RewriteResponse warm = Rewrite("q1(A, B) :- e(A, B).",
                                 "q2(A, C) :- e(A, B), e(B, C).", "plain");
  ASSERT_TRUE(warm.status.ok());
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(warm.contained, cold.contained);
  EXPECT_EQ(warm.witness_text, cold.witness_text);
}

TEST_F(PlannerTest, ErrorsForUnknownCatalogAndBadQuery) {
  PlanResponse unknown = Plan("q(X) :- e(X, Y).", "nope");
  EXPECT_FALSE(unknown.status.ok());
  PlanResponse bad = Plan("q(X :- ", "plain");
  EXPECT_FALSE(bad.status.ok());
  EXPECT_EQ(service_.planner().cache().Stats().entries, 0u);
}

TEST_F(PlannerTest, ExpiredDeadlineAnswersBoundReachedNeverAWrongPlan) {
  // A catalog big enough that planning cannot finish within 1 ms of work
  // — the request must come back kBoundReached, not with a partial plan.
  PathViewOptions options;
  options.num_views = 400;
  options.num_relations = 6;
  options.max_length = 4;
  options.bound_probability = 0.0;  // UCQ route: unfolding charges budget
  options.seed = 7;
  PathViewWorkload workload = MakePathViewWorkload(options);
  ASSERT_TRUE(service_.catalogs()
                  .Register("paths", workload.views_text, workload.patterns)
                  .ok());
  PlanRequest request;
  request.query_text = workload.query_text;
  request.catalog = "paths";
  request.options.max_steps = 1;  // deterministic analogue of timeout_ms=1
  PlanResponse r = service_.planner().Plan(request, &ctx_);
  ASSERT_FALSE(r.status.ok());
  EXPECT_EQ(r.status.code(), StatusCode::kBoundReached)
      << r.status.ToString();
  EXPECT_TRUE(r.plan_text.empty());
  // Bounded results are never cached: a retry with budget must re-plan.
  EXPECT_EQ(service_.planner().cache().Stats().entries, 0u);
}

TEST_F(PlannerTest, PlannerMetricsFlowIntoTheSharedSnapshot) {
  ASSERT_TRUE(Plan("q(X, Z) :- e(X, Y), e(Y, Z).", "plain").status.ok());
  ASSERT_TRUE(Rewrite("q1(X, Y) :- e(X, Y).", "q2(X, Y) :- e(X, Y).",
                      "plain")
                  .status.ok());
  ASSERT_FALSE(Plan("q(X) :- e(X, Y).", "nope").status.ok());
  EXPECT_EQ(service_.metrics().plan_requests(), 2u);
  EXPECT_EQ(service_.metrics().rewrite_requests(), 1u);
  EXPECT_EQ(service_.metrics().plan_errors(), 1u);
  std::string dump = obs::RenderPrometheusText(service_.metrics().Snapshot(
      service_.cache().Stats(), service_.planner().cache().Stats()));
  EXPECT_NE(dump.find("\nrelcont_plan_requests_total 2\n"),
            std::string::npos)
      << dump;
  EXPECT_NE(dump.find("\nrelcont_rewrite_requests_total 1\n"),
            std::string::npos);
  EXPECT_NE(dump.find("\nrelcont_plan_errors_total 1\n"), std::string::npos);
  EXPECT_NE(dump.find("\nrelcont_plan_cache_misses_total "),
            std::string::npos);
}

// --- concurrent invalidation stress (8 threads, TSan-clean) -----------------

// One regime per request feeds every record: a failed traced PLAN? files
// its retained wide event under kUnknown, like its window sample.
TEST(PlannerFrameTest, FailedTracedPlanIsFiledUnderUnknownRegime) {
  ContainmentService service(ServiceConfig{.trace_requests = true});
  WorkerContext ctx;
  PlanRequest request;
  request.query_text = "q(X) :- e(X, Y).";
  request.catalog = "nope";
  PlanResponse r = service.planner().Plan(request, &ctx);
  ASSERT_FALSE(r.status.ok());
  auto retained = service.metrics().flight().FindRetained(r.request_id);
  ASSERT_TRUE(retained.has_value());
  EXPECT_EQ(std::string(retained->event.regime),
            RegimeName(Regime::kUnknown));
  EXPECT_EQ(retained->event.traced, 1);
}

// Every verb runs inside the request frame: a REWRITE? in flight counts in
// the inflight gauge, and its wide event reports the parallel width of its
// per-disjunct scan.
TEST(PlannerFrameTest, RewriteCountsAsInflightAndReportsItsWorkers) {
  // A Theorem 3.3 reduction of a random QBF: 2^8 plan disjuncts, tens of
  // milliseconds of scanning, cut off by the deadline if it runs longer.
  Interner gen;
  QbfFormula f = RandomQbf(/*num_exists=*/2, /*num_forall=*/8,
                           /*num_clauses=*/16, /*seed=*/11);
  Result<Pi2pInstance> inst = BuildPi2pReduction(f, &gen);
  ASSERT_TRUE(inst.ok()) << inst.status().ToString();
  std::string views_text;
  for (const ViewDefinition& v : inst->views.views()) {
    views_text += v.rule.ToString(gen);
    views_text += '\n';
  }
  auto render = [&gen](const GoalQuery& q) {
    std::string text;
    for (const Rule& r : q.program.rules) {
      text += r.ToString(gen);
      text += '\n';
    }
    return text;
  };
  ContainmentService service;
  ASSERT_TRUE(service.catalogs().Register("qbf", views_text).ok());
  RewriteRequest request;
  request.q1_text = render(inst->q2);
  request.q2_text = render(inst->q1);
  request.catalog = "qbf";
  request.options.timeout_ms = 200;
  request.options.parallel_workers = 2;

  std::atomic<bool> done{false};
  std::atomic<bool> seen_inflight{false};
  std::thread observer([&]() {
    while (!done.load()) {
      if (service.metrics().inflight_requests() == 1) {
        seen_inflight.store(true);
        return;
      }
    }
  });
  WorkerContext ctx;
  RewriteResponse r = service.planner().Rewrite(request, &ctx);
  done.store(true);
  observer.join();
  EXPECT_TRUE(seen_inflight.load());
  EXPECT_EQ(service.metrics().inflight_requests(), 0);

  std::string requestz =
      obs::RenderRequestzListJson(service.metrics().flight());
  size_t event = requestz.find("{\"request_id\":" +
                               std::to_string(r.request_id) + ",");
  ASSERT_NE(event, std::string::npos) << requestz;
  size_t workers = requestz.find("\"workers\":", event);
  ASSERT_NE(workers, std::string::npos) << requestz;
  EXPECT_EQ(requestz.substr(workers, 12), "\"workers\":2,") << requestz;
}

TEST(PlannerStressTest, ConcurrentPlansAndReRegistrations) {
  ContainmentService service;
  ASSERT_TRUE(
      service.catalogs().Register("hot", "v(X, Y) :- e(X, Y).\n").ok());
  ASSERT_TRUE(
      service.catalogs().Register("cold", "v(X, Y) :- e(X, Y).\n").ok());
  constexpr int kThreads = 8;
  constexpr int kRequestsPerThread = 40;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&service, &failures, t]() {
      WorkerContext ctx;
      for (int i = 0; i < kRequestsPerThread; ++i) {
        if (t == 0 && i % 8 == 3) {
          // One thread churns the hot catalog while the rest plan.
          if (!service.catalogs()
                   .Register("hot", "v(X, Y) :- e(X, Y).\n")
                   .ok()) {
            failures.fetch_add(1);
          }
          continue;
        }
        PlanRequest request;
        request.query_text = "q(X, Z) :- e(X, Y), e(Y, Z).";
        request.catalog = (i % 2 == 0) ? "hot" : "cold";
        PlanResponse r = service.planner().Plan(request, &ctx);
        if (!r.status.ok()) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  // Deterministic tail (the racing phase above is about TSan coverage):
  // plan twice so the second is a guaranteed hit, then re-register and
  // check the entry was invalidated.
  WorkerContext ctx;
  PlanRequest request;
  request.query_text = "q(X, Z) :- e(X, Y), e(Y, Z).";
  request.catalog = "hot";
  ASSERT_TRUE(service.planner().Plan(request, &ctx).status.ok());
  EXPECT_TRUE(service.planner().Plan(request, &ctx).cache_hit);
  ASSERT_TRUE(
      service.catalogs().Register("hot", "v(X, Y) :- e(X, Y).\n").ok());
  CacheStats stats = service.planner().cache().Stats();
  EXPECT_GE(stats.invalidated, 1u);
  EXPECT_GE(stats.hits, 1u);
}

// --- path-view workload generator -------------------------------------------

TEST(PathViewWorkloadTest, DeterministicPerSeedAndRegistrable) {
  PathViewOptions options;
  options.num_views = 50;
  options.seed = 42;
  PathViewWorkload a = MakePathViewWorkload(options);
  PathViewWorkload b = MakePathViewWorkload(options);
  EXPECT_EQ(a.views_text, b.views_text);
  EXPECT_EQ(a.patterns, b.patterns);
  EXPECT_EQ(a.query_text, b.query_text);
  options.seed = 43;
  PathViewWorkload c = MakePathViewWorkload(options);
  EXPECT_NE(a.views_text, c.views_text);

  CatalogRegistry registry;
  Result<int64_t> version =
      registry.Register("paths", a.views_text, a.patterns);
  ASSERT_TRUE(version.ok()) << version.status().ToString();
  EXPECT_EQ(registry.Find("paths")->num_views, 50);
}

TEST(PathViewWorkloadTest, BoundProbabilityControlsAdornments) {
  PathViewOptions options;
  options.num_views = 100;
  options.seed = 1;
  options.bound_probability = 0.0;
  EXPECT_TRUE(MakePathViewWorkload(options).patterns.empty());
  options.bound_probability = 1.0;
  PathViewWorkload all = MakePathViewWorkload(options);
  EXPECT_EQ(static_cast<int>(all.patterns.size()), options.num_views);
  for (const auto& [source, adornment] : all.patterns) {
    EXPECT_EQ(adornment, "bf");
  }
}

TEST(PathViewWorkloadTest, SkewConcentratesOnPopularRelations) {
  PathViewOptions options;
  options.num_views = 300;
  options.num_relations = 8;
  options.skew = 2.0;
  options.seed = 5;
  PathViewWorkload w = MakePathViewWorkload(options);
  // e0 is the heaviest relation under skew 2.0; it must appear far more
  // often than the rarest one.
  auto count = [&w](const std::string& needle) {
    size_t n = 0;
    for (size_t pos = w.views_text.find(needle); pos != std::string::npos;
         pos = w.views_text.find(needle, pos + 1)) {
      ++n;
    }
    return n;
  };
  EXPECT_GT(count("e0("), 4 * count("e7("));
}

// --- protocol verbs ---------------------------------------------------------

class PlanVerbTest : public ::testing::Test {
 protected:
  PlanVerbTest() : session_(&service_) {
    EXPECT_EQ(session_.HandleLine("CATALOG c VIEW v(X, Y) :- e(X, Y). "
                                  "VIEW w(X, Y) :- e(X, Z), e(Z, Y)."),
              "OK catalog c v1 views=2 patterns=0\n");
    EXPECT_EQ(session_.HandleLine(
                  "DEFINE q q(X, Z) :- e(X, Y), e(Y, Z)."),
              "OK query q rules=1\n");
    EXPECT_EQ(session_.HandleLine("DEFINE q1 q1(X, Y) :- e(X, Y)."),
              "OK query q1 rules=1\n");
  }

  ContainmentService service_;
  ServerSession session_;
};

TEST_F(PlanVerbTest, PlanRoundTripAndCacheHit) {
  std::string cold = session_.HandleLine("PLAN? q @c");
  ASSERT_EQ(cold.rfind("OK plan catalog=c v1 kind=ucq rules=", 0), 0u)
      << cold;
  EXPECT_NE(cold.find(" MISS "), std::string::npos);
  // The lines after the header are the plan itself.
  std::string body = cold.substr(cold.find('\n') + 1);
  Interner check;
  ASSERT_TRUE(ParseProgram(body, &check).ok()) << body;

  std::string warm = session_.HandleLine("PLAN? q @c");
  EXPECT_NE(warm.find(" HIT "), std::string::npos) << warm;
  EXPECT_EQ(warm.substr(warm.find('\n') + 1), body);
}

TEST_F(PlanVerbTest, PlanAgainstPatternCatalogReportsRecursiveKind) {
  EXPECT_EQ(session_.HandleLine("CATALOG b VIEW v(X, Y) :- e(X, Y). "
                                "PATTERN v bf"),
            "OK catalog b v1 views=1 patterns=1\n");
  std::string out = session_.HandleLine("PLAN? q1 @b");
  ASSERT_EQ(out.rfind("OK plan catalog=b v1 kind=recursive", 0), 0u) << out;
  EXPECT_NE(out.find(" dom="), std::string::npos);
}

TEST_F(PlanVerbTest, RewriteVerbAnswersLikeContained) {
  EXPECT_EQ(session_.HandleLine("DEFINE q2 q2(X, Z) :- e(X, Y), e(Y, Z)."),
            "OK query q2 rules=1\n");
  std::string yes = session_.HandleLine("REWRITE? q q2 @c");
  EXPECT_EQ(yes.rfind("YES plan MISS ", 0), 0u) << yes;
  std::string no = session_.HandleLine("REWRITE? q1 q2 @c");
  EXPECT_EQ(no.rfind("NO plan MISS ", 0), 0u) << no;
  EXPECT_NE(no.find(" witness: "), std::string::npos);
  std::string warm = session_.HandleLine("REWRITE? q1 q2 @c");
  EXPECT_EQ(warm.rfind("NO plan HIT ", 0), 0u) << warm;
}

TEST_F(PlanVerbTest, StrictValidationAndBatchRejection) {
  EXPECT_EQ(session_.HandleLine("PLAN? q"),
            "ERR InvalidArgument: expected PLAN? <q> @<catalog> "
            "[timeout_ms=N] [budget=N] [workers=N]\n");
  EXPECT_EQ(session_.HandleLine("PLAN? missing @c"),
            "ERR InvalidArgument: unknown query 'missing' — DEFINE it "
            "first\n");
  std::string bad_option = session_.HandleLine("PLAN? q @c timeout_ms=zero");
  EXPECT_EQ(bad_option.rfind("ERR InvalidArgument: option 'timeout_ms'", 0),
            0u)
      << bad_option;
  EXPECT_EQ(session_.HandleLine("REWRITE? q @c"),
            "ERR InvalidArgument: expected REWRITE? <q1> <q2> @<catalog> "
            "[timeout_ms=N] [budget=N] [workers=N]\n");
  EXPECT_EQ(session_.HandleLine("BATCH BEGIN"), "OK batch begin\n");
  EXPECT_EQ(session_.HandleLine("PLAN? q @c"),
            "ERR InvalidArgument: PLAN? is not allowed inside a batch\n");
  EXPECT_EQ(session_.HandleLine("REWRITE? q q1 @c"),
            "ERR InvalidArgument: REWRITE? is not allowed inside a batch\n");
  EXPECT_EQ(session_.HandleLine("BATCH END"), "OK batch 0\n");
}

TEST_F(PlanVerbTest, PlanHonorsBudgetWithBoundReached) {
  std::string out = session_.HandleLine("PLAN? q @c budget=1");
  // Service-originated errors carry the flight-recorder request id.
  EXPECT_EQ(out.rfind("ERR [id=", 0), 0u) << out;
  EXPECT_NE(out.find("BoundReached"), std::string::npos) << out;
}

TEST_F(PlanVerbTest, ExplainPlanEmitsTrace) {
  std::string out = session_.HandleLine("EXPLAIN PLAN? q @c");
  ASSERT_EQ(out.rfind("OK plan catalog=c", 0), 0u) << out;
  // EXPLAIN bypasses the cache, so even after a warm PLAN? it reports MISS.
  EXPECT_NE(out.find(" MISS "), std::string::npos);
  if (trace::kCompiledIn) {
    EXPECT_NE(out.find("planner_plan"), std::string::npos) << out;
  }
  std::string rewrite = session_.HandleLine("EXPLAIN REWRITE? q q1 @c");
  EXPECT_EQ(rewrite.rfind("NO plan MISS ", 0), 0u) << rewrite;
  if (trace::kCompiledIn) {
    EXPECT_NE(rewrite.find("planner_rewrite"), std::string::npos);
  }
  // JSON: the reply line(s), then one Chrome trace_event object (or the
  // compiled-out notice) on the last line.
  auto last_line = [](const std::string& reply) {
    size_t begin = reply.rfind('\n', reply.size() - 2);
    return reply.substr(begin == std::string::npos ? 0 : begin + 1);
  };
  for (auto [line, first] :
       {std::pair{"EXPLAIN JSON PLAN? q @c", "OK plan catalog=c"},
        std::pair{"EXPLAIN JSON REWRITE? q q1 @c", "NO plan MISS "}}) {
    std::string reply = session_.HandleLine(line);
    ASSERT_EQ(reply.rfind(first, 0), 0u) << reply;
    EXPECT_LT(reply.find(" MISS "), reply.find('\n')) << reply;
    std::string trace_line = last_line(reply);
    if (trace::kCompiledIn) {
      Result<json::Value> parsed = json::Parse(trace_line);
      ASSERT_TRUE(parsed.ok()) << trace_line;
      EXPECT_NE(parsed->Find("traceEvents"), nullptr) << trace_line;
    } else {
      EXPECT_NE(trace_line.find("compiled out"), std::string::npos) << reply;
    }
  }
  // Inside a batch EXPLAIN is refused whichever verb it names.
  EXPECT_EQ(session_.HandleLine("BATCH BEGIN"), "OK batch begin\n");
  EXPECT_EQ(session_.HandleLine("EXPLAIN PLAN? q @c"),
            "ERR InvalidArgument: EXPLAIN is not allowed inside a batch\n");
  EXPECT_EQ(session_.HandleLine("BATCH END"), "OK batch 0\n");
}

TEST_F(PlanVerbTest, CatalogQueryReturnsJson) {
  EXPECT_EQ(session_.HandleLine("CATALOG b VIEW v(X, Y) :- e(X, Y). "
                                "PATTERN v bf"),
            "OK catalog b v1 views=1 patterns=1\n");
  std::string out = session_.HandleLine("CATALOG?");
  Result<json::Value> parsed = json::Parse(out);
  ASSERT_TRUE(parsed.ok()) << out;
  const json::Value* catalogs = parsed->Find("catalogs");
  ASSERT_NE(catalogs, nullptr);
  ASSERT_EQ(catalogs->array.size(), 2u);  // sorted: b, c
  const json::Value& b = catalogs->array[0];
  EXPECT_EQ(b.Find("name")->string_value, "b");
  EXPECT_EQ(b.Find("version")->number_value, 1);
  EXPECT_EQ(b.Find("views")->number_value, 1);
  ASSERT_EQ(b.Find("patterns")->array.size(), 1u);
  EXPECT_EQ(b.Find("patterns")->array[0].Find("source")->string_value, "v");
  EXPECT_EQ(b.Find("patterns")->array[0].Find("adornment")->string_value,
            "bf");
  const json::Value& c = catalogs->array[1];
  EXPECT_EQ(c.Find("name")->string_value, "c");
  EXPECT_EQ(c.Find("views")->number_value, 2);
  EXPECT_TRUE(c.Find("patterns")->array.empty());

  std::string single = session_.HandleLine("CATALOG? b");
  Result<json::Value> one = json::Parse(single);
  ASSERT_TRUE(one.ok()) << single;
  EXPECT_EQ(one->Find("catalogs")->array.size(), 1u);
  EXPECT_EQ(session_.HandleLine("CATALOG? nope"),
            "ERR InvalidArgument: unknown catalog 'nope'\n");
}

TEST_F(PlanVerbTest, UnknownVerbGetsDistinctErrorAndCounter) {
  EXPECT_EQ(service_.metrics().unknown_verbs(), 0u);
  EXPECT_EQ(session_.HandleLine("CONTAIND? q q1 @c"),
            "ERR unknown-verb 'CONTAIND?' — try HELP\n");
  EXPECT_EQ(service_.metrics().unknown_verbs(), 1u);
  // Malformed requests to KNOWN verbs keep the InvalidArgument shape.
  std::string known = session_.HandleLine("CONTAINED? q");
  EXPECT_EQ(known.rfind("ERR InvalidArgument:", 0), 0u) << known;
  EXPECT_EQ(service_.metrics().unknown_verbs(), 1u);
  std::string dump = session_.HandleLine("METRICS");
  EXPECT_NE(dump.find("\nrelcont_unknown_verb_total 1\n"), std::string::npos)
      << dump;
}

TEST_F(PlanVerbTest, MetricsVerbCarriesPlanCacheCounters) {
  ASSERT_EQ(session_.HandleLine("PLAN? q @c").rfind("OK plan", 0), 0u);
  session_.HandleLine("PLAN? q @c");
  std::string dump = session_.HandleLine("METRICS");
  for (const char* line :
       {"\nrelcont_plan_requests_total 2\n", "\nrelcont_plan_cache_hits_total 1\n",
        "\nrelcont_plan_cache_misses_total 1\n",
        "\nrelcont_plan_cache_entries 1\n"}) {
    EXPECT_NE(dump.find(line), std::string::npos) << line << dump;
  }
}

}  // namespace
}  // namespace relcont

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "containment/canonical.h"
#include "containment/homomorphism.h"
#include "datalog/parser.h"
#include "relcont/pi2p_reduction.h"
#include "relcont/relative_containment.h"
#include "relcont/workload.h"
#include "rewriting/inverse_rules.h"
#include "rewriting/views.h"
#include "service/protocol.h"
#include "service/service.h"
#include "trace/trace.h"

namespace relcont {
namespace {

// --- canonical fingerprints -------------------------------------------------

TEST(CanonicalFingerprintTest, InvariantUnderVariableRenaming) {
  Interner a;
  Interner b;
  Rule r1 = *ParseRule("q(X) :- p(X, Y), p(Y, X).", &a);
  Rule r2 = *ParseRule("q(U) :- p(U, W), p(W, U).", &b);
  // Computed against different interners: spellings decide, not SymbolIds.
  EXPECT_EQ(CanonicalRuleFingerprint(r1, a), CanonicalRuleFingerprint(r2, b));
}

TEST(CanonicalFingerprintTest, DistinguishesDifferentJoinShapes) {
  Interner interner;
  Rule r1 = *ParseRule("q(X) :- p(X, Y), p(Y, X).", &interner);
  Rule r2 = *ParseRule("q(X) :- p(X, Y), p(X, Y).", &interner);
  EXPECT_NE(CanonicalRuleFingerprint(r1, interner),
            CanonicalRuleFingerprint(r2, interner));
}

TEST(CanonicalFingerprintTest, ConstantsAndComparisonsAppear) {
  Interner interner;
  Rule r1 = *ParseRule("q(X) :- p(X, 3), X < 7.", &interner);
  Rule r2 = *ParseRule("q(X) :- p(X, 4), X < 7.", &interner);
  Rule r3 = *ParseRule("q(X) :- p(X, 3), X < 8.", &interner);
  EXPECT_NE(CanonicalRuleFingerprint(r1, interner),
            CanonicalRuleFingerprint(r2, interner));
  EXPECT_NE(CanonicalRuleFingerprint(r1, interner),
            CanonicalRuleFingerprint(r3, interner));
}

TEST(CanonicalFingerprintTest, ProgramFingerprintIgnoresRuleOrder) {
  Interner interner;
  Program p1 = *ParseProgram(
      "q(X) :- r(X, Y).\n"
      "q(X) :- s(X).\n",
      &interner);
  Program p2 = *ParseProgram(
      "q(X) :- s(X).\n"
      "q(X) :- r(X, Y).\n",
      &interner);
  SymbolId goal = interner.Lookup("q");
  EXPECT_EQ(CanonicalProgramFingerprint(p1, goal, interner),
            CanonicalProgramFingerprint(p2, goal, interner));
}

// --- catalog registry -------------------------------------------------------

TEST(CatalogRegistryTest, RegisterFindAndVersionBump) {
  CatalogRegistry registry;
  Result<int64_t> v1 = registry.Register("cars", "v(X) :- p(X, Y).\n");
  ASSERT_TRUE(v1.ok()) << v1.status().ToString();
  EXPECT_EQ(*v1, 1);
  auto spec = registry.Find("cars");
  ASSERT_NE(spec, nullptr);
  EXPECT_EQ(spec->version, 1);

  Result<int64_t> v2 =
      registry.Register("cars", "v(X) :- p(X, Y), s(Y).\n");
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(*v2, 2);
  // The old snapshot a reader holds is untouched by the re-registration.
  EXPECT_EQ(spec->version, 1);
  EXPECT_EQ(registry.Find("cars")->version, 2);
  EXPECT_EQ(registry.Find("nope"), nullptr);
}

TEST(CatalogRegistryTest, RejectsInvalidSpecs) {
  CatalogRegistry registry;
  EXPECT_FALSE(registry.Register("bad", "v(X) :- p(X Y).\n").ok());
  // Pattern naming a source that is not declared.
  EXPECT_FALSE(
      registry.Register("bad", "v(X) :- p(X, Y).\n", {{"w", "b"}}).ok());
  // Adornment arity mismatch.
  EXPECT_FALSE(
      registry.Register("bad", "v(X) :- p(X, Y).\n", {{"v", "bf"}}).ok());
  EXPECT_EQ(registry.size(), 0u);
}

TEST(CatalogRegistryTest, MaterializesPatterns) {
  CatalogRegistry registry;
  ASSERT_TRUE(registry
                  .Register("c", "v(X, Y) :- p(X, Y).\n", {{"v", "bf"}})
                  .ok());
  Interner interner;
  Result<MaterializedCatalog> m =
      MaterializeCatalog(*registry.Find("c"), &interner);
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  EXPECT_EQ(m->views.size(), 1u);
  const std::vector<Adornment>* adornments =
      m->patterns.Find(interner.Lookup("v"));
  ASSERT_NE(adornments, nullptr);
  EXPECT_EQ((*adornments)[0].ToString(), "bf");
}

// --- service ----------------------------------------------------------------

class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(service_.catalogs()
                    .Register("main",
                              "v1(X, Y) :- p(X, Y).\n"
                              "v2(X) :- s(X).\n")
                    .ok());
  }

  DecisionRequest Req(const std::string& q1, const std::string& q2) {
    DecisionRequest request;
    request.q1_text = q1;
    request.q2_text = q2;
    request.catalog = "main";
    return request;
  }

  ContainmentService service_;
  WorkerContext ctx_;
};

TEST_F(ServiceTest, DecidesAndCaches) {
  DecisionRequest request =
      Req("a(X) :- p(X, X).", "b(X) :- p(X, Y).");
  DecisionResponse first = service_.Decide(request, &ctx_);
  ASSERT_TRUE(first.status.ok()) << first.status.ToString();
  EXPECT_TRUE(first.contained);
  EXPECT_EQ(first.regime, Regime::kSection3);
  EXPECT_FALSE(first.cache_hit);

  DecisionResponse second = service_.Decide(request, &ctx_);
  ASSERT_TRUE(second.status.ok());
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.contained, first.contained);
  EXPECT_EQ(second.regime, first.regime);
  EXPECT_EQ(second.witness_text, first.witness_text);
}

TEST_F(ServiceTest, RenamedQueryHitsSameEntry) {
  DecisionResponse first = service_.Decide(
      Req("a(X) :- p(X, Y), s(Y).", "b(X) :- p(X, Y)."), &ctx_);
  ASSERT_TRUE(first.status.ok());
  // Same queries up to variable renaming: must be a cache hit.
  DecisionResponse second = service_.Decide(
      Req("a(U) :- p(U, V), s(V).", "b(W) :- p(W, Z)."), &ctx_);
  ASSERT_TRUE(second.status.ok());
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.contained, first.contained);
}

TEST_F(ServiceTest, NonContainmentCachesWitnessText) {
  DecisionRequest request =
      Req("a(X) :- p(X, Y).", "b(X) :- p(X, Y), s(X).");
  DecisionResponse first = service_.Decide(request, &ctx_);
  ASSERT_TRUE(first.status.ok());
  EXPECT_FALSE(first.contained);
  EXPECT_FALSE(first.witness_text.empty());
  DecisionResponse second = service_.Decide(request, &ctx_);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.witness_text, first.witness_text);
}

TEST_F(ServiceTest, ErrorsSurfaceAndCount) {
  DecisionRequest request = Req("a(X) :- p(X, Y).", "b(X) :- p(X, Y).");
  request.catalog = "nope";
  DecisionResponse response = service_.Decide(request, &ctx_);
  EXPECT_FALSE(response.status.ok());
  EXPECT_EQ(response.status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(service_.metrics().errors(), 1u);

  DecisionRequest bad = Req("a(X :- p(X, Y).", "b(X) :- p(X, Y).");
  EXPECT_FALSE(service_.Decide(bad, &ctx_).status.ok());
  EXPECT_EQ(service_.metrics().errors(), 2u);
}

TEST_F(ServiceTest, CatalogVersionBumpInvalidatesCachedDecisions) {
  DecisionRequest request =
      Req("a(X) :- p(X, Y).", "b(X) :- p(X, Y), s(X).");
  DecisionResponse before = service_.Decide(request, &ctx_);
  ASSERT_TRUE(before.status.ok());
  EXPECT_FALSE(before.contained);
  // With s gone from the catalog, Q2's plan collapses and the answer
  // changes; the version bump must route around the cached decision.
  ASSERT_TRUE(
      service_.catalogs().Register("main", "v1(X, Y) :- p(X, Y).\n").ok());
  DecisionResponse after = service_.Decide(request, &ctx_);
  ASSERT_TRUE(after.status.ok());
  EXPECT_FALSE(after.cache_hit);
}

TEST_F(ServiceTest, WorkerArenaResetKeepsServing) {
  ServiceConfig config;
  config.max_worker_symbols = 64;  // force frequent arena resets
  ContainmentService service(config);
  ASSERT_TRUE(service.catalogs().Register("main", "v(X, Y) :- p(X, Y).\n").ok());
  WorkerContext ctx;
  for (int i = 0; i < 32; ++i) {
    DecisionRequest request;
    request.q1_text = "a(X) :- p(X, X).";
    request.q2_text = "b(X) :- p(X, Y).";
    request.catalog = "main";
    DecisionResponse response = service.Decide(request, &ctx);
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    EXPECT_TRUE(response.contained);
  }
  EXPECT_EQ(service.metrics().requests(), 32u);
}

TEST_F(ServiceTest, CacheKeyIsRenamingInvariantAndOptionSensitive) {
  DecisionRequest base = Req("a(X) :- p(X, Y).", "b(X) :- p(X, Y).");
  DecisionRequest renamed = Req("a(U) :- p(U, V).", "b(V) :- p(V, W).");
  DecisionRequest different = Req("a(X) :- p(X, X).", "b(X) :- p(X, Y).");
  DecisionRequest rebounded = base;
  rebounded.options.max_rule_applications = 99;

  Result<std::string> k_base = service_.CacheKey(base, &ctx_);
  Result<std::string> k_renamed = service_.CacheKey(renamed, &ctx_);
  Result<std::string> k_different = service_.CacheKey(different, &ctx_);
  Result<std::string> k_rebounded = service_.CacheKey(rebounded, &ctx_);
  ASSERT_TRUE(k_base.ok() && k_renamed.ok() && k_different.ok() &&
              k_rebounded.ok());
  EXPECT_EQ(*k_base, *k_renamed);
  EXPECT_NE(*k_base, *k_different);
  EXPECT_NE(*k_base, *k_rebounded);
}

// --- randomized cache determinism -------------------------------------------

// Renders a reproducible randomized workload as request texts: the service
// parses everything into its own worker arenas, so the generator's interner
// never crosses the API boundary.
std::vector<DecisionRequest> RandomWorkload(int distinct_pairs,
                                            std::string* views_text) {
  Interner gen;
  RandomQueryOptions options;
  options.num_atoms = 3;
  options.num_variables = 4;
  options.num_predicates = 2;
  options.arity = 2;
  options.head_arity = 1;
  ViewSet views = RandomViews(options, 4, &gen);
  views_text->clear();
  for (const ViewDefinition& v : views.views()) {
    *views_text += v.rule.ToString(gen);
    *views_text += '\n';
  }
  std::vector<DecisionRequest> requests;
  for (int i = 0; i < distinct_pairs; ++i) {
    options.seed = 1000 + i;
    Rule qa = RandomConjunctiveQuery(options, "qa", &gen);
    options.seed = 2000 + i;
    Rule qb = RandomConjunctiveQuery(options, "qb", &gen);
    DecisionRequest request;
    request.q1_text = qa.ToString(gen);
    request.q2_text = qb.ToString(gen);
    request.catalog = "rand";
    requests.push_back(std::move(request));
  }
  return requests;
}

TEST(ServiceRandomizedTest, CachedDecisionEqualsFreshDecision) {
  std::string views_text;
  std::vector<DecisionRequest> requests = RandomWorkload(20, &views_text);
  ContainmentService service;
  ASSERT_TRUE(service.catalogs().Register("rand", views_text).ok());
  WorkerContext ctx;
  for (const DecisionRequest& request : requests) {
    DecisionResponse fresh = service.Decide(request, &ctx);
    ASSERT_TRUE(fresh.status.ok()) << fresh.status.ToString();
    EXPECT_FALSE(fresh.cache_hit);
    DecisionResponse cached = service.Decide(request, &ctx);
    ASSERT_TRUE(cached.status.ok());
    EXPECT_TRUE(cached.cache_hit);
    EXPECT_EQ(cached.contained, fresh.contained);
    EXPECT_EQ(cached.regime, fresh.regime);
    EXPECT_EQ(cached.witness_text, fresh.witness_text);
    // And a forced re-derivation agrees with both.
    DecisionRequest bypass = request;
    bypass.bypass_cache = true;
    DecisionResponse rederived = service.Decide(bypass, &ctx);
    ASSERT_TRUE(rederived.status.ok());
    EXPECT_EQ(rederived.contained, fresh.contained);
    EXPECT_EQ(rederived.regime, fresh.regime);
  }
}

// --- multithreaded stress ----------------------------------------------------

TEST(ServiceStressTest, EightThreadBatchMatchesSerialBaseline) {
  std::string views_text;
  std::vector<DecisionRequest> distinct = RandomWorkload(12, &views_text);
  // ≥1k mixed requests cycling through the distinct pairs.
  std::vector<DecisionRequest> requests;
  for (int i = 0; i < 1200; ++i) {
    requests.push_back(distinct[i % distinct.size()]);
  }

  ContainmentService serial;
  ASSERT_TRUE(serial.catalogs().Register("rand", views_text).ok());
  std::vector<DecisionResponse> baseline = serial.ExecuteBatch(requests, 1);

  ContainmentService parallel;
  ASSERT_TRUE(parallel.catalogs().Register("rand", views_text).ok());
  std::vector<DecisionResponse> concurrent =
      parallel.ExecuteBatch(requests, 8);

  ASSERT_EQ(baseline.size(), requests.size());
  ASSERT_EQ(concurrent.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    ASSERT_TRUE(baseline[i].status.ok()) << baseline[i].status.ToString();
    ASSERT_TRUE(concurrent[i].status.ok())
        << concurrent[i].status.ToString();
    EXPECT_EQ(concurrent[i].contained, baseline[i].contained) << "at " << i;
    EXPECT_EQ(concurrent[i].regime, baseline[i].regime) << "at " << i;
  }
  EXPECT_EQ(parallel.metrics().requests(), requests.size());
  CacheStats stats = parallel.cache().Stats();
  EXPECT_EQ(stats.hits + stats.misses, requests.size());
  // Each distinct pair is decided at most a handful of times (a pair can
  // race to a miss on several workers at once, but never once per repeat).
  EXPECT_GE(stats.hits, requests.size() - 8 * distinct.size());
}

TEST(ServiceStressTest, ParallelWorkersUnderConcurrentLoadMatchSerial) {
  // Batch threads × per-request disjunct workers: every decision fans out
  // its own helpers while eight batch workers run at once. Verdicts must
  // still equal the fully serial baseline, and the helper pool must be
  // quiescent once ExecuteBatch returns.
  std::string views_text;
  std::vector<DecisionRequest> distinct = RandomWorkload(12, &views_text);
  std::vector<DecisionRequest> requests;
  for (int i = 0; i < 240; ++i) {
    DecisionRequest r = distinct[i % distinct.size()];
    r.options.parallel_workers = 4;
    r.bypass_cache = true;  // force a real decision on every repeat
    requests.push_back(std::move(r));
  }

  ContainmentService serial;
  ASSERT_TRUE(serial.catalogs().Register("rand", views_text).ok());
  std::vector<DecisionRequest> serial_requests = requests;
  for (DecisionRequest& r : serial_requests) r.options.parallel_workers = 1;
  std::vector<DecisionResponse> baseline =
      serial.ExecuteBatch(serial_requests, 1);

  ContainmentService parallel;
  ASSERT_TRUE(parallel.catalogs().Register("rand", views_text).ok());
  std::vector<DecisionResponse> concurrent =
      parallel.ExecuteBatch(requests, 8);

  ASSERT_EQ(baseline.size(), requests.size());
  ASSERT_EQ(concurrent.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    ASSERT_TRUE(baseline[i].status.ok()) << baseline[i].status.ToString();
    ASSERT_TRUE(concurrent[i].status.ok())
        << concurrent[i].status.ToString();
    EXPECT_EQ(concurrent[i].contained, baseline[i].contained) << "at " << i;
    EXPECT_EQ(concurrent[i].regime, baseline[i].regime) << "at " << i;
  }
  // Quiescence: every helper the decisions spawned has been joined; the
  // spawn/complete counters can only balance if no task is still running.
  EXPECT_EQ(parallel.metrics().tasks_spawned(),
            parallel.metrics().tasks_completed());
  EXPECT_EQ(parallel.metrics().deadline_exceeded(), 0u);
}

// --- deadlines and step budgets ---------------------------------------------

// Renders a Π₂ᵖ-hard pair through the text API: a random ∀∃-3CNF reduction
// whose disjunct scan (2^8 disjuncts, tens of milliseconds serially) takes
// well over any millisecond-scale deadline.
void HardRequestWorkload(std::string* views_text, DecisionRequest* request) {
  Interner gen;
  QbfFormula f = RandomQbf(/*num_exists=*/2, /*num_forall=*/8,
                           /*num_clauses=*/16, /*seed=*/11);
  Result<Pi2pInstance> inst = BuildPi2pReduction(f, &gen);
  ASSERT_TRUE(inst.ok()) << inst.status().ToString();
  views_text->clear();
  for (const ViewDefinition& v : inst->views.views()) {
    *views_text += v.rule.ToString(gen);
    *views_text += '\n';
  }
  // The containment question of the reduction is q2 ⊑ q1; the goal rule
  // must come first (ParseGoalQuery takes the first head as the goal).
  auto render = [&gen](const GoalQuery& q) {
    std::string text;
    for (const Rule& r : q.program.rules) {
      text += r.ToString(gen);
      text += '\n';
    }
    return text;
  };
  request->q1_text = render(inst->q2);
  request->q2_text = render(inst->q1);
  request->catalog = "qbf";
}

TEST(ServiceDeadlineTest, MidFlightDeadlineAnswersBoundReachedAndQuiesces) {
  std::string views_text;
  DecisionRequest request;
  HardRequestWorkload(&views_text, &request);
  request.options.timeout_ms = 1;
  request.options.parallel_workers = 4;

  ContainmentService service;
  ASSERT_TRUE(service.catalogs().Register("qbf", views_text).ok());
  WorkerContext ctx;
  DecisionResponse response = service.Decide(request, &ctx);
  ASSERT_FALSE(response.status.ok());
  EXPECT_EQ(response.status.code(), StatusCode::kBoundReached)
      << response.status.ToString();
  EXPECT_NE(response.status.message().find("deadline exceeded"),
            std::string::npos)
      << response.status.ToString();
  // The expired request still quiesced its helpers before returning and
  // was counted by the deadline metric.
  EXPECT_GE(service.metrics().deadline_exceeded(), 1u);
  EXPECT_EQ(service.metrics().tasks_spawned(),
            service.metrics().tasks_completed());
  // A bound is an error, not a verdict: nothing may enter the cache.
  CacheStats stats = service.cache().Stats();
  EXPECT_EQ(stats.entries, 0u);
}

TEST(ServiceDeadlineTest, StepBudgetTripsDeterministically) {
  std::string views_text;
  DecisionRequest request;
  HardRequestWorkload(&views_text, &request);
  request.options.max_steps = 8;

  ContainmentService service;
  ASSERT_TRUE(service.catalogs().Register("qbf", views_text).ok());
  WorkerContext ctx;
  for (int round = 0; round < 3; ++round) {
    DecisionResponse response = service.Decide(request, &ctx);
    ASSERT_FALSE(response.status.ok());
    EXPECT_EQ(response.status.code(), StatusCode::kBoundReached)
        << response.status.ToString();
    EXPECT_NE(response.status.message().find("step budget exhausted"),
              std::string::npos)
        << response.status.ToString();
  }
  // Step bounds are not deadline trips.
  EXPECT_EQ(service.metrics().deadline_exceeded(), 0u);
  // Lifting the budget on the same worker context decides normally: the
  // trip left no sticky state behind.
  request.options.max_steps = 0;
  DecisionResponse full = service.Decide(request, &ctx);
  EXPECT_TRUE(full.status.ok()) << full.status.ToString();
}

TEST(ServiceDeadlineTest, ConfigDefaultTimeoutAppliesWhenRequestSetsNone) {
  std::string views_text;
  DecisionRequest request;
  HardRequestWorkload(&views_text, &request);

  ServiceConfig config;
  config.default_timeout_ms = 1;
  ContainmentService service(config);
  ASSERT_TRUE(service.catalogs().Register("qbf", views_text).ok());
  WorkerContext ctx;
  DecisionResponse response = service.Decide(request, &ctx);
  ASSERT_FALSE(response.status.ok());
  EXPECT_EQ(response.status.code(), StatusCode::kBoundReached)
      << response.status.ToString();
  EXPECT_GE(service.metrics().deadline_exceeded(), 1u);
}

// --- protocol ---------------------------------------------------------------

TEST(ProtocolTest, EndToEndSession) {
  ContainmentService service;
  ServerSession session(&service);
  EXPECT_EQ(session.HandleLine(""), "");
  EXPECT_EQ(session.HandleLine("% comment"), "");
  EXPECT_EQ(session.HandleLine("CATALOG c VIEW v(X, Y) :- p(X, Y)."),
            "OK catalog c v1 views=1 patterns=0\n");
  EXPECT_EQ(session.HandleLine("DEFINE a a(X) :- p(X, X)."),
            "OK query a rules=1\n");
  EXPECT_EQ(session.HandleLine("DEFINE b b(X) :- p(X, Y)."),
            "OK query b rules=1\n");
  std::string yes = session.HandleLine("CONTAINED? a b @c");
  EXPECT_EQ(yes.rfind("YES section3 MISS", 0), 0u) << yes;
  std::string hit = session.HandleLine("CONTAINED? a b @c");
  EXPECT_EQ(hit.rfind("YES section3 HIT", 0), 0u) << hit;
  std::string no = session.HandleLine("CONTAINED? b a @c");
  EXPECT_EQ(no.rfind("NO section3", 0), 0u) << no;
  EXPECT_NE(no.find("witness:"), std::string::npos) << no;

  std::string metrics = session.HandleLine("METRICS");
  EXPECT_NE(metrics.find("\nrelcont_requests_total 3\n"), std::string::npos)
      << metrics;
  EXPECT_NE(metrics.find("\nrelcont_request_cache_hits_total 1\n"),
            std::string::npos)
      << metrics;
}

// A 300 KB DEFINE of nested function terms used to overflow the parser's
// stack; past kMaxTermDepth levels it is a parse error instead.
TEST(ProtocolTest, DeeplyNestedTermAnswersErr) {
  ContainmentService service;
  ServerSession session(&service);
  constexpr int kLevels = 100000;
  std::string line = "DEFINE qa qa(X) :- p(";
  for (int i = 0; i < kLevels; ++i) line += "f(";
  line += "X";
  line += std::string(kLevels, ')');
  line += ", X).";
  std::string reply = session.HandleLine(line);
  EXPECT_EQ(reply.rfind("ERR", 0), 0u) << reply.substr(0, 200);
  EXPECT_NE(reply.find("nest deeper than"), std::string::npos)
      << reply.substr(0, 200);

  // At the limit the term still parses.
  line = "DEFINE qb qb(X) :- p(";
  for (int i = 0; i < kMaxTermDepth; ++i) line += "f(";
  line += "X" + std::string(kMaxTermDepth, ')') + ", X).";
  EXPECT_EQ(session.HandleLine(line), "OK query qb rules=1\n");
}

TEST(ProtocolTest, BatchFanOut) {
  ContainmentService service;
  ServerSession session(&service, /*batch_threads=*/4);
  session.HandleLine("CATALOG c VIEW v(X, Y) :- p(X, Y).");
  session.HandleLine("DEFINE a a(X) :- p(X, X).");
  session.HandleLine("DEFINE b b(X) :- p(X, Y).");
  EXPECT_EQ(session.HandleLine("BATCH BEGIN"), "OK batch begin\n");
  EXPECT_EQ(session.HandleLine("CONTAINED? a b @c"), "QUEUED 0\n");
  EXPECT_EQ(session.HandleLine("CONTAINED? b a @c"), "QUEUED 1\n");
  std::string out = session.HandleLine("BATCH END");
  EXPECT_EQ(out.rfind("OK batch 2\n", 0), 0u) << out;
  EXPECT_NE(out.find("[0] YES section3"), std::string::npos) << out;
  EXPECT_NE(out.find("[1] NO section3"), std::string::npos) << out;
}

TEST(ProtocolTest, ErrorsAreLineDelimited) {
  ContainmentService service;
  ServerSession session(&service);
  EXPECT_EQ(session.HandleLine("FROBNICATE").rfind("ERR", 0), 0u);
  EXPECT_EQ(session.HandleLine("CATALOG").rfind("ERR", 0), 0u);
  EXPECT_EQ(session.HandleLine("CATALOG c PATTERN v bf").rfind("ERR", 0),
            0u);
  session.HandleLine("CATALOG c VIEW v(X, Y) :- p(X, Y).");
  EXPECT_EQ(session.HandleLine("CONTAINED? a b @c").rfind("ERR", 0), 0u);
  session.HandleLine("DEFINE a a(X) :- p(X, X).");
  session.HandleLine("DEFINE b b(X) :- p(X, Y).");
  std::string unknown_catalog = session.HandleLine("CONTAINED? a b @zzz");
  EXPECT_EQ(unknown_catalog.rfind("ERR", 0), 0u);
  EXPECT_NE(unknown_catalog.find("unknown catalog"), std::string::npos);
}

TEST(ProtocolTest, BudgetOptionsParseAndSurfaceBounds) {
  ContainmentService service;
  ServerSession session(&service);
  session.HandleLine("CATALOG c VIEW v(X, Y) :- p(X, Y).");
  session.HandleLine("DEFINE a a(X) :- p(X, X).");
  session.HandleLine("DEFINE b b(X) :- p(X, Y).");

  // Generous bounds leave the verdict untouched.
  std::string yes = session.HandleLine(
      "CONTAINED? a b @c timeout_ms=60000 budget=1000000 workers=4");
  EXPECT_EQ(yes.rfind("YES section3", 0), 0u) << yes;
  // So does a timeout past the clock's range, on an uncached pair: it
  // means no deadline, not one that has already passed.
  session.HandleLine("DEFINE d d(X) :- p(X, X), p(X, Z).");
  std::string huge = session.HandleLine(
      "CONTAINED? d b @c timeout_ms=9223372036854775807");
  EXPECT_EQ(huge.rfind("YES section3 MISS", 0), 0u) << huge;

  // A one-step budget on an uncached pair turns the decision into the
  // uniform bound error, and the bound never enters the cache.
  std::string bound = session.HandleLine("CONTAINED? b a @c budget=1");
  EXPECT_EQ(bound.rfind("ERR", 0), 0u) << bound;
  EXPECT_NE(bound.find("bound reached"), std::string::npos) << bound;
  std::string retry = session.HandleLine("CONTAINED? b a @c");
  EXPECT_EQ(retry.rfind("NO section3 MISS", 0), 0u) << retry;

  // Malformed options are usage errors, not silent defaults.
  for (const char* bad :
       {"CONTAINED? a b @c timeout_ms=abc", "CONTAINED? a b @c budget=0",
        "CONTAINED? a b @c workers=-2", "CONTAINED? a b @c frobs=3",
        // Wider than the int field: rejected, not wrapped to 2 or to the
        // configured default.
        "CONTAINED? a b @c workers=4294967298",
        "CONTAINED? a b @c workers=2147483648"}) {
    std::string err = session.HandleLine(bad);
    EXPECT_EQ(err.rfind("ERR", 0), 0u) << bad << " -> " << err;
  }
  EXPECT_EQ(session.HandleLine("CONTAINED? a b @c workers=4294967298"),
            "ERR InvalidArgument: option 'workers' needs a positive "
            "integer, got '4294967298'\n");

  // EXPLAIN accepts the same trailing options.
  std::string explain =
      session.HandleLine("EXPLAIN a b @c timeout_ms=60000 workers=2");
  EXPECT_EQ(explain.rfind("ERR", 0), std::string::npos) << explain;
}

TEST(ProtocolTest, HelpListsExactlyTheDispatchedVerbs) {
  ContainmentService service;
  ServerSession session(&service);
  std::string help = session.HandleLine("HELP");
  // The verb lines; the indented ones after them are the options footnote.
  std::vector<std::string> lines;
  for (size_t begin = 0; begin < help.size();) {
    size_t end = help.find('\n', begin);
    ASSERT_NE(end, std::string::npos) << help;
    if (help[begin] != ' ') lines.push_back(help.substr(begin, end - begin));
    begin = end + 1;
  }
  auto has_line = [&lines](const std::string& line) {
    return std::find(lines.begin(), lines.end(), line) != lines.end();
  };
  // Every table verb is in HELP, spelled as its usage error quotes it.
  for (const ServerSession::Verb& verb : ServerSession::Verbs()) {
    std::string usage(verb.name);
    if (!verb.args.empty()) usage += " " + std::string(verb.args);
    EXPECT_TRUE(has_line(usage)) << usage << "\n" << help;
  }
  // Every verb HELP lists is dispatched; a bare one answers either its
  // reply or a usage error quoting a HELP line, never unknown-verb.
  for (const std::string& line : lines) {
    std::string verb = line.substr(0, line.find(' '));
    std::string reply = session.HandleLine(verb);
    EXPECT_EQ(reply.rfind("ERR unknown-verb", 0), std::string::npos)
        << verb << " -> " << reply;
    const std::string expected = "ERR InvalidArgument: expected ";
    if (reply.rfind(expected, 0) == 0) {
      EXPECT_TRUE(has_line(reply.substr(expected.size(),
                                        reply.size() - expected.size() - 1)))
          << reply;
    }
  }
  EXPECT_EQ(service.metrics().unknown_verbs(), 0u);
}

// --- metrics ----------------------------------------------------------------

TEST(MetricsTest, HistogramBucketsAndDump) {
  ServiceMetrics metrics;
  metrics.RecordRequest(Regime::kSection3, 0, false, false);
  metrics.RecordRequest(Regime::kSection3, 1, false, true);
  metrics.RecordRequest(Regime::kTheorem51, 100, false, false);
  metrics.RecordRequest(Regime::kUnknown, 5, true, false);
  EXPECT_EQ(metrics.requests(), 4u);
  EXPECT_EQ(metrics.errors(), 1u);
  EXPECT_EQ(metrics.cache_hits(), 1u);
  EXPECT_EQ(metrics.RegimeCount(Regime::kSection3), 2u);
  EXPECT_EQ(metrics.RegimeCount(Regime::kTheorem51), 1u);
  EXPECT_EQ(metrics.latency().TotalCount(), 4u);
  // 100µs lands in [64, 128).
  auto [lower, upper] = LatencyHistogram::BucketBounds(7);
  EXPECT_EQ(lower, 64u);
  EXPECT_EQ(upper, 128u);
  EXPECT_EQ(metrics.latency().BucketCount(7), 1u);

  CacheStats cache;
  cache.hits = 1;
  cache.misses = 3;
  std::string dump = obs::RenderPrometheusText(metrics.Snapshot(cache));
  EXPECT_NE(dump.find("\nrelcont_requests_total 4\n"), std::string::npos);
  EXPECT_NE(dump.find("relcont_decisions_total{regime=\"section3\"} 2"),
            std::string::npos);
  EXPECT_NE(dump.find("\nrelcont_cache_misses_total 3\n"),
            std::string::npos);
  // Prometheus histogram conventions: cumulative le buckets ending at
  // +Inf, plus the _sum/_count pair. Latencies: 0, 1, 5, 100.
  const std::string bucket = "relcont_request_latency_microseconds_bucket";
  EXPECT_NE(dump.find(bucket + "{le=\"0\"} 1\n"), std::string::npos);
  EXPECT_NE(dump.find(bucket + "{le=\"1\"} 2\n"), std::string::npos);
  EXPECT_NE(dump.find(bucket + "{le=\"7\"} 3\n"), std::string::npos);
  EXPECT_NE(dump.find(bucket + "{le=\"127\"} 4\n"), std::string::npos);
  EXPECT_NE(dump.find(bucket + "{le=\"+Inf\"} 4\n"), std::string::npos);
  EXPECT_NE(dump.find("relcont_request_latency_microseconds_sum 106\n"),
            std::string::npos);
  EXPECT_NE(dump.find("relcont_request_latency_microseconds_count 4\n"),
            std::string::npos);
  EXPECT_EQ(metrics.latency().SumMicros(), 106u);
}

TEST(MetricsTest, BudgetCountersAppearInDumpAndSnapshot) {
  ServiceMetrics metrics;
  metrics.RecordBudget(/*tasks_spawned=*/5, /*tasks_completed=*/5,
                       /*deadline_exceeded=*/true);
  metrics.RecordBudget(/*tasks_spawned=*/2, /*tasks_completed=*/2,
                       /*deadline_exceeded=*/false);
  EXPECT_EQ(metrics.deadline_exceeded(), 1u);
  EXPECT_EQ(metrics.tasks_spawned(), 7u);
  EXPECT_EQ(metrics.tasks_completed(), 7u);
  std::string dump = obs::RenderPrometheusText(metrics.Snapshot(CacheStats{}));
  EXPECT_NE(dump.find("\nrelcont_deadline_exceeded_total 1\n"),
            std::string::npos)
      << dump;
  EXPECT_NE(dump.find("\nrelcont_parallel_tasks_spawned_total 7\n"),
            std::string::npos)
      << dump;
  EXPECT_NE(dump.find("\nrelcont_parallel_tasks_completed_total 7\n"),
            std::string::npos)
      << dump;
}

TEST(MetricsTest, CumulativeBucketsAreMonotone) {
  ServiceMetrics metrics;
  for (uint64_t us : {0u, 3u, 3u, 17u, 90u, 5000u, 123456u}) {
    metrics.RecordRequest(Regime::kSection3, us, false, false);
  }
  std::string dump = obs::RenderPrometheusText(metrics.Snapshot(CacheStats{}));
  // Parse back every bucket value; the sequence must be nondecreasing and
  // end at the total count.
  uint64_t prev = 0;
  size_t pos = 0;
  int buckets_seen = 0;
  while ((pos = dump.find("relcont_request_latency_microseconds_bucket{",
                          pos)) != std::string::npos) {
    size_t space = dump.find(' ', pos);
    ASSERT_NE(space, std::string::npos);
    uint64_t value = std::stoull(dump.substr(space + 1));
    EXPECT_GE(value, prev);
    prev = value;
    ++buckets_seen;
    pos = space;
  }
  EXPECT_EQ(buckets_seen, LatencyHistogram::kBuckets);
  EXPECT_EQ(prev, 7u);
}

// --- tracing through the service --------------------------------------------

class ServiceTraceTest : public ::testing::Test {
 protected:
  void RegisterCars(ContainmentService* service) {
    Result<int64_t> v = service->catalogs().Register(
        "cars",
        "redcars(C, M, Y) :- cardesc(C, M, red, Y).\n"
        "allcars(C, M, Col) :- cardesc(C, M, Col, Y).\n",
        {});
    ASSERT_TRUE(v.ok()) << v.status().ToString();
  }

  DecisionRequest CarRequest() {
    DecisionRequest request;
    request.q1_text = "q1(C) :- cardesc(C, M, red, Y).";
    request.q2_text = "q2(C) :- cardesc(C, M, Col, Y).";
    request.catalog = "cars";
    request.bypass_cache = true;
    request.collect_trace = true;
    return request;
  }
};

TEST_F(ServiceTraceTest, LatencyIsNonzeroAndConsistentWithTheTrace) {
  ContainmentService service;
  RegisterCars(&service);
  WorkerContext ctx;
  DecisionResponse response = service.Decide(CarRequest(), &ctx);
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  // A non-trivial decision (parse + plan + containment check) cannot take
  // zero time; steady_clock latencies are monotone so this is a hard floor.
  EXPECT_GT(response.latency_micros, 0u);
  ASSERT_NE(response.trace, nullptr);
  if (trace::kCompiledIn) {
    ASSERT_FALSE(response.trace->spans().empty());
    // The decision span is timed by the same steady clock inside the
    // request window, so it cannot exceed the request latency.
    EXPECT_LE(response.trace->root_duration_ns() / 1000,
              response.latency_micros);
  }
}

TEST_F(ServiceTraceTest, TraceCountersMatchIndependentRecount) {
  if (!trace::kCompiledIn) GTEST_SKIP() << "trace hooks compiled out";
  ContainmentService service;
  RegisterCars(&service);
  WorkerContext ctx;
  DecisionResponse response = service.Decide(CarRequest(), &ctx);
  ASSERT_TRUE(response.status.ok());
  ASSERT_NE(response.trace, nullptr);
  EXPECT_TRUE(response.contained);
  EXPECT_EQ(response.regime, Regime::kSection3);

  // Recount with direct library calls against a fresh interner: the
  // service decision must have done exactly this work.
  Interner interner;
  ViewSet views = *ParseViews(
      "redcars(C, M, Y) :- cardesc(C, M, red, Y).\n"
      "allcars(C, M, Col) :- cardesc(C, M, Col, Y).\n",
      &interner);
  GoalQuery q1{*ParseProgram("q1(C) :- cardesc(C, M, red, Y).", &interner),
               interner.Intern("q1")};
  GoalQuery q2{*ParseProgram("q2(C) :- cardesc(C, M, Col, Y).", &interner),
               interner.Intern("q2")};
  Result<Program> p1 = MaximallyContainedPlan(q1.program, views, &interner);
  Result<Program> p2 = MaximallyContainedPlan(q2.program, views, &interner);
  ASSERT_TRUE(p1.ok() && p2.ok());
  Result<UnionQuery> plan1 = PlanToUnion(*p1, q1.goal, views, &interner);
  Result<UnionQuery> plan2 = PlanToUnion(*p2, q2.goal, views, &interner);
  ASSERT_TRUE(plan1.ok() && plan2.ok());
  EXPECT_EQ(response.trace->TotalCount(trace::Counter::kPlanDisjunctsKept),
            plan1->disjuncts.size() + plan2->disjuncts.size());
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
  EXPECT_EQ(response.trace->TotalCount(trace::Counter::kDisjunctChecks),
            checks);
  EXPECT_EQ(response.trace->TotalCount(trace::Counter::kHomMappingCalls),
            hom_calls);
}

TEST_F(ServiceTraceTest, UntracedRequestsCarryNoTrace) {
  ContainmentService service;
  RegisterCars(&service);
  WorkerContext ctx;
  DecisionRequest request = CarRequest();
  request.collect_trace = false;
  DecisionResponse response = service.Decide(request, &ctx);
  ASSERT_TRUE(response.status.ok());
  EXPECT_EQ(response.trace, nullptr);
}

TEST_F(ServiceTraceTest, ConcurrentTracedBatchIsConsistent) {
  ServiceConfig config;
  config.trace_requests = true;  // every worker traces, concurrently
  ContainmentService service(config);
  RegisterCars(&service);
  std::vector<DecisionRequest> requests;
  for (int i = 0; i < 24; ++i) {
    DecisionRequest request = CarRequest();
    request.collect_trace = false;  // service-wide flag must cover this
    request.bypass_cache = (i % 2 == 0);
    requests.push_back(request);
  }
  std::vector<DecisionResponse> responses = service.ExecuteBatch(requests, 4);
  ASSERT_EQ(responses.size(), requests.size());
  for (const DecisionResponse& r : responses) {
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_TRUE(r.contained);
    ASSERT_NE(r.trace, nullptr);
  }
  EXPECT_EQ(service.metrics().requests(), requests.size());
  if (trace::kCompiledIn) {
    // Every non-cache-hit decision opened exactly one "decide" span.
    EXPECT_GE(service.metrics().PhaseCalls("decide"), 12u);
    EXPECT_GT(service.metrics().PhaseNanos("decide"), 0u);
    EXPECT_GT(service.metrics().RegimeCounterTotal(
                  Regime::kSection3, trace::Counter::kHomMappingCalls),
              0u);
  }
  std::string dump = obs::RenderPrometheusText(
      service.metrics().Snapshot(service.cache().Stats()));
  EXPECT_NE(dump.find("\nrelcont_request_latency_microseconds_count 24\n"),
            std::string::npos);
}

TEST_F(ServiceTraceTest, ExplainVerbReturnsSpanTree) {
  ContainmentService service;
  ServerSession session(&service);
  session.HandleLine("CATALOG c VIEW v(X) :- p(X, Y).");
  session.HandleLine("DEFINE a a(X) :- p(X, Y).");
  session.HandleLine("DEFINE b b(X) :- p(X, Z).");
  std::string out = session.HandleLine("EXPLAIN a b @c");
  EXPECT_EQ(out.rfind("YES section3 MISS", 0), 0u) << out;
  if (trace::kCompiledIn) {
    EXPECT_NE(out.find("decide"), std::string::npos) << out;
    EXPECT_NE(out.find("containment_check"), std::string::npos) << out;
    EXPECT_NE(out.find("hom_mapping_calls="), std::string::npos) << out;
  }
  std::string json_out = session.HandleLine("EXPLAIN JSON a b @c");
  EXPECT_EQ(json_out.rfind("YES section3 MISS", 0), 0u) << json_out;
  if (trace::kCompiledIn) {
    EXPECT_NE(json_out.find("\"traceEvents\""), std::string::npos)
        << json_out;
  } else {
    EXPECT_NE(json_out.find("compiled out"), std::string::npos) << json_out;
  }
  // EXPLAIN bypasses the cache, so a following CONTAINED? still misses.
  EXPECT_EQ(session.HandleLine("EXPLAIN zzz b @c").rfind("ERR", 0), 0u);
  session.HandleLine("BATCH BEGIN");
  EXPECT_EQ(session.HandleLine("EXPLAIN a b @c").rfind("ERR", 0), 0u);
  session.HandleLine("BATCH END");
}

}  // namespace
}  // namespace relcont

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <functional>
#include <map>
#include <regex>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "binding/dom_containment.h"
#include "containment/canonical.h"
#include "containment/homomorphism.h"
#include "datalog/parser.h"
#include "relcont/pi2p_reduction.h"
#include "relcont/relative_containment.h"
#include "relcont/workload.h"
#include "rewriting/inverse_rules.h"
#include "rewriting/views.h"
#include "service/protocol.h"
#include "service/request_frame.h"
#include "service/service.h"
#include "trace/trace.h"

namespace relcont {
namespace {

/// The process-wide total of `c` (trace::ProcessCounts).
uint64_t ProcessCount(trace::Counter c) {
  return trace::ProcessCounts()[static_cast<size_t>(c)].load();
}

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

/// Requests per run of WorkerArenaStaysBounded: 10^4 by default; the
/// stress-labelled ctest entry service_arena_stress raises it to 10^6.
int ArenaRequestsFromEnv() {
  const char* env = std::getenv("RELCONT_ARENA_REQUESTS");
  int requests = env == nullptr ? 0 : std::atoi(env);
  return requests > 0 ? requests : 10'000;
}

TEST(ServiceArenaTest, WorkerArenaStaysBounded) {
  ContainmentService service;
  ASSERT_TRUE(service.catalogs()
                  .Register("main",
                            "v1(X, Y) :- p(X, Y).\n"
                            "v2(X) :- s(X).\n")
                  .ok());
  ASSERT_TRUE(service.catalogs()
                  .Register("bound", "v(X, Y) :- e(X, Y).\n", {{"v", "bf"}})
                  .ok());
  struct Question {
    const char* q1;
    const char* q2;  // nullptr: a PLAN? of q1
    const char* catalog;
    bool contained;  // CONTAINED? verdict; unused for PLAN?
  };
  const std::vector<Question> questions = {
      {"a(X) :- p(X, X).", "b(X) :- p(X, Y).", "main", true},
      {"a(X) :- p(X, Y).", "b(X) :- p(X, Y), s(X).", "main", false},
      {"a(X) :- p(X, Y), s(Y).", "b(X) :- p(X, Y).", "main", true},
      {"a(X, Y) :- e(X, Y).", "b(X, Y) :- e(X, Y).", "bound", true},
      {"q(X) :- p(X, Y), s(Y).", nullptr, "main", false},
      {"q(X, Y) :- e(X, Y).", nullptr, "bound", false},
  };
  WorkerContext ctx;
  const Interner& interner = *ctx.interner();
  std::vector<std::string> first_plans(questions.size());
  int64_t named_after_first = -1;
  int passes = (ArenaRequestsFromEnv() + static_cast<int>(questions.size()) -
                1) / static_cast<int>(questions.size());
  for (int pass = 0; pass < passes; ++pass) {
    for (size_t i = 0; i < questions.size(); ++i) {
      const Question& q = questions[i];
      if (q.q2 != nullptr) {
        DecisionRequest request;
        request.q1_text = q.q1;
        request.q2_text = q.q2;
        request.catalog = q.catalog;
        request.bypass_cache = true;
        DecisionResponse r = service.Decide(request, &ctx);
        ASSERT_TRUE(r.status.ok()) << r.status.ToString();
        ASSERT_EQ(r.contained, q.contained) << q.q1 << " vs " << q.q2;
        continue;
      }
      PlanRequest request;
      request.query_text = q.q1;
      request.catalog = q.catalog;
      request.bypass_cache = true;
      PlanResponse r = service.planner().Plan(request, &ctx);
      ASSERT_TRUE(r.status.ok()) << r.status.ToString();
      if (pass == 0) first_plans[i] = r.plan_text;
      ASSERT_EQ(r.plan_text, first_plans[i]) << q.q1;
    }
    // Every request gave its fresh ids back; after the first pass the
    // arena has seen the whole vocabulary and stops growing.
    ASSERT_EQ(interner.live_fresh_count(), 0) << "pass " << pass;
    if (pass == 0) named_after_first = interner.named_count();
    ASSERT_EQ(interner.named_count(), named_after_first) << "pass " << pass;
  }
  // size() counts every id ever minted, so it kept growing all along.
  EXPECT_GT(interner.size(), named_after_first + passes);
}

TEST_F(ServiceTest, CacheKeyIsRenamingInvariantAndOptionSensitive) {
  DecisionRequest base = Req("a(X) :- p(X, Y).", "b(X) :- p(X, Y).");
  DecisionRequest renamed = Req("a(U) :- p(U, V).", "b(V) :- p(V, W).");
  DecisionRequest different = Req("a(X) :- p(X, X).", "b(X) :- p(X, Y).");

  Result<std::string> k_base = service_.CacheKey(base, &ctx_);
  Result<std::string> k_renamed = service_.CacheKey(renamed, &ctx_);
  Result<std::string> k_different = service_.CacheKey(different, &ctx_);
  ASSERT_TRUE(k_base.ok() && k_renamed.ok() && k_different.ok());
  EXPECT_EQ(*k_base, *k_renamed);
  EXPECT_NE(*k_base, *k_different);

  auto key_with = [&](const std::function<void(DecideOptions&)>& set) {
    DecisionRequest request = base;
    set(request.options);
    Result<std::string> key = service_.CacheKey(request, &ctx_);
    EXPECT_TRUE(key.ok()) << key.status().ToString();
    return key.ok() ? *key : std::string();
  };
  // Each option that shapes an answer moves the key on its own...
  const std::vector<std::function<void(DecideOptions&)>> shaping = {
      [](DecideOptions& o) { o.max_rule_applications = 99; },
      [](DecideOptions& o) { o.strategy = ContainmentStrategy::kCegar; },
  };
  std::set<std::string> keys = {*k_base};
  for (size_t i = 0; i < shaping.size(); ++i) {
    EXPECT_TRUE(keys.insert(key_with(shaping[i])).second) << "option " << i;
  }
  // ...and the budget fields never do.
  EXPECT_EQ(key_with([](DecideOptions& o) { o.timeout_ms = 5; }), *k_base);
  EXPECT_EQ(key_with([](DecideOptions& o) { o.max_steps = 5; }), *k_base);
}

// --- fresh names -------------------------------------------------------------

/// The symbol tokens of rendered text: identifiers and quoted constants.
std::vector<std::string> SymbolTokens(const std::string& text) {
  std::vector<std::string> out;
  auto word = [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
  };
  for (size_t i = 0; i < text.size();) {
    size_t end = i + 1;
    if (text[i] == '\'') {
      end = text.find('\'', i + 1) + 1;
    } else if (word(text[i])) {
      while (end < text.size() && word(text[end])) ++end;
    } else {
      ++i;
      continue;
    }
    out.push_back(text.substr(i, end - i));
    i = end;
  }
  return out;
}

/// Every reply of one session-like arena to a fixed question list whose
/// query symbols are `x`, `y`, `k` and `d`.
std::vector<std::string> FreshNameReplies(const std::string& x,
                                          const std::string& y,
                                          const std::string& k,
                                          const std::string& d) {
  ContainmentService service;
  EXPECT_TRUE(service.catalogs()
                  .Register("main",
                            "v1(X, Y) :- p(X, Y).\n"
                            "v2(X) :- s(X).\n")
                  .ok());
  EXPECT_TRUE(service.catalogs()
                  .Register("bound", "v(X, Y) :- e(X, Y).\n", {{"v", "bf"}})
                  .ok());
  WorkerContext ctx;
  std::vector<std::string> out;
  auto contained = [&](const std::string& q1, const std::string& q2,
                       const std::string& catalog) {
    DecisionRequest request;
    request.q1_text = q1;
    request.q2_text = q2;
    request.catalog = catalog;
    DecisionResponse r = service.Decide(request, &ctx);
    EXPECT_TRUE(r.status.ok()) << r.status.ToString();
    out.push_back(r.witness_text);
  };
  auto plan = [&](const std::string& query, const std::string& catalog) {
    PlanRequest request;
    request.query_text = query;
    request.catalog = catalog;
    PlanResponse r = service.planner().Plan(request, &ctx);
    EXPECT_TRUE(r.status.ok()) << r.status.ToString();
    out.push_back(r.dom_predicate + "\n" + r.plan_text);
  };
  contained("a(" + x + ") :- p(" + x + ", " + y + "), p(" + y + ", " + k +
                ").",
            "b(" + x + ") :- p(" + x + ", " + y + "), s(" + y + ").", "main");
  contained(d + "(" + x + ") :- p(" + x + ", " + y + ").",
            "b(" + x + ") :- p(" + x + ", " + y + "), s(" + x + ").", "main");
  plan(d + "(" + x + ", " + y + ") :- e(" + x + ", " + y + ").", "bound");
  plan(d + "(" + x + ") :- e(" + k + ", " + x + "), e(" + x + ", " + y + ").",
       "bound");
  plan(d + "(" + x + ") :- p(" + x + ", " + y + "), s(" + y + ").", "main");
  RewriteRequest rewrite;
  rewrite.q1_text = "a(" + x + ") :- p(" + x + ", " + y + ").";
  rewrite.q2_text = "b(" + x + ") :- p(" + x + ", " + y + "), s(" + x + ").";
  rewrite.catalog = "main";
  RewriteResponse r = service.planner().Rewrite(rewrite, &ctx);
  EXPECT_TRUE(r.status.ok()) << r.status.ToString();
  out.push_back(r.witness_text);
  return out;
}

TEST(ServiceFreshNameTest, FreshNamesNeverSpellAQuerySymbol) {
  // The queries spell their symbols the way fresh ones are spelled; the
  // reference asks the same questions with names of no fresh shape. Each
  // reply must equal its reference up to a bijective renaming of symbols
  // that maps every query symbol to its counterpart: a fresh id spelled
  // like a query symbol, or like another fresh id, breaks the bijection.
  std::vector<std::string> replies = FreshNameReplies("_R0", "_R1", "'_k0'",
                                                      "dom0");
  std::vector<std::string> reference = FreshNameReplies("Xa", "Ya", "'Ka'",
                                                        "doma");
  ASSERT_EQ(replies.size(), reference.size());
  std::map<std::string, std::string> forward = {
      {"_R0", "Xa"}, {"_R1", "Ya"}, {"'_k0'", "'Ka'"}, {"dom0", "doma"}};
  std::map<std::string, std::string> backward;
  for (const auto& [from, to] : forward) backward[to] = from;
  int fresh_tokens = 0;
  for (size_t i = 0; i < replies.size(); ++i) {
    std::vector<std::string> got = SymbolTokens(replies[i]);
    std::vector<std::string> want = SymbolTokens(reference[i]);
    ASSERT_EQ(got.size(), want.size()) << replies[i] << "\n" << reference[i];
    for (size_t t = 0; t < got.size(); ++t) {
      auto [f, f_new] = forward.emplace(got[t], want[t]);
      auto [b, b_new] = backward.emplace(want[t], got[t]);
      EXPECT_EQ(f->second, want[t]) << replies[i] << "\n" << reference[i];
      EXPECT_EQ(b->second, got[t]) << replies[i] << "\n" << reference[i];
      if (f_new && got[t].starts_with("_")) ++fresh_tokens;
    }
  }
  // The replies did name fresh symbols (renamed-apart variables, the dom
  // accumulator), so the check had something to catch.
  EXPECT_GT(fresh_tokens, 2);
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

TEST(ServiceDeadlineTest, MidFlightDeadlineAnswersBoundReached) {
  std::string views_text;
  DecisionRequest request;
  HardRequestWorkload(&views_text, &request);
  request.options.timeout_ms = 1;

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
  // The expired request was counted by the deadline metric.
  EXPECT_GE(service.metrics().deadline_exceeded(), 1u);
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

// Catalog validation lives in ViewSet::Make; ParseViews and CATALOG
// registration reach it and answer with its message unchanged.
TEST(ProtocolTest, CatalogRejectionsMatchViewSetMake) {
  struct Rejection {
    std::vector<std::string> views;
    std::string message;
  };
  const std::vector<Rejection> rejections = {
      {{"v(X) :- w(X).", "w(X) :- p(X)."},
       "InvalidArgument: a source predicate occurs in a view body"},
      {{"w(X) :- p(X).", "v(X) :- w(X)."},
       "InvalidArgument: a source predicate occurs in a view body"},
      {{"v(X) :- p(X).", "v(X) :- r(X)."},
       "InvalidArgument: duplicate view definition for a source predicate"},
      {{"v(a)."}, "InvalidArgument: view body must not be empty"},
      {{"v(X, Y) :- p(X)."},
       "Unsafe: head variable does not appear in the body"},
  };
  ContainmentService service;
  ServerSession session(&service);
  for (const Rejection& r : rejections) {
    std::string text;
    std::string line = "CATALOG c";
    for (const std::string& v : r.views) {
      text += v + "\n";
      line += " VIEW " + v;
    }
    SCOPED_TRACE(text);
    Interner interner;
    Program program = *ParseProgram(text, &interner);
    std::vector<ViewDefinition> defs;
    for (const Rule& rule : program.rules) defs.push_back({rule, false});
    Result<ViewSet> made = ViewSet::Make(std::move(defs), &interner);
    ASSERT_FALSE(made.ok());
    EXPECT_EQ(made.status().ToString(), r.message);
    Interner parse_interner;
    Result<ViewSet> parsed = ParseViews(text, &parse_interner);
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.status().ToString(), r.message);
    EXPECT_EQ(session.HandleLine(line), "ERR " + r.message + "\n");
  }
  // Nothing was registered.
  EXPECT_EQ(service.catalogs().size(), 0u);
}

TEST(ProtocolTest, DisjunctOverTheMaskLimitIsUnsupportedOnPatternCatalogs) {
  ContainmentService service;
  ServerSession session(&service);
  session.HandleLine("CATALOG s VIEW v(X, Y) :- e(X, Y). PATTERN v bf");
  session.HandleLine("DEFINE a a(X) :- e(X, Y).");
  // A Q2 disjunct one atom over the §4 decider's 64-bit mask limit.
  std::string wide = "DEFINE w w(X) :- e(X, Y0)";
  for (int i = 1; i <= kMaxDisjunctSize; ++i) {
    wide += ", e(Y" + std::to_string(i - 1) + ", Y" + std::to_string(i) + ")";
  }
  session.HandleLine(wide + ".");
  std::string out = session.HandleLine("CONTAINED? a w @s");
  EXPECT_EQ(out.rfind("ERR", 0), 0u) << out;
  EXPECT_NE(out.find("Unsupported"), std::string::npos) << out;
}

// A catalog relation spelled "_plan_e" stays apart from the plan's copy
// of e, under Section 4 and under Theorem 3.2; and a Section 4 NO from the
// bounded fallback (recursive Q1) carries a witness.
TEST(ProtocolTest, Section4PlanCopiesAndFallbackWitness) {
  ContainmentService service;
  ServerSession session(&service);
  session.HandleLine(
      "CATALOG s VIEW v(X, Y) :- e(X, Y). VIEW w(X, Y) :- _plan_e(X, Y). "
      "VIEW u(X, Y) :- e(X, Y). PATTERN u bf");
  session.HandleLine("DEFINE a a(X) :- _plan_e(X, Y).");
  session.HandleLine("DEFINE b b(X) :- _plan_e(X, Y).");
  std::string yes = session.HandleLine("CONTAINED? a b @s");
  EXPECT_EQ(yes.rfind("YES section4 MISS", 0), 0u) << yes;

  session.HandleLine(
      "CATALOG t VIEW v(X, Y) :- e(X, Y). VIEW w(X, Y) :- _plan_e(X, Y).");
  session.HandleLine(
      "DEFINE c a(X) :- t(X, Y). t(X, Y) :- _plan_e(X, Y). "
      "t(X, Y) :- _plan_e(X, Z), t(Z, Y).");
  std::string bound = session.HandleLine("CONTAINED? c b @t");
  EXPECT_EQ(bound.rfind("ERR", 0), 0u) << bound;
  EXPECT_NE(bound.find("BoundReached"), std::string::npos) << bound;

  session.HandleLine(
      "CATALOG f VIEW v(X, Y) :- e(X, Y). VIEW u(X, Y) :- f(X, Y). "
      "PATTERN u bf");
  session.HandleLine(
      "DEFINE r a(X) :- t(X, Y). t(X, Y) :- e(X, Y). "
      "t(X, Y) :- e(X, Z), t(Z, Y).");
  session.HandleLine("DEFINE p b(X) :- e(X, Y), e(Y, Z).");
  std::string no = session.HandleLine("CONTAINED? r p @f");
  EXPECT_EQ(no.rfind("NO section4 MISS", 0), 0u) << no;
  EXPECT_NE(no.find("witness: a("), std::string::npos) << no;
}

/// A reply with its latency and request id masked.
std::string Masked(const std::string& reply) {
  static const std::regex kTiming(R"(\d+us id=\d+)");
  return std::regex_replace(reply, kTiming, "<t>");
}

// The Section 4 replies of PLAN?, CONTAINED? and REWRITE?, byte for byte
// (timings and request ids masked), from two sessions sharing the service.
// Re-registering the catalog under the same name with other views and
// patterns moves every reply to the new version: no plan compiled for the
// old version is ever served.
TEST(ProtocolTest, Section4RepliesFollowCatalogReRegistration) {
  ContainmentService service;
  ServerSession first(&service);
  ServerSession second(&service);
  for (ServerSession* s : {&first, &second}) {
    s->HandleLine("DEFINE a a(X) :- e(X, Y).");
    s->HandleLine("DEFINE b b(X) :- e(X, Y), f(Y, Z).");
  }
  auto ask = [](ServerSession& s) {
    return std::vector<std::string>{
        Masked(s.HandleLine("PLAN? a @s")),
        Masked(s.HandleLine("CONTAINED? a b @s")),
        Masked(s.HandleLine("CONTAINED? b a @s")),
        Masked(s.HandleLine("REWRITE? a b @s"))};
  };
  EXPECT_EQ(first.HandleLine("CATALOG s VIEW v(X, Y) :- e(X, Y). "
                             "VIEW u(X, Y) :- f(X, Y). PATTERN v bf"),
            "OK catalog s v1 views=2 patterns=1\n");
  const std::string v1_plan =
      "a(X) :- e(X, Y).\n"
      "e(X, Y) :- dom0(X), v(X, Y).\n"
      "dom0(Y) :- dom0(X), v(X, Y).\n"
      "f(X, Y) :- u(X, Y).\n"
      "dom0(X) :- u(X, Y).\n"
      "dom0(Y) :- u(X, Y).\n";
  const std::string v1_witness =
      " <t> witness: a(_R22) :- e(_R22, _R23), f(_R22, _R25).\n";
  // The replies of one version, cached or not.
  auto v1 = [&](const std::string& lookup) {
    return std::vector<std::string>{
        "OK plan catalog=s v1 kind=recursive rules=6 dom=dom0 " + lookup +
            " <t>\n" + v1_plan,
        "NO section4 " + lookup + v1_witness,
        "YES section4 " + lookup + " <t>\n",
        "NO plan " + lookup + v1_witness};
  };
  EXPECT_EQ(ask(first), v1("MISS"));
  EXPECT_EQ(ask(second), v1("HIT"));

  EXPECT_EQ(second.HandleLine("CATALOG s VIEW v(X, Y) :- e(X, Y), f(Y, Z). "
                              "VIEW w(X) :- e(X, X). PATTERN w b"),
            "OK catalog s v2 views=2 patterns=1\n");
  auto v2 = [](const std::string& lookup) {
    return std::vector<std::string>{
        "OK plan catalog=s v2 kind=recursive rules=6 dom=dom0 " + lookup +
            " <t>\n"
            "a(X) :- e(X, Y).\n"
            "e(X, Y) :- v(X, Y).\n"
            "f(Y, f_v_Z(X, Y)) :- v(X, Y).\n"
            "dom0(X) :- v(X, Y).\n"
            "dom0(Y) :- v(X, Y).\n"
            "e(X, X) :- dom0(X), w(X).\n",
        "YES section4 " + lookup + " <t>\n",
        "YES section4 " + lookup + " <t>\n",
        "YES plan " + lookup + " <t>\n"};
  };
  EXPECT_EQ(ask(second), v2("MISS"));
  EXPECT_EQ(ask(first), v2("HIT"));
}

TEST(ProtocolTest, BudgetOptionsParseAndSurfaceBounds) {
  ContainmentService service;
  ServerSession session(&service);
  session.HandleLine("CATALOG c VIEW v(X, Y) :- p(X, Y).");
  session.HandleLine("DEFINE a a(X) :- p(X, X).");
  session.HandleLine("DEFINE b b(X) :- p(X, Y).");

  // Generous bounds leave the verdict untouched.
  std::string yes = session.HandleLine(
      "CONTAINED? a b @c timeout_ms=60000 budget=1000000");
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
        "CONTAINED? a b @c budget=-2", "CONTAINED? a b @c frobs=3"}) {
    std::string err = session.HandleLine(bad);
    EXPECT_EQ(err.rfind("ERR", 0), 0u) << bad << " -> " << err;
  }

  // EXPLAIN accepts the same trailing options.
  std::string explain =
      session.HandleLine("EXPLAIN a b @c timeout_ms=60000 budget=1000000");
  EXPECT_EQ(explain.rfind("ERR", 0), std::string::npos) << explain;
}

TEST(ProtocolTest, RemovedWorkersOptionIsAnUnknownOption) {
  // Requests run on one thread; an old client's workers= gets the same
  // unknown-option line as any other key, on every question verb.
  ContainmentService service;
  ServerSession session(&service);
  session.HandleLine("CATALOG c VIEW v(X, Y) :- p(X, Y).");
  session.HandleLine("DEFINE a a(X) :- p(X, X).");
  session.HandleLine("DEFINE b b(X) :- p(X, Y).");
  const std::string unknown =
      "ERR InvalidArgument: unknown option 'workers' — try timeout_ms=, "
      "budget=, or strategy=\n";
  EXPECT_EQ(session.HandleLine("CONTAINED? a b @c workers=4"), unknown);
  EXPECT_EQ(session.HandleLine("EXPLAIN a b @c workers=4"), unknown);
  EXPECT_EQ(session.HandleLine("PLAN? a @c workers=4"), unknown);
}

TEST(ProtocolTest, RecursiveQ1ContainedPairAnswersBoundReached) {
  // The Theorem 3.2 recursive-Q1 limit on the wire: the pair is contained,
  // but the bounded expansion search cannot certify it, so the reply is
  // the uniform bound error, never NO; the reversed pair is decided.
  ContainmentService service;
  ServerSession session(&service);
  session.HandleLine("CATALOG c VIEW e1(X, Y) :- e(X, Y).");
  session.HandleLine(
      "DEFINE qa a(X) :- t(X, Y). t(X, Y) :- e(X, Y). "
      "t(X, Y) :- e(X, Z), t(Z, Y).");
  session.HandleLine("DEFINE qb b(X) :- e(X, Y).");
  std::string bound = session.HandleLine("CONTAINED? qa qb @c");
  EXPECT_EQ(bound.rfind("ERR [id=", 0), 0u) << bound;
  EXPECT_NE(bound.find("BoundReached: bound reached [expansion]"),
            std::string::npos)
      << bound;
  std::string reversed = session.HandleLine("CONTAINED? qb qa @c");
  EXPECT_EQ(reversed.rfind("YES theorem32 ", 0), 0u) << reversed;
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

// A catalog name may contain '=': the `@<catalog>` word ends the trailing
// options, so it is never read as one.
TEST(ProtocolTest, CatalogNameWithEqualsSignIsQueryable) {
  ContainmentService service;
  ServerSession session(&service);
  EXPECT_EQ(session.HandleLine("CATALOG c=1 VIEW v(X, Y) :- p(X, Y)."),
            "OK catalog c=1 v1 views=1 patterns=0\n");
  session.HandleLine("DEFINE a a(X) :- p(X, X).");
  session.HandleLine("DEFINE b b(X) :- p(X, Y).");
  std::string yes = session.HandleLine("CONTAINED? a b @c=1");
  EXPECT_EQ(yes.rfind("YES section3 MISS", 0), 0u) << yes;
  std::string budgeted = session.HandleLine("CONTAINED? a b @c=1 budget=99");
  EXPECT_EQ(budgeted.rfind("YES section3 HIT", 0), 0u) << budgeted;
  std::string plan = session.HandleLine("PLAN? a @c=1");
  EXPECT_EQ(plan.rfind("OK plan catalog=c=1 v1", 0), 0u) << plan;
  std::string err = session.HandleLine("CONTAINED? a b @c=1 frobs=3");
  EXPECT_NE(err.find("unknown option 'frobs'"), std::string::npos) << err;
}

/// A reply without the fields two equal answers may differ in: each
/// " HIT|MISS <latency>us id=<N>".
std::string WithoutCacheFields(std::string reply) {
  for (const char* mark : {" HIT ", " MISS "}) {
    for (size_t at = reply.find(mark); at != std::string::npos;
         at = reply.find(mark, at)) {
      size_t id = reply.find(" id=", at + 1);
      if (id == std::string::npos) break;
      reply.erase(at, reply.find_first_not_of("0123456789", id + 4) - at);
    }
  }
  return reply;
}

/// The fingerprint DEFINE stores for `text`: goal = head of the first rule.
std::string DefinedFingerprint(const std::string& text) {
  Interner interner;
  Result<GoalQuery> query = ParseGoalQuery(text, &interner);
  EXPECT_TRUE(query.ok()) << query.status().ToString();
  if (!query.ok()) return "";
  return CanonicalProgramFingerprint(query->program, query->goal, interner);
}

// Questions naming DEFINE'd queries key from the fingerprints DEFINE
// stored. Over every question verb: (a) that key is the one the texts
// derive; (b) an alpha-renamed, rule-shuffled twin hits it; a hit on stored
// fingerprints never reads the text; (c) a re-DEFINE to an inequivalent
// query misses and answers anew; (d) a BATCH of DEFINE'd names hits.
TEST(ProtocolTest, DefinedFingerprintsKeySoundly) {
  const std::string catalog =
      "CATALOG c VIEW v1(X, Y) :- p(X, Y). VIEW v2(X) :- s(X).";
  const std::map<std::string, std::string> defines = {
      {"q1", "a(X) :- p(X, Y), s(Y). a(X) :- p(X, X)."},
      {"q2", "b(X) :- p(X, Y)."},
      {"t1", "a(U) :- p(U, U). a(U) :- p(U, W), s(W)."},  // q1's twin
      {"t2", "b(Z) :- p(Z, W)."},                          // q2's twin
  };
  const std::string q1_new = "a(X) :- s(X).";  // not equivalent to q1
  const std::string fp1 = DefinedFingerprint(defines.at("q1"));
  const std::string fp2 = DefinedFingerprint(defines.at("q2"));
  struct Row {
    ServiceVerb verb;
    std::string spelled;
    bool two_queries;
  };
  for (const Row& row : {Row{ServiceVerb::kContained, "CONTAINED?", true},
                         Row{ServiceVerb::kPlan, "PLAN?", false},
                         Row{ServiceVerb::kRewrite, "REWRITE?", true}}) {
    SCOPED_TRACE(row.spelled);
    ContainmentService service;
    ServerSession session(&service);
    auto setup = [&](ServerSession& s,
                     const std::map<std::string, std::string>& queries) {
      ASSERT_EQ(s.HandleLine(catalog).rfind("OK", 0), 0u);
      for (const auto& [name, text] : queries) {
        ASSERT_EQ(s.HandleLine("DEFINE " + name + " " + text).rfind("OK", 0),
                  0u);
      }
    };
    setup(session, defines);
    auto ask = [&](ServerSession& s, const std::string& a,
                   const std::string& b) {
      return s.HandleLine(row.spelled + " " + a +
                          (row.two_queries ? " " + b : "") + " @c");
    };
    ShardedLru<CachedPlan>& plans = service.planner().cache();
    auto entries = [&] {
      return row.verb == ServiceVerb::kContained ? service.cache().Stats().entries
                                                 : plans.Stats().entries;
    };

    const std::string first = ask(session, "q1", "q2");
    EXPECT_NE(first.find(" MISS "), std::string::npos) << first;
    EXPECT_EQ(entries(), 1u);

    // (a) The one entry, inserted under the DEFINE'd key, is found under
    // the key the texts derive.
    std::vector<std::string_view> fingerprints = {fp1};
    if (row.two_queries) fingerprints.push_back(fp2);
    const std::string text_key =
        QuestionCacheKey(row.verb, "c", 1, fingerprints, DecideOptions{});
    if (row.verb == ServiceVerb::kContained) {
      EXPECT_TRUE(service.cache().Lookup(text_key).has_value());
      DecisionRequest request;
      request.q1_text = defines.at("q1");
      request.q2_text = defines.at("q2");
      request.catalog = "c";
      WorkerContext ctx;
      Result<std::string> derived = service.CacheKey(request, &ctx);
      ASSERT_TRUE(derived.ok()) << derived.status().ToString();
      EXPECT_EQ(*derived, text_key);
      request.q1_fingerprint = fp1;
      request.q2_fingerprint = fp2;
      Result<std::string> stored = service.CacheKey(request, &ctx);
      ASSERT_TRUE(stored.ok()) << stored.status().ToString();
      EXPECT_EQ(*stored, text_key);
    } else {
      EXPECT_TRUE(plans.Lookup(text_key).has_value());
    }

    // (b) The twins hit the same entry and answer alike.
    const std::string twin = ask(session, "t1", "t2");
    EXPECT_NE(twin.find(" HIT "), std::string::npos) << twin;
    EXPECT_EQ(WithoutCacheFields(twin), WithoutCacheFields(first));
    EXPECT_EQ(entries(), 1u);

    // A hit on stored fingerprints reads no text: an empty one, which
    // would not parse, still hits.
    WorkerContext ctx;
    bool hit = false;
    if (row.verb == ServiceVerb::kContained) {
      DecisionRequest request;
      request.q1_fingerprint = fp1;
      request.q2_fingerprint = fp2;
      request.catalog = "c";
      DecisionResponse response = service.Decide(request, &ctx);
      EXPECT_TRUE(response.status.ok()) << response.status.ToString();
      hit = response.cache_hit;
    } else if (row.verb == ServiceVerb::kPlan) {
      PlanRequest request;
      request.query_fingerprint = fp1;
      request.catalog = "c";
      PlanResponse response = service.planner().Plan(request, &ctx);
      EXPECT_TRUE(response.status.ok()) << response.status.ToString();
      hit = response.cache_hit;
    } else {
      RewriteRequest request;
      request.q1_fingerprint = fp1;
      request.q2_fingerprint = fp2;
      request.catalog = "c";
      RewriteResponse response = service.planner().Rewrite(request, &ctx);
      EXPECT_TRUE(response.status.ok()) << response.status.ToString();
      hit = response.cache_hit;
    }
    EXPECT_TRUE(hit);

    // (d) A batch of DEFINE'd names hits on its fan-out workers.
    if (row.verb == ServiceVerb::kContained) {
      session.HandleLine("BATCH BEGIN");
      session.HandleLine("CONTAINED? q1 q2 @c");
      session.HandleLine("CONTAINED? t1 t2 @c");
      std::string batch = session.HandleLine("BATCH END");
      EXPECT_NE(batch.find("[0] YES section3 HIT"), std::string::npos)
          << batch;
      EXPECT_NE(batch.find("[1] YES section3 HIT"), std::string::npos)
          << batch;
    }

    // (c) A re-DEFINE replaces the stored fingerprint with its text: the
    // next question misses and answers as a session that only ever knew
    // the new query.
    EXPECT_EQ(session.HandleLine("DEFINE q1 " + q1_new), "OK query q1 rules=1\n");
    const std::string redefined = ask(session, "q1", "q2");
    EXPECT_NE(redefined.find(" MISS "), std::string::npos) << redefined;
    ContainmentService fresh_service;
    ServerSession fresh(&fresh_service);
    setup(fresh, {{"q1", q1_new}, {"q2", defines.at("q2")}});
    EXPECT_EQ(WithoutCacheFields(redefined),
              WithoutCacheFields(ask(fresh, "q1", "q2")));
    EXPECT_NE(WithoutCacheFields(redefined), WithoutCacheFields(first));
  }
}

// Words split on every whitespace byte `operator>>` skips: runs of spaces,
// tabs, leading whitespace, the '\r' a getline keeps, '%' comments and
// blank lines answer as their single-space forms do.
TEST(ProtocolTest, TokenizerTreatsEveryWhitespaceAlike) {
  const std::vector<std::pair<std::string, std::string>> lines = {
      {"CATALOG   c  VIEW  v(X,   Y)  :-  p(X,  Y).",
       "CATALOG c VIEW v(X, Y) :- p(X, Y)."},
      {"\tDEFINE\ta\ta(X)\t:-\tp(X,\tX).", "DEFINE a a(X) :- p(X, X)."},
      {"   DEFINE b b(X) :- p(X, Y).\r", "DEFINE b b(X) :- p(X, Y)."},
      {"CONTAINED? a b @c\r", "CONTAINED? a b @c"},
      {" \t CONTAINED?  b \t a   @c  budget=1000000\r",
       "CONTAINED? b a @c budget=1000000"},
      {"\v\fPLAN?\ta @c\r\n", "PLAN? a @c"},
      {"  % a comment\r", "% a comment"},
      {" \t \r", ""},
      {"CATALOGS\r", "CATALOGS"},
      {"NOPE\r", "NOPE"},
  };
  ContainmentService messy_service;
  ServerSession messy(&messy_service);
  ContainmentService plain_service;
  ServerSession plain(&plain_service);
  for (const auto& [line, single_spaced] : lines) {
    SCOPED_TRACE(single_spaced);
    const std::string expected = plain.HandleLine(single_spaced);
    EXPECT_EQ(expected.empty(),
              single_spaced.empty() || single_spaced[0] == '%');
    EXPECT_EQ(WithoutCacheFields(messy.HandleLine(line)),
              WithoutCacheFields(expected));
  }
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
  metrics.RecordDeadlineExceeded();
  EXPECT_EQ(metrics.deadline_exceeded(), 1u);
  std::string dump = obs::RenderPrometheusText(metrics.Snapshot(CacheStats{}));
  EXPECT_NE(dump.find("\nrelcont_deadline_exceeded_total 1\n"),
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
  Result<UnionQuery> plan1 = UnionPlan(q1.program, q1.goal, views, &interner);
  Result<UnionQuery> plan2 = UnionPlan(q2.program, q2.goal, views, &interner);
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
  const uint64_t calls_before =
      ProcessCount(trace::Counter::kHomMappingCalls);
  std::vector<DecisionResponse> responses = service.ExecuteBatch(requests, 4);
  ASSERT_EQ(responses.size(), requests.size());
  uint64_t traced_calls = 0;
  for (const DecisionResponse& r : responses) {
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_TRUE(r.contained);
    ASSERT_NE(r.trace, nullptr);
    traced_calls += r.trace->TotalCount(trace::Counter::kHomMappingCalls);
  }
  EXPECT_EQ(service.metrics().requests(), requests.size());
  const uint64_t calls = ProcessCount(trace::Counter::kHomMappingCalls) -
                         calls_before;
  EXPECT_GT(calls, 0u);
  if (trace::kCompiledIn) {
    // Every non-cache-hit decision opened exactly one "decide" span.
    EXPECT_GE(service.metrics().PhaseCalls("decide"), 12u);
    EXPECT_GT(service.metrics().PhaseNanos("decide"), 0u);
    // Concurrent workers fold the same counts their traces recorded.
    EXPECT_EQ(calls, traced_calls);
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

// --- the one counter set ---------------------------------------------------

/// The value of the unlabelled series `name` in a Prometheus rendering, or
/// -1 when it is absent.
int64_t SeriesValue(const std::string& text, const std::string& name) {
  const size_t at = text.find("\n" + name + " ");
  if (at == std::string::npos) return -1;
  return std::strtoll(text.c_str() + at + name.size() + 2, nullptr, 10);
}

TEST(CounterTableTest, UntracedContainedMovesHomMappingCallsInMetrics) {
  // Counters are always on: a request nobody traces still folds its
  // counts into the process table that METRICS renders (in every build,
  // RELCONT_TRACE=OFF included).
  ContainmentService service;
  ServerSession session(&service);
  session.HandleLine("CATALOG m VIEW v(X, Y) :- p(X, Y).");
  session.HandleLine("DEFINE qa qa(X) :- p(X, X).");
  session.HandleLine("DEFINE qb qb(A) :- p(A, B).");
  const int64_t before = SeriesValue(session.HandleLine("METRICS"),
                                     "relcont_hom_mapping_calls_total");
  ASSERT_GE(before, 0);
  EXPECT_EQ(session.HandleLine("CONTAINED? qa qb @m").rfind("YES", 0), 0u);
  const std::string after = session.HandleLine("METRICS");
  EXPECT_GT(SeriesValue(after, "relcont_hom_mapping_calls_total"), before)
      << after;
  EXPECT_EQ(service.metrics().Snapshot(service.cache().Stats())
                .values[obs::SeriesIndex("hom_mapping_calls_total")],
            static_cast<uint64_t>(
                SeriesValue(after, "relcont_hom_mapping_calls_total")));
}

TEST(CounterTableTest, ProcessDeltaEqualsSumOfTracesOverSeededSweep) {
  ServiceConfig config;
  config.trace_requests = true;
  ContainmentService service(config);
  std::string views_text;
  std::vector<DecisionRequest> requests = RandomWorkload(30, &views_text);
  ASSERT_TRUE(service.catalogs().Register("rand", views_text).ok());
  WorkerContext ctx;
  trace::CounterArray before;
  for (size_t c = 0; c < trace::kNumCounters; ++c) {
    before[c] = trace::ProcessCounts()[c].load();
  }
  trace::CounterArray traced{};
  // Every question twice: the second is a cache hit, which counts nothing.
  for (int pass = 0; pass < 2; ++pass) {
    for (const DecisionRequest& request : requests) {
      DecisionResponse response = service.Decide(request, &ctx);
      ASSERT_TRUE(response.status.ok()) << response.status.ToString();
      ASSERT_NE(response.trace, nullptr);
      for (size_t c = 0; c < trace::kNumCounters; ++c) {
        traced[c] +=
            response.trace->TotalCount(static_cast<trace::Counter>(c));
      }
    }
  }
  for (size_t c = 0; c < trace::kNumCounters; ++c) {
    const uint64_t delta = trace::ProcessCounts()[c].load() - before[c];
    if (trace::kCompiledIn) {
      EXPECT_EQ(delta, traced[c])
          << trace::CounterName(static_cast<trace::Counter>(c));
    }
  }
  const size_t calls = static_cast<size_t>(trace::Counter::kHomMappingCalls);
  EXPECT_GT(trace::ProcessCounts()[calls].load(), before[calls]);
}

}  // namespace
}  // namespace relcont

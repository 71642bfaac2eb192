#include "script.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <unordered_map>

#include "containment/canonical.h"
#include "datalog/parser.h"
#include "planner/planner.h"
#include "relcont/decide.h"
#include "service/catalog.h"
#include "service/service.h"
#include "trace/trace.h"

namespace servebench {

using relcont::Interner;

namespace {

/// Oracle arenas are rebuilt after this many questions, so the oracle's
/// footprint stays well below the service's.
constexpr int kOracleResetEvery = 500;

relcont::Result<relcont::GoalQuery> ParseGoalQuery(const std::string& text,
                                                   Interner* interner) {
  relcont::Result<relcont::Program> program =
      relcont::ParseProgram(text, interner);
  if (!program.ok()) return program.status();
  if (program->rules.empty()) {
    return relcont::Status::InvalidArgument("no rules");
  }
  relcont::SymbolId goal = program->rules[0].head.predicate;
  return relcont::GoalQuery{std::move(*program), goal};
}

void CopyCounters(const relcont::trace::TraceContext& trace, Answer* out) {
  using relcont::trace::Counter;
  out->counters[kHomCandidates] =
      trace.TotalCount(Counter::kHomCandidatesTried);
  out->counters[kCegarProposals] = trace.TotalCount(Counter::kCegarProposals);
  out->counters[kCegarIterations] =
      trace.TotalCount(Counter::kCegarIterations);
  out->counters[kDenseOrderPropagations] =
      trace.TotalCount(Counter::kDenseOrderPropagations);
  out->counters[kDomCoresChecked] =
      trace.TotalCount(Counter::kDomCoresChecked);
}

std::string RefCatalogName(int index) { return "c" + std::to_string(index); }

/// Answers questions with direct library calls on its own interner:
/// DecideRelativeContainment for CONTAINED?, a cache-bypassing Planner for
/// PLAN?. Each call runs under a trace::TraceContext and the answer
/// carries its counters.
class Oracle {
 public:
  explicit Oracle(const Script* script);

  Answer Solve(const Question& question);

  /// A canonical identity for a question: catalog name plus the canonical
  /// fingerprints of its queries (equal ids mean one cache entry).
  std::string CanonicalId(const Question& question);

 private:
  const relcont::MaterializedCatalog& Catalog(int index);
  void MaybeReset();

  const Script* script_;
  std::unique_ptr<relcont::Interner> interner_;
  std::map<int, relcont::MaterializedCatalog> materialized_;
  relcont::ContainmentService reference_;
  relcont::PlannerContext planner_ctx_;
  std::map<int, bool> registered_;
  int decisions_since_reset_ = 0;
};

Oracle::Oracle(const Script* script)
    : script_(script), interner_(std::make_unique<Interner>()) {}

void Oracle::MaybeReset() {
  if (++decisions_since_reset_ < kOracleResetEvery) return;
  decisions_since_reset_ = 0;
  materialized_.clear();
  interner_ = std::make_unique<Interner>();
}

const relcont::MaterializedCatalog& Oracle::Catalog(int index) {
  auto it = materialized_.find(index);
  if (it != materialized_.end()) return it->second;
  const CatalogText& text = script_->catalogs[index];
  relcont::CatalogSpec spec;
  spec.name = text.name;
  spec.views_text = text.ViewsText();
  spec.patterns = text.patterns;
  relcont::Result<relcont::MaterializedCatalog> m =
      relcont::MaterializeCatalog(spec, interner_.get());
  if (!m.ok()) {
    std::fprintf(stderr, "catalog %s does not materialize: %s\n",
                 text.name.c_str(), m.status().ToString().c_str());
    std::exit(1);
  }
  return materialized_.emplace(index, std::move(*m)).first->second;
}

Answer Oracle::Solve(const Question& question) {
  MaybeReset();
  Answer out;
  if (question.verb == Verb::kPlan) {
    if (!registered_[question.catalog]) {
      const CatalogText& text = script_->catalogs[question.catalog];
      relcont::Result<int64_t> version = reference_.catalogs().Register(
          RefCatalogName(question.catalog), text.ViewsText(), text.patterns);
      if (!version.ok()) {
        std::fprintf(stderr, "catalog %s does not register: %s\n",
                     text.name.c_str(), version.status().ToString().c_str());
        std::exit(1);
      }
      registered_[question.catalog] = true;
    }
    relcont::PlanRequest request;
    request.query_text = question.q1;
    request.catalog = RefCatalogName(question.catalog);
    request.bypass_cache = true;
    request.collect_trace = true;
    int64_t before = planner_ctx_.interner()->size();
    relcont::PlanResponse response =
        reference_.planner().Plan(request, &planner_ctx_);
    int64_t after = planner_ctx_.interner()->size();
    // Plan resets the context's arena when it outgrows its cap; the growth
    // is then everything interned since the reset.
    out.symbols = after >= before ? after - before : after;
    out.ok = response.status.ok();
    out.plan_kind = response.recursive ? "recursive" : "ucq";
    out.plan_rules = response.num_rules;
    if (response.trace != nullptr) CopyCounters(*response.trace, &out);
    return out;
  }
  const relcont::MaterializedCatalog& catalog = Catalog(question.catalog);
  int64_t before = interner_->size();
  relcont::Result<relcont::GoalQuery> q1 =
      ParseGoalQuery(question.q1, interner_.get());
  relcont::Result<relcont::GoalQuery> q2 =
      ParseGoalQuery(question.q2, interner_.get());
  if (!q1.ok() || !q2.ok()) return out;
  relcont::Result<relcont::Decision> decision =
      relcont::Status::Internal("not decided");
  relcont::trace::TraceContext trace;
  {
    relcont::trace::TraceScope scope(&trace);
    decision = relcont::DecideRelativeContainment(
        *q1, *q2, catalog.views, catalog.patterns, interner_.get(), {});
  }
  out.symbols = interner_->size() - before;
  out.ok = decision.ok();
  if (!decision.ok()) return out;
  out.contained = decision->contained;
  out.regime = std::string(decision->regime_name());
  CopyCounters(trace, &out);
  return out;
}

std::string Oracle::CanonicalId(const Question& question) {
  MaybeReset();
  std::string id = script_->catalogs[question.catalog].name;
  for (const std::string* text : {&question.q1, &question.q2}) {
    if (text->empty()) continue;
    relcont::Result<relcont::GoalQuery> q =
        ParseGoalQuery(*text, interner_.get());
    id += '\x1f';
    if (q.ok()) {
      id += relcont::CanonicalProgramFingerprint(q->program, q->goal,
                                                 *interner_);
    }
  }
  return id;
}

/// Work caps: a question whose answer interns more symbols than this (or
/// proposes more CEGAR candidates) is redrawn, so no single decision
/// dominates a run. Symbols minted track decision time closely (interning
/// is most of a cold decision); the caps cut the top few percent.
constexpr int64_t kMaxDecisionSymbols = 600;
constexpr int64_t kMaxPlanSymbols = 2000;
constexpr uint64_t kMaxCegarProposals = 200;

/// Incrementally assembles a script, asking the oracle about every new
/// question and rejecting the ones the library cannot answer (a workload
/// on which an operation fails would measure the failure path) or that
/// exceed the work caps.
class Builder {
 public:
  explicit Builder(const std::string& workload) : oracle_(&script_) {
    script_.workload = workload;
  }

  int AddCatalog(CatalogText catalog, bool initial) {
    script_.catalogs.push_back(std::move(catalog));
    int index = static_cast<int>(script_.catalogs.size()) - 1;
    if (initial) script_.initial_catalogs.push_back(index);
    return index;
  }

  /// Adds `question` when the library answers it and (with `unique`) its
  /// canonical identity is new; returns its index or -1.
  int TryAdd(Question question, bool unique) {
    if (unique && !seen_.insert(oracle_.CanonicalId(question)).second) {
      return -1;
    }
    Answer answer = oracle_.Solve(question);
    bool plan = question.verb == Verb::kPlan;
    if (!answer.ok ||
        answer.symbols > (plan ? kMaxPlanSymbols : kMaxDecisionSymbols) ||
        answer.counters[kCegarProposals] > kMaxCegarProposals) {
      return -1;
    }
    script_.questions.push_back(std::move(question));
    script_.answers.push_back(std::move(answer));
    return static_cast<int>(script_.questions.size()) - 1;
  }

  /// Draws `family` pairs against `catalog` from stream `*stream` until one
  /// is accepted.
  int AddPair(Family family, int catalog, uint64_t seed, uint64_t* stream,
              bool unique) {
    for (int attempt = 0;; ++attempt) {
      GiveUpAfter(attempt, FamilyName(family));
      PairText pair = MakePair(family, Mix(seed, (*stream)++));
      Question q{Verb::kContained, pair.q1, pair.q2, catalog,
                 FamilyName(family)};
      int index = TryAdd(std::move(q), unique);
      if (index >= 0) return index;
    }
  }

  int AddPlan(int catalog, int max_length, int relations, uint64_t seed,
              uint64_t* stream, bool unique) {
    const char* family = script_.catalogs[catalog].patterns.empty()
                             ? "plan_ucq"
                             : "plan_recursive";
    for (int attempt = 0;; ++attempt) {
      GiveUpAfter(attempt, family);
      Question q{Verb::kPlan,
                 MakePlanQuery(Mix(seed, (*stream)++), max_length, relations),
                 "", catalog, family};
      int index = TryAdd(std::move(q), unique);
      if (index >= 0) return index;
    }
  }

  /// Stops a draw loop that cannot succeed (an exhausted family or a
  /// generator the library rejects) instead of spinning until the timeout.
  static void GiveUpAfter(int attempt, const char* family) {
    if (attempt < 10000) return;
    std::fprintf(stderr, "no acceptable %s question in %d draws\n", family,
                 attempt);
    std::exit(1);
  }

  /// Stores `text` once and returns its stable address.
  const std::string* Text(const std::string& text) {
    auto [it, inserted] = texts_.emplace(text, nullptr);
    if (inserted) {
      script_.texts.push_back(text);
      it->second = &script_.texts.back();
    }
    return it->second;
  }

  Step Contained(const std::string& a, const std::string& b,
                 const std::string& catalog, int question) {
    return Step{Verb::kContained,
                Text("CONTAINED? " + a + " " + b + " @" + catalog), question,
                -1, nullptr};
  }

  Step Plan(const std::string& q, const std::string& catalog, int question) {
    return Step{Verb::kPlan, Text("PLAN? " + q + " @" + catalog), question,
                -1, nullptr};
  }

  Script& script() { return script_; }
  Script Take() { return std::move(script_); }

 private:
  Script script_;
  Oracle oracle_;
  std::set<std::string> seen_;
  std::unordered_map<std::string, const std::string*> texts_;
};

std::string Define(const std::string& name, const std::string& text) {
  return "DEFINE " + name + " " + text;
}

/// Fisher–Yates with the benchmark's own generator (std::shuffle's
/// algorithm is implementation-defined).
template <typename T>
void Shuffle(std::vector<T>* items, Rng* rng) {
  for (size_t i = items->size(); i > 1; --i) {
    std::swap((*items)[i - 1],
              (*items)[rng->Uniform(0, static_cast<int>(i) - 1)]);
  }
}

const Family kContainedFamilies[] = {
    Family::kSection3,  Family::kSection3Wide, Family::kSection4,
    Family::kTheorem32, Family::kTheorem51,    Family::kTheorem52};

}  // namespace

Script BuildWarmHits(uint64_t seed, int seconds) {
  Builder b("warm_hits");
  constexpr int kCatalogsPerFamily = 4;
  constexpr int kTwins = 4;
  std::map<Family, std::vector<int>> catalogs;
  for (Family f : kContainedFamilies) {
    for (int i = 0; i < kCatalogsPerFamily; ++i) {
      catalogs[f].push_back(b.AddCatalog(MakeCatalog(f, i, seed), true));
    }
  }
  std::vector<int> plan_catalogs;
  for (int i = 0; i < 4; ++i) {
    bool patterns = i < 2;
    std::string name = (patterns ? "pvb_" : "pvu_") + std::to_string(i % 2);
    plan_catalogs.push_back(b.AddCatalog(
        MakePlanCatalog(name, patterns, patterns ? 20 : 8, Mix(seed, 30 + i)),
        true));
  }
  ClientScript client;
  // The pool: 960 pairs, weighted toward the section3 shape, plus 192
  // plan queries; far below the 4096-entry caches.
  const std::pair<Family, int> kWeights[] = {
      {Family::kSection3, 4},  {Family::kSection3Wide, 1},
      {Family::kSection4, 2},  {Family::kTheorem32, 2},
      {Family::kTheorem51, 1}, {Family::kTheorem52, 2}};
  uint64_t stream = 0;
  std::vector<std::pair<int, std::string>> pairs;  // question, catalog name
  for (int round = 0; round < 80; ++round) {
    for (const auto& [family, weight] : kWeights) {
      for (int w = 0; w < weight; ++w) {
        int c = catalogs[family][(round + w) % kCatalogsPerFamily];
        int q = b.AddPair(family, c, seed, &stream, /*unique=*/true);
        pairs.emplace_back(q, b.script().catalogs[c].name);
      }
    }
  }
  std::vector<std::pair<int, std::string>> plans;
  for (int i = 0; i < 192; ++i) {
    int c = plan_catalogs[i % 4];
    bool patterns = !b.script().catalogs[c].patterns.empty();
    int q = b.AddPlan(c, patterns ? 4 : 3, 4, seed, &stream, /*unique=*/true);
    plans.emplace_back(q, b.script().catalogs[c].name);
  }
  const Script& s = b.script();
  for (size_t i = 0; i < pairs.size(); ++i) {
    const Question& q = s.questions[pairs[i].first];
    std::string n = std::to_string(i);
    client.defines.push_back(Define("a" + n, q.q1));
    client.defines.push_back(Define("b" + n, q.q2));
    // α-renamed, rule-shuffled twins: canonical-cache hits with bytes the
    // service has not seen before.
    for (int k = 0; k < kTwins; ++k) {
      client.defines.push_back(
          Define("d" + n + "_" + std::to_string(k),
                 Disguise(q.q1, Mix(seed, 7000 + kTwins * i + k))));
    }
    client.warmup.push_back(
        b.Contained("a" + n, "b" + n, pairs[i].second, pairs[i].first));
  }
  for (size_t k = 0; k < plans.size(); ++k) {
    std::string n = "p" + std::to_string(k);
    client.defines.push_back(Define(n, s.questions[plans[k].first].q1));
    client.warmup.push_back(b.Plan(n, plans[k].second, plans[k].first));
  }
  Rng rng(Mix(seed, 99));
  const int requests = 100000 * seconds;
  for (int r = 0; r < requests; ++r) {
    if (rng.Coin(0.2)) {
      int k = rng.Uniform(0, static_cast<int>(plans.size()) - 1);
      client.steps.push_back(b.Plan("p" + std::to_string(k),
                                      plans[k].second, plans[k].first));
    } else {
      int i = rng.Uniform(0, static_cast<int>(pairs.size()) - 1);
      std::string n = std::to_string(i);
      std::string q1 =
          rng.Coin(0.25)
              ? "d" + n + "_" + std::to_string(rng.Uniform(0, kTwins - 1))
              : "a" + n;
      client.steps.push_back(
          b.Contained(q1, "b" + n, pairs[i].second, pairs[i].first));
    }
  }
  b.script().clients.push_back(std::move(client));
  return b.Take();
}

Script BuildColdMix(uint64_t seed, int seconds) {
  Builder b("cold_mix");
  constexpr int kCatalogsPerFamily = 16;
  std::map<Family, std::vector<int>> catalogs;
  for (Family f : kContainedFamilies) {
    for (int i = 0; i < kCatalogsPerFamily; ++i) {
      catalogs[f].push_back(b.AddCatalog(MakeCatalog(f, i, seed), true));
    }
  }
  std::vector<int> pvb, pvu;
  for (int i = 0; i < kCatalogsPerFamily; ++i) {
    std::string n = std::to_string(i);
    pvb.push_back(b.AddCatalog(
        MakePlanCatalog("pvb_" + n, true, 20, Mix(seed, 40 + i)), true));
    pvu.push_back(b.AddCatalog(
        MakePlanCatalog("pvu_" + n, false, 8, Mix(seed, 60 + i)), true));
  }
  // One block of 20 requests in fixed proportions; the order inside each
  // block is shuffled. -1 / -2 stand for recursive / UCQ plan misses.
  std::vector<int> block;
  const std::pair<int, int> kBlock[] = {
      {static_cast<int>(Family::kSection3), 5},
      {static_cast<int>(Family::kSection3Wide), 1},
      {static_cast<int>(Family::kSection4), 3},
      {static_cast<int>(Family::kTheorem32), 3},
      {static_cast<int>(Family::kTheorem51), 2},
      {static_cast<int>(Family::kTheorem52), 3},
      {-1, 2},
      {-2, 1}};
  for (const auto& [kind, count] : kBlock) {
    for (int i = 0; i < count; ++i) block.push_back(kind);
  }
  ClientScript client;
  Rng rng(Mix(seed, 77));
  uint64_t stream = 0;
  const int blocks = 125 * seconds;
  for (int blk = 0; blk < blocks; ++blk) {
    std::vector<int> order = block;
    Shuffle(&order, &rng);
    for (int kind : order) {
      std::string n = std::to_string(client.steps.size());
      if (kind < 0) {
        int c = kind == -1 ? pvb[rng.Uniform(0, kCatalogsPerFamily - 1)]
                           : pvu[rng.Uniform(0, kCatalogsPerFamily - 1)];
        int q = b.AddPlan(c, kind == -1 ? 4 : 3, 4, seed, &stream, true);
        client.defines.push_back(Define("p" + n, b.script().questions[q].q1));
        client.steps.push_back(
            b.Plan("p" + n, b.script().catalogs[c].name, q));
      } else {
        Family f = static_cast<Family>(kind);
        int c = catalogs[f][rng.Uniform(0, kCatalogsPerFamily - 1)];
        int q = b.AddPair(f, c, seed, &stream, true);
        const Question& question = b.script().questions[q];
        client.defines.push_back(Define("a" + n, question.q1));
        client.defines.push_back(Define("b" + n, question.q2));
        client.steps.push_back(
            b.Contained("a" + n, "b" + n, b.script().catalogs[c].name, q));
      }
    }
  }
  b.script().clients.push_back(std::move(client));
  return b.Take();
}

Script BuildChurnTcp(uint64_t seed, int seconds) {
  Builder b("churn_tcp");
  constexpr int kStaticCatalogs = 4;
  std::vector<int> s3, pvu;
  for (int i = 0; i < kStaticCatalogs; ++i) {
    s3.push_back(b.AddCatalog(MakeCatalog(Family::kSection3, i, seed), true));
    pvu.push_back(b.AddCatalog(
        MakePlanCatalog("pvu_" + std::to_string(i), false, 8,
                        Mix(seed, 30 + i)),
        true));
  }
  constexpr int kClients = 2;
  constexpr int kVariants = 16;
  constexpr int kStaticPairs = 48, kStaticPlans = 12;
  constexpr int kChurnPairs = 20, kChurnPlans = 4;
  // A churn pair is kept only if its decisions intern, on average over the
  // variants, this many symbols. The churn pairs are most of the run's
  // decision work and of the memory the service keeps, and there are only
  // 40 of them; unbounded, their sizes moved rss_peak_mb and p90 by about
  // a third from one seed to the next. The band keeps the middle ~65% of
  // draws.
  constexpr int64_t kChurnPairSymbolsMin = 110, kChurnPairSymbolsMax = 200;
  // Per cycle of 100 reads: every churn pair and churn plan once (each a
  // miss: the write before the cycle rotated its key), the rest static
  // hits. Then one CATALOG write starts the next cycle.
  constexpr int kCycleReads = 100;
  constexpr int kScrapeEvery = 500, kReconnectEvery = 500;
  const int requests = 4000 * seconds;
  uint64_t stream = 0;
  for (int c = 0; c < kClients; ++c) {
    std::string cn = std::to_string(c);
    std::string churn_name = "churn" + cn;
    std::vector<int> variants;
    for (int v = 0; v < kVariants; ++v) {
      CatalogText text =
          MakeCatalog(Family::kSection4, 100 + kVariants * c + v, seed);
      text.name = churn_name;
      variants.push_back(b.AddCatalog(std::move(text), v == 0));
    }
    ClientScript client;
    std::vector<Step> static_reads, churn_reads[kVariants];
    for (int i = 0; i < kStaticPairs; ++i) {
      int cat = s3[i % kStaticCatalogs];
      int q = b.AddPair(Family::kSection3, cat, seed, &stream, true);
      std::string n = std::to_string(i);
      client.defines.push_back(Define("a" + n, b.script().questions[q].q1));
      client.defines.push_back(Define("b" + n, b.script().questions[q].q2));
      static_reads.push_back(
          b.Contained("a" + n, "b" + n, b.script().catalogs[cat].name, q));
    }
    for (int i = 0; i < kStaticPlans; ++i) {
      int cat = pvu[i % kStaticCatalogs];
      int q = b.AddPlan(cat, 3, 4, seed, &stream, true);
      std::string n = "sp" + std::to_string(i);
      client.defines.push_back(Define(n, b.script().questions[q].q1));
      static_reads.push_back(b.Plan(n, b.script().catalogs[cat].name, q));
    }
    // Churn pairs must be answerable under every variant.
    for (int i = 0; i < kChurnPairs; ++i) {
      for (int attempt = 0;; ++attempt) {
        Builder::GiveUpAfter(attempt, "section4");
        PairText pair = MakePair(Family::kSection4, Mix(seed, stream++));
        std::vector<int> qs;
        for (int v : variants) {
          int q = b.TryAdd(Question{Verb::kContained, pair.q1, pair.q2, v,
                                    "section4"},
                           false);
          if (q < 0) break;
          qs.push_back(q);
        }
        if (qs.size() != variants.size()) continue;
        int64_t symbols = 0;
        for (int q : qs) symbols += b.script().answers[q].symbols;
        if (symbols < kChurnPairSymbolsMin * kVariants ||
            symbols > kChurnPairSymbolsMax * kVariants) {
          continue;
        }
        std::string n = std::to_string(i);
        client.defines.push_back(Define("ca" + n, pair.q1));
        client.defines.push_back(Define("cb" + n, pair.q2));
        for (int v = 0; v < kVariants; ++v) {
          churn_reads[v].push_back(
              b.Contained("ca" + n, "cb" + n, churn_name, qs[v]));
        }
        break;
      }
    }
    for (int i = 0; i < kChurnPlans; ++i) {
      for (int attempt = 0;; ++attempt) {
        Builder::GiveUpAfter(attempt, "plan_recursive");
        std::string query = MakePlanQuery(Mix(seed, stream++), 3, 3);
        std::vector<int> qs;
        for (int v : variants) {
          int q = b.TryAdd(
              Question{Verb::kPlan, query, "", v, "plan_recursive"}, false);
          if (q < 0) break;
          qs.push_back(q);
        }
        if (qs.size() != variants.size()) continue;
        std::string n = "cp" + std::to_string(i);
        client.defines.push_back(Define(n, query));
        for (int v = 0; v < kVariants; ++v) {
          churn_reads[v].push_back(b.Plan(n, churn_name, qs[v]));
        }
        break;
      }
    }
    client.warmup = static_reads;
    for (const Step& s : churn_reads[0]) client.warmup.push_back(s);
    Rng rng(Mix(seed, 500 + c));
    int variant = 0, version = 1;
    while (static_cast<int>(client.steps.size()) < requests) {
      std::vector<Step> cycle = churn_reads[variant];
      while (static_cast<int>(cycle.size()) < kCycleReads) {
        cycle.push_back(static_reads[rng.Uniform(
            0, static_cast<int>(static_reads.size()) - 1)]);
      }
      Shuffle(&cycle, &rng);
      for (Step& s : cycle) {
        int n = static_cast<int>(client.steps.size());
        if (n > 0 && n % kScrapeEvery == 0) {
          client.steps.push_back(Step{
              c == 0 ? Verb::kScrapeMetrics : Verb::kScrapeStatusz});
        }
        if (n > 0 && n % kReconnectEvery == 0) {
          client.steps.push_back(Step{Verb::kReconnect});
        }
        client.steps.push_back(std::move(s));
      }
      variant = (variant + 1) % kVariants;
      ++version;
      const CatalogText& next = b.script().catalogs[variants[variant]];
      client.steps.push_back(Step{
          Verb::kCatalog, b.Text(next.ProtocolLine()), -1, variants[variant],
          b.Text("OK catalog " + churn_name + " v" + std::to_string(version) +
                 " views=" + std::to_string(next.views.size()) +
                 " patterns=" + std::to_string(next.patterns.size()))});
    }
    b.script().clients.push_back(std::move(client));
  }
  return b.Take();
}

namespace {

std::vector<std::string> Tokens(const std::string& line) {
  std::vector<std::string> out;
  size_t i = 0;
  while (i < line.size()) {
    size_t j = line.find(' ', i);
    if (j == std::string::npos) j = line.size();
    if (j > i) out.push_back(line.substr(i, j - i));
    i = j + 1;
  }
  return out;
}

std::string Field(const std::vector<std::string>& tokens,
                  const std::string& key) {
  for (const std::string& t : tokens) {
    if (t.rfind(key, 0) == 0) return t.substr(key.size());
  }
  return "";
}

}  // namespace

bool ReplyIsHit(const std::string& first_line) {
  std::vector<std::string> t = Tokens(first_line);
  return std::find(t.begin(), t.end(), "HIT") != t.end();
}

std::string ReplyRegime(const std::string& first_line) {
  std::vector<std::string> t = Tokens(first_line);
  if (t.size() >= 2 && (t[0] == "YES" || t[0] == "NO")) return t[1];
  return "";
}

int ReplyPlanRules(const std::string& first_line) {
  if (first_line.rfind("OK plan ", 0) != 0) return 0;
  return std::atoi(Field(Tokens(first_line), "rules=").c_str());
}

double ReplyLatencyUs(const std::string& first_line) {
  for (const std::string& t : Tokens(first_line)) {
    if (t.size() > 2 && t.compare(t.size() - 2, 2, "us") == 0 &&
        std::isdigit(static_cast<unsigned char>(t[0]))) {
      return std::atof(t.c_str());
    }
  }
  return -1;
}

std::string CheckReply(const Script& script, const Step& step,
                       const std::string& first_line) {
  if (step.verb == Verb::kCatalog) {
    return first_line == *step.expected
               ? ""
               : "expected '" + *step.expected + "', got '" + first_line + "'";
  }
  const Answer& want = script.answers[step.question];
  std::vector<std::string> t = Tokens(first_line);
  if (step.verb == Verb::kContained) {
    std::string verdict = want.contained ? "YES" : "NO";
    if (t.size() >= 2 && t[0] == verdict && t[1] == want.regime) return "";
    return "expected '" + verdict + " " + want.regime + "', got '" +
           first_line + "'";
  }
  if (t.size() >= 2 && t[0] == "OK" && t[1] == "plan" &&
      Field(t, "kind=") == want.plan_kind &&
      Field(t, "rules=") == std::to_string(want.plan_rules)) {
    return "";
  }
  return "expected kind=" + want.plan_kind +
         " rules=" + std::to_string(want.plan_rules) + ", got '" + first_line +
         "'";
}

}  // namespace servebench

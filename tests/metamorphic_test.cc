// Metamorphic invariance sweep: semantics-preserving rewrites of a
// question never change its verdict or its regime.
//
// For seeded (Q1, Q2, V) cases of five regimes (Section 3, Theorem 3.2,
// Section 4, Theorem 5.1 and Theorem 5.2) and of the closed-world refuter
// (Section 6; RELCONT_DIFF_CASES each, default 500) the sweep decides the
// case and then each of its variants:
//
//   * alpha-renaming the variables of Q1, of Q2, or of one view;
//   * reordering the body atoms of Q1, of Q2, or of every view;
//   * reordering the rules of Q1 and Q2, and the views of the catalog.
//
// Every variant must answer with the case's verdict and regime. The
// service's cache rests on a stronger form of the same claim, so the sweep
// also keys every variant the way the service does (QuestionCacheKey over
// the canonical fingerprints and the catalog version) and checks that
// equal keys always carry equal verdicts.
//
// Every failure message carries the seed; replay one case with
//   RELCONT_DIFF_SEED=<seed> ./build/tests/metamorphic_test

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "containment/canonical.h"
#include "datalog/parser.h"
#include "datalog/substitution.h"
#include "relcont/cwa.h"
#include "relcont/decide.h"
#include "relcont/workload.h"
#include "service/catalog.h"
#include "service/request_frame.h"

namespace relcont {
namespace {

int CasesFromEnv() {
  const char* env = std::getenv("RELCONT_DIFF_CASES");
  int cases = env == nullptr ? 0 : std::atoi(env);
  return cases > 0 ? cases : 500;
}

std::string ReplayHint(uint64_t seed) {
  return "replay: RELCONT_DIFF_SEED=" + std::to_string(seed) +
         " ./build/tests/metamorphic_test";
}

void ForEachCase(uint64_t regime_base,
                 const std::function<void(uint64_t)>& run) {
  const char* env = std::getenv("RELCONT_DIFF_SEED");
  if (env != nullptr && *env != '\0') {
    run(std::strtoull(env, nullptr, 10));
    return;
  }
  int cases = CasesFromEnv();
  for (int i = 0; i < cases; ++i) run(regime_base + static_cast<uint64_t>(i));
}

struct Case {
  GoalQuery q1;
  GoalQuery q2;
  ViewSet views;
  BindingPatterns patterns;  // by source name, so every variant keeps them
};

// ---- generators -----------------------------------------------------------

class Gen {
 public:
  explicit Gen(uint64_t seed) : rng_(seed) {}
  int Uniform(int lo, int hi) {  // inclusive
    return lo + static_cast<int>(rng_() % static_cast<uint64_t>(hi - lo + 1));
  }
  bool Coin() { return rng_() % 2 == 0; }

  /// Binary atoms over `preds` and the first `num_vars` of X, Y, Z, W.
  std::vector<std::string> Body(int atoms, const std::vector<std::string>& preds,
                                int num_vars, std::vector<std::string>* vars) {
    static const char* kVars[] = {"X", "Y", "Z", "W"};
    std::vector<std::string> out;
    for (int i = 0; i < atoms; ++i) {
      std::string a = kVars[Uniform(0, num_vars - 1)];
      std::string b = kVars[Uniform(0, num_vars - 1)];
      out.push_back(preds[Uniform(0, static_cast<int>(preds.size()) - 1)] +
                    "(" + a + ", " + b + ")");
      for (const std::string& v : {a, b}) {
        if (std::find(vars->begin(), vars->end(), v) == vars->end()) {
          vars->push_back(v);
        }
      }
    }
    return out;
  }

  /// A semi-interval comparison on one of `vars`.
  std::string Comparison(const std::vector<std::string>& vars) {
    static const char* kOps[] = {"<", "<=", ">", ">="};
    return vars[Uniform(0, static_cast<int>(vars.size()) - 1)] + " " +
           kOps[Uniform(0, 3)] + " " + std::to_string(Uniform(1, 3));
  }

  /// "head(V) :- body[, comparison]." with V drawn from the body.
  std::string Query(const std::string& head, int atoms,
                    const std::vector<std::string>& preds, int num_vars,
                    bool comparison) {
    std::vector<std::string> vars;
    std::vector<std::string> body = Body(atoms, preds, num_vars, &vars);
    if (comparison) body.push_back(Comparison(vars));
    std::string out =
        head + "(" + vars[Uniform(0, static_cast<int>(vars.size()) - 1)] +
        ") :- ";
    for (size_t i = 0; i < body.size(); ++i) {
      out += (i > 0 ? ", " : "") + body[i];
    }
    return out + ".";
  }

 private:
  std::mt19937_64 rng_;
};

GoalQuery MustParseGoal(const std::string& text, const char* goal,
                        Interner* interner) {
  Result<Program> p = ParseProgram(text, interner);
  EXPECT_TRUE(p.ok()) << p.status().ToString() << " for: " << text;
  return GoalQuery{p.ok() ? *p : Program(), interner->Intern(goal)};
}

ViewSet MustParseViews(const std::string& text, Interner* interner) {
  Result<ViewSet> v = ParseViews(text, interner);
  EXPECT_TRUE(v.ok()) << v.status().ToString() << " for: " << text;
  return v.ok() ? *v : ViewSet();
}

Case Section3Case(uint64_t seed, Interner* interner) {
  RandomQueryOptions options;
  options.num_atoms = 2 + static_cast<int>(seed % 2);
  options.num_variables = 3;
  options.num_predicates = 2;
  options.constant_probability = 0.15;
  options.seed = seed;
  Rule r1 = RandomConjunctiveQuery(options, "q1", interner);
  RandomQueryOptions options2 = options;
  options2.seed = seed * 2654435761ULL + 97;
  Rule r2 = RandomConjunctiveQuery(options2, "q2", interner);
  return Case{GoalQuery{Program({r1}), r1.head.predicate},
              GoalQuery{Program({r2}), r2.head.predicate},
              RandomViews(options, 3, interner), {}};
}

/// Q2 is a transitive closure (left or right recursive), Q1 a CQ over the
/// same edge relation: the direction Theorem 3.2 decides exactly.
Case Theorem32Case(uint64_t seed, Interner* interner) {
  Gen gen(seed);
  static const char* kBases[] = {"t(X, Y) :- e(X, Y).",
                                 "t(X, Y) :- e(X, Y), f(Y).",
                                 "t(X, Y) :- e(X, Z), e(Z, Y)."};
  std::string q1 = gen.Query("a", gen.Uniform(1, 3), {"e"}, 3, false);
  std::string q2 = std::string("b(X) :- t(X, Y).\n") +
                   kBases[gen.Uniform(0, 2)] + "\n" +
                   (gen.Coin() ? "t(X, Y) :- e(X, Z), t(Z, Y).\n"
                               : "t(X, Y) :- t(X, Z), e(Z, Y).\n");
  std::string views =
      gen.Coin() ? "e1(X, Y) :- e(X, Y).\n" : "e2(X, Z) :- e(X, Y), e(Y, Z).\n";
  if (gen.Coin()) views += "ef(X, Y) :- e(X, Y), f(Y).\n";
  if (gen.Coin()) views += "src(X) :- e(X, Y).\n";
  if (gen.Coin()) views += "loop(X) :- e(X, X).\n";
  return Case{MustParseGoal(q1, "a", interner),
              MustParseGoal(q2, "b", interner),
              MustParseViews(views, interner), {}};
}

/// Chain queries over a small path-view catalog (MakePathViewWorkload, the
/// Romero–Preda–Suchanek family) whose input-bound views carry a `bf`
/// pattern: Section 4 whenever some view is bound.
Case Section4Case(uint64_t seed, Interner* interner) {
  PathViewOptions options;
  options.num_views = 3 + static_cast<int>(seed % 3);
  options.num_relations = 2;
  options.max_length = 2;
  options.bound_probability = 0.5;
  options.query_length = 1 + static_cast<int>(seed % 2);
  options.seed = seed;
  PathViewWorkload w = MakePathViewWorkload(options);
  options.query_length = 1 + static_cast<int>((seed / 2) % 2);
  options.seed = seed * 2654435761ULL + 97;
  std::string q2 = MakePathViewWorkload(options).query_text;
  CatalogSpec spec;
  spec.views_text = w.views_text;
  spec.patterns = w.patterns;
  Result<MaterializedCatalog> catalog = MaterializeCatalog(spec, interner);
  EXPECT_TRUE(catalog.ok()) << catalog.status().ToString();
  // The generator names both queries q; rename their heads apart.
  return Case{MustParseGoal("qa" + w.query_text.substr(1), "qa", interner),
              MustParseGoal("qb" + q2.substr(1), "qb", interner),
              catalog.ok() ? catalog->views : ViewSet(),
              catalog.ok() ? catalog->patterns : BindingPatterns()};
}

/// The closed-world refuter's case: two unary relations and two views, a
/// vocabulary tiny enough for its doubly exponential search yet one on
/// which about a third of the cases are refuted.
Case CwaCase(uint64_t seed, Interner* interner) {
  RandomQueryOptions options;
  options.num_atoms = 1 + static_cast<int>(seed % 2);
  options.num_variables = 2;
  options.num_predicates = 2;
  options.arity = 1;
  options.constant_probability = 0.0;
  options.head_arity = 1;
  options.seed = seed;
  Rule r1 = RandomConjunctiveQuery(options, "q1", interner);
  RandomQueryOptions options2 = options;
  options2.seed = seed * 2654435761ULL + 97;
  Rule r2 = RandomConjunctiveQuery(options2, "q2", interner);
  return Case{GoalQuery{Program({r1}), r1.head.predicate},
              GoalQuery{Program({r2}), r2.head.predicate},
              RandomViews(options, 2, interner), {}};
}

/// Views and Q2 carry semi-interval comparisons; Q1 does too under
/// Theorem 5.1 and is comparison-free under Theorem 5.2.
Case ComparisonCase(uint64_t seed, bool q1_compares, Interner* interner) {
  Gen gen(seed);
  const std::vector<std::string> preds = {"p0", "p1"};
  std::string views;
  for (int i = 0; i < 3; ++i) {
    std::vector<std::string> vars;
    std::vector<std::string> body = gen.Body(gen.Uniform(1, 2), preds, 3,
                                             &vars);
    if (i < 2) body.push_back(gen.Comparison(vars));
    std::string head = "c" + std::to_string(i) + "(" + vars[0];
    if (vars.size() > 1 && gen.Coin()) head += ", " + vars[1];
    views += head + ") :- ";
    for (size_t j = 0; j < body.size(); ++j) {
      views += (j > 0 ? ", " : "") + body[j];
    }
    views += ".\n";
  }
  std::string q1 = gen.Query("qa", 2, preds, 3, q1_compares);
  std::string q2 = gen.Query("qb", gen.Uniform(1, 2), preds, 3, true);
  return Case{MustParseGoal(q1, "qa", interner),
              MustParseGoal(q2, "qb", interner),
              MustParseViews(views, interner), {}};
}

// ---- rewrites -----------------------------------------------------------

/// Renames every variable V of `rule` to "Alpha<V>".
Rule AlphaRenamed(const Rule& rule, Interner* interner) {
  Substitution renaming;
  for (SymbolId v : rule.Variables()) {
    renaming.Bind(v, Term::Var(interner->Intern("Alpha" +
                                                interner->NameOf(v))));
  }
  return renaming.ApplyOnce(rule);
}

/// A fixed reordering: reversed.
template <typename T>
std::vector<T> Reordered(const std::vector<T>& items) {
  return std::vector<T>(items.rbegin(), items.rend());
}

GoalQuery MapRules(const GoalQuery& q,
                   const std::function<Rule(const Rule&)>& f) {
  GoalQuery out = q;
  for (Rule& r : out.program.rules) r = f(r);
  return out;
}

/// Builds `views` again through ViewSet::Make, so a reordering reorders
/// the compiled catalog too.
ViewSet Remade(std::vector<ViewDefinition> views, Interner* interner) {
  Result<ViewSet> out = ViewSet::Make(std::move(views), interner);
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  return out.ok() ? *out : ViewSet();
}

ViewSet MapViews(const ViewSet& views,
                 const std::function<Rule(const Rule&, size_t)>& f,
                 Interner* interner) {
  std::vector<ViewDefinition> out = views.views();
  for (size_t i = 0; i < out.size(); ++i) out[i].rule = f(out[i].rule, i);
  return Remade(std::move(out), interner);
}

Rule BodyReordered(const Rule& r) {
  Rule out = r;
  out.body = Reordered(r.body);
  return out;
}

/// The case and its variants, each with the catalog version the service
/// would give its views (a changed catalog text is a new version).
struct Variant {
  std::string name;
  Case c;
  int64_t catalog_version;
};

std::vector<Variant> Variants(const Case& base, uint64_t seed,
                              Interner* interner) {
  auto alpha = [interner](const Rule& r) { return AlphaRenamed(r, interner); };
  size_t renamed_view = base.views.empty() ? 0 : seed % base.views.size();
  std::vector<Variant> out;
  out.push_back({"base", base, 1});
  out.push_back({"alpha Q1",
                 {MapRules(base.q1, alpha), base.q2, base.views, base.patterns},
                 1});
  out.push_back({"alpha Q2",
                 {base.q1, MapRules(base.q2, alpha), base.views, base.patterns},
                 1});
  out.push_back({"alpha one view",
                 {base.q1, base.q2,
                  MapViews(base.views,
                           [&](const Rule& r, size_t i) {
                             return i == renamed_view ? alpha(r) : r;
                           },
                           interner),
                  base.patterns},
                 2});
  out.push_back({"reorder Q1 body",
                 {MapRules(base.q1, BodyReordered), base.q2, base.views,
                  base.patterns},
                 1});
  out.push_back({"reorder Q2 body",
                 {base.q1, MapRules(base.q2, BodyReordered), base.views,
                  base.patterns},
                 1});
  out.push_back({"reorder view bodies",
                 {base.q1, base.q2,
                  MapViews(base.views,
                           [](const Rule& r, size_t) {
                             return BodyReordered(r);
                           },
                           interner),
                  base.patterns},
                 3});
  Case rules = base;
  rules.q1.program.rules = Reordered(base.q1.program.rules);
  rules.q2.program.rules = Reordered(base.q2.program.rules);
  out.push_back({"reorder rules", rules, 1});
  out.push_back({"reorder views",
                 {base.q1, base.q2,
                  Remade(Reordered(base.views.views()), interner),
                  base.patterns},
                 4});
  return out;
}

struct Outcome {
  StatusCode code = StatusCode::kOk;
  bool contained = false;
  Regime regime = Regime::kUnknown;
};

struct SweepStats {
  int decided = 0;
  int contained = 0;
  int skipped = 0;
  int shared_keys = 0;  // variants keyed like an earlier variant
  std::map<Regime, int> regimes;
};

/// Decides one variant.
using Decider = std::function<Outcome(const Case&, Interner*)>;

Outcome Decide(const Case& c, Interner* interner) {
  Result<Decision> d = DecideRelativeContainment(c.q1, c.q2, c.views,
                                                 c.patterns, interner);
  Outcome o;
  o.code = d.status().code();
  if (d.ok()) {
    o.contained = d->contained;
    o.regime = d->regime;
  }
  return o;
}

/// The closed-world refuter reads every view as complete. "Contained"
/// means no refutation within its bounds; it has no regime.
Outcome RefuteCwa(const Case& c, Interner* interner) {
  CwaRefuterOptions options;
  options.max_instance_facts = 2;
  options.domain_size = 2;
  Result<std::optional<CwaRefutation>> r =
      RefuteCwaContainment(c.q1, c.q2, c.views, interner, options);
  Outcome o;
  o.code = r.status().code();
  if (r.ok()) o.contained = !r->has_value();
  return o;
}

/// Decides `base` and its variants; every variant must answer like the
/// base, and variants with equal cache keys must answer alike.
void CheckCase(uint64_t seed, const Case& base, const Decider& decide,
               Interner* interner, SweepStats* stats) {
  std::map<std::string, Outcome> by_key;
  std::optional<Outcome> expected;
  for (const Variant& v : Variants(base, seed, interner)) {
    SCOPED_TRACE(v.name + "; " + ReplayHint(seed));
    Outcome o = decide(v.c, interner);
    if (!expected.has_value()) {
      expected = o;
      if (o.code != StatusCode::kOk) {
        ++stats->skipped;  // outside every decidable shape: nothing to vary
        return;
      }
      ++stats->decided;
      stats->contained += o.contained ? 1 : 0;
      ++stats->regimes[o.regime];
    }
    // A budget trip is not an answer; search order may move it.
    if (o.code == StatusCode::kBoundReached) continue;
    EXPECT_EQ(o.code, expected->code);
    EXPECT_EQ(o.contained, expected->contained);
    EXPECT_EQ(o.regime, expected->regime);

    std::string fp1 = CanonicalProgramFingerprint(v.c.q1.program, v.c.q1.goal,
                                                  *interner);
    std::string fp2 = CanonicalProgramFingerprint(v.c.q2.program, v.c.q2.goal,
                                                  *interner);
    std::string_view fingerprints[] = {fp1, fp2};
    std::string key = QuestionCacheKey(ServiceVerb::kContained, "c",
                                       v.catalog_version, fingerprints, {});
    auto [it, inserted] = by_key.emplace(key, o);
    if (!inserted) {
      ++stats->shared_keys;
      EXPECT_EQ(it->second.contained, o.contained) << "equal cache keys";
      EXPECT_EQ(it->second.regime, o.regime) << "equal cache keys";
    }
  }
}

void Sweep(uint64_t base_seed, Regime regime,
           const std::function<Case(uint64_t, Interner*)>& make,
           const Decider& decide = Decide) {
  SweepStats stats;
  ForEachCase(base_seed, [&](uint64_t seed) {
    Interner interner;
    Case c = make(seed, &interner);
    CheckCase(seed, c, decide, &interner, &stats);
  });
  ::testing::Test::RecordProperty("decided", stats.decided);
  ::testing::Test::RecordProperty("contained", stats.contained);
  ::testing::Test::RecordProperty("skipped", stats.skipped);
  ::testing::Test::RecordProperty("shared_keys", stats.shared_keys);
  // The generator must reach the regime it sweeps, not a neighbour.
  EXPECT_GT(stats.regimes[regime], stats.decided / 2)
      << "decided " << stats.decided << ", skipped " << stats.skipped;
}

TEST(MetamorphicTest, Section3VerdictsAreInvariant) {
  Sweep(1'000'000, Regime::kSection3, Section3Case);
}

TEST(MetamorphicTest, Theorem32VerdictsAreInvariant) {
  Sweep(2'000'000, Regime::kTheorem32, Theorem32Case);
}

TEST(MetamorphicTest, Section4VerdictsAreInvariant) {
  Sweep(5'000'000, Regime::kSection4, Section4Case);
}

TEST(MetamorphicTest, CwaRefutationsAreInvariant) {
  Sweep(6'000'000, Regime::kUnknown, CwaCase, RefuteCwa);
}

TEST(MetamorphicTest, Theorem51VerdictsAreInvariant) {
  Sweep(3'000'000, Regime::kTheorem51, [](uint64_t seed, Interner* in) {
    return ComparisonCase(seed, /*q1_compares=*/true, in);
  });
}

TEST(MetamorphicTest, Theorem52VerdictsAreInvariant) {
  Sweep(4'000'000, Regime::kTheorem52, [](uint64_t seed, Interner* in) {
    return ComparisonCase(seed, /*q1_compares=*/false, in);
  });
}

}  // namespace
}  // namespace relcont

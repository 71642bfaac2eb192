// Randomized differential testing of the dense-order engine.
//
// Three fragments, each >= RELCONT_DIFF_CASES seeded random cases
// (default 500; the nightly CI job raises it 10x):
//
//   * Streaming vs oracle: on random comparison networks over <= 6 points,
//     ForEachLinearization (pruned matrix DFS) must yield exactly the
//     linearization set of EnumerateLinearizations (the retained original
//     unpruned subset enumerator), and IsSatisfiable must agree with
//     "the oracle produced at least one linearization".
//   * Entailment vs linearization semantics: Entails(c) must equal "c
//     holds in the realization of every linearization" — the brute-force
//     definition, computed with the oracle enumerator.
//   * Section 5 containment: the streaming CqContainedInUnionComplete
//     verdict must equal a reference verdict computed in-test by the
//     legacy materialize-then-check loop (normalize, fast path, enumerate
//     all linearizations, per-linearization disjunct coverage).
//
// Every failure message carries the seed; replay one case with
//   RELCONT_DIFF_SEED=<seed> ./build/tests/dense_order_differential_test
// and scale the sweep with RELCONT_DIFF_CASES=<n>.

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "constraints/order_constraints.h"
#include "containment/comparison_containment.h"
#include "containment/homomorphism.h"
#include "datalog/substitution.h"
#include "relcont/workload.h"
#include "support/linearization_oracle.h"

namespace relcont {
namespace {

int CasesFromEnv() {
  const char* env = std::getenv("RELCONT_DIFF_CASES");
  if (env == nullptr || *env == '\0') return 500;
  int cases = std::atoi(env);
  return cases > 0 ? cases : 500;
}

std::optional<uint64_t> ReplaySeedFromEnv() {
  const char* env = std::getenv("RELCONT_DIFF_SEED");
  if (env == nullptr || *env == '\0') return std::nullopt;
  return std::strtoull(env, nullptr, 10);
}

std::string ReplayHint(uint64_t seed) {
  return "replay: RELCONT_DIFF_SEED=" + std::to_string(seed) +
         " ./build/tests/dense_order_differential_test";
}

/// Runs `run(seed)` for every seed of the fragment's sweep, or for the one
/// replay seed when RELCONT_DIFF_SEED is set. Bases 4M/4.5M/5M keep these
/// sweeps disjoint from each other and from tests/differential_test.cc
/// (1M/2M/3M), so a replay seed is unambiguous.
void ForEachCase(uint64_t fragment_base,
                 const std::function<void(uint64_t)>& run) {
  if (std::optional<uint64_t> replay = ReplaySeedFromEnv()) {
    run(*replay);
    return;
  }
  int cases = CasesFromEnv();
  for (int i = 0; i < cases; ++i) run(fragment_base + static_cast<uint64_t>(i));
}

/// Deterministic splitmix64 stream; the seed alone regenerates the case.
struct Rng {
  uint64_t state;
  explicit Rng(uint64_t seed) : state(seed) {}
  uint64_t Next() {
    state += 0x9e3779b97f4a7c15ULL;
    uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  int Below(int n) { return static_cast<int>(Next() % n); }
};

const ComparisonOp kOps[] = {ComparisonOp::kLt, ComparisonOp::kLe,
                             ComparisonOp::kEq, ComparisonOp::kNe,
                             ComparisonOp::kGt, ComparisonOp::kGe};

/// A random comparison network over up to `num_vars` variables and up to
/// two small numeric constants. Points stay <= 6 so the materializing
/// oracle is always available as the reference.
struct RandomNetwork {
  OrderConstraints constraints;
  std::vector<Comparison> comparisons;
  std::vector<Term> points;
};

RandomNetwork MakeNetwork(uint64_t seed, Interner* interner) {
  Rng rng(seed);
  RandomNetwork out;
  int num_vars = 2 + rng.Below(3);  // 2..4 variables
  for (int v = 0; v < num_vars; ++v) {
    std::string name = "V" + std::to_string(v);
    out.points.push_back(Term::Var(interner->Intern(name)));
  }
  int num_consts = rng.Below(3);  // 0..2 numeric constants
  for (int k = 0; k < num_consts; ++k) {
    out.points.push_back(Term::Number(Rational(1 + k)));
  }
  for (const Term& t : out.points) {
    Status s = out.constraints.AddPoint(t);
    EXPECT_TRUE(s.ok()) << ReplayHint(seed);
  }
  int num_comparisons = rng.Below(6);  // 0..5 comparisons
  for (int k = 0; k < num_comparisons; ++k) {
    const Term& lhs = out.points[rng.Below(static_cast<int>(out.points.size()))];
    const Term& rhs = out.points[rng.Below(static_cast<int>(out.points.size()))];
    Comparison c(lhs, kOps[rng.Below(6)], rhs);
    out.comparisons.push_back(c);
    Status s = out.constraints.Add(c);
    EXPECT_TRUE(s.ok()) << ReplayHint(seed);
  }
  return out;
}

TEST(DenseOrderDifferentialTest, StreamingMatchesMaterializingOracle) {
  int decided = 0;
  ForEachCase(4'000'000, [&](uint64_t seed) {
    Interner interner;
    RandomNetwork net = MakeNetwork(seed, &interner);

    Result<std::vector<Linearization>> oracle =
        EnumerateLinearizations(net.constraints);
    ASSERT_TRUE(oracle.ok()) << ReplayHint(seed);

    std::vector<Linearization> streamed;
    Status s = net.constraints.ForEachLinearization(
        [&](const Linearization& lin) {
          streamed.push_back(lin);
          return true;
        });
    ASSERT_TRUE(s.ok()) << ReplayHint(seed);

    std::vector<Linearization> expect = *oracle;
    std::sort(expect.begin(), expect.end());
    std::sort(streamed.begin(), streamed.end());
    ASSERT_EQ(streamed, expect) << ReplayHint(seed);
    // No duplicates from either side.
    ASSERT_EQ(std::unique(streamed.begin(), streamed.end()), streamed.end())
        << ReplayHint(seed);
    ASSERT_EQ(net.constraints.IsSatisfiable(), !expect.empty())
        << ReplayHint(seed);
    ++decided;
  });
  RecordProperty("decided", decided);
  EXPECT_GT(decided, 0);
}

TEST(DenseOrderDifferentialTest, EntailmentMatchesLinearizationSemantics) {
  int decided = 0;
  ForEachCase(4'500'000, [&](uint64_t seed) {
    Interner interner;
    RandomNetwork net = MakeNetwork(seed, &interner);
    Rng rng(seed ^ 0xabcdef12345ULL);

    Result<std::vector<Linearization>> oracle =
        EnumerateLinearizations(net.constraints);
    ASSERT_TRUE(oracle.ok()) << ReplayHint(seed);

    // A handful of random claims over the registered points.
    for (int k = 0; k < 8; ++k) {
      const Term& lhs =
          net.points[rng.Below(static_cast<int>(net.points.size()))];
      const Term& rhs =
          net.points[rng.Below(static_cast<int>(net.points.size()))];
      Comparison claim(lhs, kOps[rng.Below(6)], rhs);
      // Same-term claims take Entails' trivial syntactic path (which
      // deliberately ignores ex falso); covered by the unit tests.
      if (claim.lhs == claim.rhs) continue;

      // Brute force: the claim is entailed iff it holds in the
      // realization of every linearization (vacuously for unsat).
      bool expect = true;
      for (const Linearization& lin : *oracle) {
        std::map<Term, Rational> sigma = net.constraints.Realize(lin);
        Rational a = sigma.at(claim.lhs);
        Rational b = sigma.at(claim.rhs);
        bool holds = false;
        switch (claim.op) {
          case ComparisonOp::kLt: holds = a < b; break;
          case ComparisonOp::kLe: holds = a <= b; break;
          case ComparisonOp::kGt: holds = a > b; break;
          case ComparisonOp::kGe: holds = a >= b; break;
          case ComparisonOp::kEq: holds = a == b; break;
          case ComparisonOp::kNe: holds = a != b; break;
        }
        if (!holds) {
          expect = false;
          break;
        }
      }
      ASSERT_EQ(net.constraints.Entails(claim), expect)
          << claim.ToString(interner) << "  " << ReplayHint(seed);
      ++decided;
    }
  });
  RecordProperty("decided", decided);
  EXPECT_GT(decided, 0);
}

// ---------------------------------------------------------------------------
// Section 5 containment: streaming pipeline vs the legacy
// materialize-then-check loop, reimplemented here as the reference.

bool IsNumericTerm(const Term& t) {
  return t.is_constant() && t.value().is_number();
}

// Evaluates a ground-under-sigma comparison (mirror of the production
// helper, kept independent on purpose).
bool HoldsUnder(const Comparison& c, const std::map<Term, Rational>& sigma) {
  auto lookup = [&](const Term& t, Rational* out) {
    if (IsNumericTerm(t)) {
      *out = t.value().number();
      return true;
    }
    auto it = sigma.find(t);
    if (it == sigma.end()) return false;
    *out = it->second;
    return true;
  };
  Rational a, b;
  if (!lookup(c.lhs, &a) || !lookup(c.rhs, &b)) return false;
  switch (c.op) {
    case ComparisonOp::kEq: return a == b;
    case ComparisonOp::kNe: return a != b;
    case ComparisonOp::kLt: return a < b;
    case ComparisonOp::kLe: return a <= b;
    case ComparisonOp::kGt: return a > b;
    case ComparisonOp::kGe: return a >= b;
  }
  return false;
}

// The legacy decision pipeline: normalize both sides, try the sound
// entailment fast path, then MATERIALIZE all linearizations of q1's points
// with the oracle enumerator and check disjunct coverage per linearization.
Result<bool> ReferenceContainedInUnion(const Rule& q1_in,
                                       const UnionQuery& u) {
  RELCONT_ASSIGN_OR_RETURN(std::optional<Rule> q1n,
                           NormalizeComparisons(q1_in));
  if (!q1n.has_value()) return true;
  std::vector<Rule> q2;
  for (const Rule& d : u.disjuncts) {
    RELCONT_ASSIGN_OR_RETURN(std::optional<Rule> dn, NormalizeComparisons(d));
    if (dn.has_value()) q2.push_back(std::move(*dn));
  }
  if (q2.empty()) return false;
  for (const Rule& d : q2) {
    RELCONT_ASSIGN_OR_RETURN(bool fast, CqContainedViaEntailment(*q1n, d));
    if (fast) return true;
  }
  const Rule& q1 = *q1n;
  OrderConstraints c1;
  for (SymbolId v : q1.Variables()) {
    RELCONT_RETURN_NOT_OK(c1.AddPoint(Term::Var(v)));
  }
  auto add_consts = [&](const Rule& r) -> Status {
    for (const Value& v : r.Constants()) {
      if (v.is_number()) {
        RELCONT_RETURN_NOT_OK(c1.AddPoint(Term::Constant(v)));
      }
    }
    return Status::OK();
  };
  RELCONT_RETURN_NOT_OK(add_consts(q1));
  for (const Rule& d : q2) RELCONT_RETURN_NOT_OK(add_consts(d));
  RELCONT_RETURN_NOT_OK(c1.AddAll(q1.comparisons));
  if (!c1.IsSatisfiable()) return true;

  RELCONT_ASSIGN_OR_RETURN(std::vector<Linearization> lins,
                           EnumerateLinearizations(c1));
  for (const Linearization& lin : lins) {
    std::map<Term, Rational> sigma = c1.Realize(lin);
    Substitution rho;
    for (const std::vector<int>& cls : lin) {
      Term rep = c1.points()[cls[0]];
      for (int p : cls) {
        if (IsNumericTerm(c1.points()[p])) rep = c1.points()[p];
      }
      for (int p : cls) {
        const Term& t = c1.points()[p];
        if (t.is_variable() && !(t == rep)) rho.Bind(t.symbol(), rep);
      }
    }
    Rule q1_collapsed = rho.Apply(q1);
    bool covered = false;
    for (const Rule& d : q2) {
      if (d.head.arity() != q1.head.arity()) continue;
      bool found = ForEachContainmentMapping(
          d, q1_collapsed, [&](const Substitution& h) {
            for (const Comparison& c : d.comparisons) {
              if (!HoldsUnder(h.ApplyOnce(c), sigma)) return false;
            }
            return true;
          });
      if (found) {
        covered = true;
        break;
      }
    }
    if (!covered) return false;
  }
  return true;
}

RandomQueryOptions CaseOptions(uint64_t seed) {
  RandomQueryOptions options;
  options.num_atoms = 2 + static_cast<int>(seed % 2);
  options.num_variables = 3;
  options.num_predicates = 2;
  options.arity = 2;
  options.constant_probability = 0.15;
  options.head_arity = 1;
  options.seed = seed;
  return options;
}

// Attaches 0..3 random comparisons over the rule's body variables and
// small numeric constants, keeping the point count tiny.
void AttachComparisons(Rule* q, Rng* rng) {
  std::vector<SymbolId> vars = q->Variables();
  if (vars.empty()) return;
  std::vector<Term> pool;
  for (SymbolId v : vars) pool.push_back(Term::Var(v));
  pool.push_back(Term::Number(Rational(1)));
  pool.push_back(Term::Number(Rational(2)));
  int n = rng->Below(4);
  for (int k = 0; k < n; ++k) {
    const Term& lhs = pool[rng->Below(static_cast<int>(pool.size()))];
    const Term& rhs = pool[rng->Below(static_cast<int>(pool.size()))];
    if (lhs.is_constant() && rhs.is_constant()) continue;
    q->comparisons.push_back(Comparison(lhs, kOps[rng->Below(6)], rhs));
  }
}

TEST(DenseOrderDifferentialTest, ContainmentMatchesLegacyPipeline) {
  int decided = 0;
  int skipped = 0;
  ForEachCase(5'000'000, [&](uint64_t seed) {
    Interner interner;
    Rng rng(seed ^ 0x5eed5eedULL);
    Rule q1 = RandomConjunctiveQuery(CaseOptions(seed), "q", &interner);
    AttachComparisons(&q1, &rng);

    UnionQuery u;
    int disjuncts = 1 + rng.Below(2);
    for (int d = 0; d < disjuncts; ++d) {
      Rule q2 = RandomConjunctiveQuery(CaseOptions(seed * 2 + 1 + d), "q",
                                       &interner);
      AttachComparisons(&q2, &rng);
      u.disjuncts.push_back(std::move(q2));
    }

    Result<bool> streamed = CqContainedInUnionComplete(q1, u);
    Result<bool> reference = ReferenceContainedInUnion(q1, u);
    if (!streamed.ok() || !reference.ok()) {
      // Both pipelines must refuse (e.g. kUnsupported) in lockstep.
      ASSERT_EQ(streamed.ok(), reference.ok())
          << streamed.status().ToString() << " vs "
          << reference.status().ToString() << "  " << ReplayHint(seed);
      ASSERT_EQ(streamed.status().code(), reference.status().code())
          << ReplayHint(seed);
      ++skipped;
      return;
    }
    ASSERT_EQ(*streamed, *reference) << ReplayHint(seed);
    ++decided;
  });
  RecordProperty("decided", decided);
  RecordProperty("skipped", skipped);
  EXPECT_GT(decided, skipped);
}

}  // namespace
}  // namespace relcont

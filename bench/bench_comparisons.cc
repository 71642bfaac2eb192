// Experiment X51 (Section 5, Klug/van der Meyden linearization test):
// before/after benchmark for the bitset dense-order engine. The LEGACY
// pipeline materialized every linearization with the unpruned
// subset-over-remaining enumerator (kept in the library as the test
// oracle, EnumerateLinearizations) and then checked disjunct coverage per
// linearization; the CURRENT pipeline streams linearizations out of the
// closed pair matrix with a pruned DFS (ForEachLinearization) and stops at
// the first uncovered one. Both run here on the same Klug-family
// instances — a mostly-constrained strict chain plus two free variables
// joined by an r(Y, Z) atom, decided against the C <= D / C >= D
// case-split union that forces the linearization path — so the
// speedup_x metric is the before/after ratio on identical verdicts.
//
// Also measures what the legacy cap made impossible: satisfiability,
// entailment, and streamed containment on point sets past the old
// 12-point enumeration limit (the matrix engine is polynomial there).
//
// Writes BENCH_comparisons.json (relcont-bench-v1 schema, see
// bench/harness.h). RELCONT_BENCH_SMOKE=1 shrinks reps to CI scale.
// Standalone (not google-benchmark): old and new loops must interleave in
// one process so allocator and interner drift cancel out.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "harness.h"

#include "constraints/order_constraints.h"
#include "containment/comparison_containment.h"
#include "containment/homomorphism.h"
#include "datalog/parser.h"
#include "datalog/substitution.h"
#include "support/linearization_oracle.h"

namespace relcont {
namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// The Klug-family instance with `points` total order points: a strict
// chain V0 < ... < V{m} threaded through p-atoms, plus free Y, Z in an
// r(Y, Z) atom (points = m + 3). Decided against the case-split union
// q(A) :- p(A, B), r(C, D), C <= D | C >= D: true in every linearization,
// but no single disjunct is entailed, so the fast path fails and the
// verdict rides entirely on the linearization walk.
struct KlugCase {
  Rule q1;
  UnionQuery u;
};

KlugCase MakeKlugCase(int points, Interner* interner) {
  int m = points - 3;  // chain variables V0..Vm
  std::string body = "q(V0) :- ";
  for (int i = 0; i < m; ++i) {
    body += "p(V" + std::to_string(i) + ", V" + std::to_string(i + 1) + "), ";
  }
  body += "r(Y, Z)";
  for (int i = 0; i < m; ++i) {
    body += ", V" + std::to_string(i) + " < V" + std::to_string(i + 1);
  }
  KlugCase out;
  out.q1 = *ParseRule(body + ".", interner);
  out.u.disjuncts.push_back(
      *ParseRule("q(A) :- p(A, B), r(C, D), C <= D.", interner));
  out.u.disjuncts.push_back(
      *ParseRule("q(A) :- p(A, B), r(C, D), C >= D.", interner));
  return out;
}

bool IsNumericTerm(const Term& t) {
  return t.is_constant() && t.value().is_number();
}

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

// The legacy decision loop, verbatim modulo plumbing: materialize every
// linearization with the retained oracle enumerator, then check disjunct
// coverage one linearization at a time. This is the "before" arm.
std::optional<bool> LegacyContainedInUnion(const Rule& q1,
                                           const std::vector<Rule>& q2) {
  OrderConstraints c1;
  for (SymbolId v : q1.Variables()) {
    if (!c1.AddPoint(Term::Var(v)).ok()) return std::nullopt;
  }
  auto add_consts = [&](const Rule& r) {
    for (const Value& v : r.Constants()) {
      if (v.is_number() && !c1.AddPoint(Term::Constant(v)).ok()) return false;
    }
    return true;
  };
  if (!add_consts(q1)) return std::nullopt;
  for (const Rule& d : q2) {
    if (!add_consts(d)) return std::nullopt;
  }
  if (!c1.AddAll(q1.comparisons).ok()) return std::nullopt;
  if (!c1.IsSatisfiable()) return true;
  Result<std::vector<Linearization>> lins = EnumerateLinearizations(c1);
  if (!lins.ok()) return std::nullopt;
  for (const Linearization& lin : *lins) {
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
      if (ForEachContainmentMapping(d, q1_collapsed,
                                    [&](const Substitution& h) {
                                      for (const Comparison& c :
                                           d.comparisons) {
                                        if (!HoldsUnder(h.ApplyOnce(c),
                                                        sigma)) {
                                          return false;
                                        }
                                      }
                                      return true;
                                    })) {
        covered = true;
        break;
      }
    }
    if (!covered) return false;
  }
  return true;
}

// Best-of-reps timing of `op` (which must return true), in ns per call.
template <typename Fn>
double BestNsPerOp(int reps, int iters, const Fn& op) {
  uint64_t best = UINT64_MAX;
  for (int rep = 0; rep < reps; ++rep) {
    uint64_t start = NowNs();
    for (int i = 0; i < iters; ++i) {
      if (!op()) return -1;
    }
    uint64_t ns = NowNs() - start;
    if (ns < best) best = ns;
  }
  return static_cast<double>(best) / iters;
}

int Main() {
  const int reps = bench::ScaleIterations(7, 3);
  std::vector<bench::Metric> metrics;

  // ---- Klug family at 10 and 12 points: new streaming vs legacy loop.
  for (int points : {10, 12}) {
    Interner interner;
    KlugCase kc = MakeKlugCase(points, &interner);
    std::vector<Rule> disjuncts = kc.u.disjuncts;

    // Verdict agreement before timing anything.
    Result<bool> check_new = CqContainedInUnionComplete(kc.q1, kc.u);
    std::optional<bool> check_old = LegacyContainedInUnion(kc.q1, disjuncts);
    if (!check_new.ok() || !check_old.has_value() || *check_new != *check_old ||
        !*check_new) {
      std::fprintf(stderr, "klug%d verdict mismatch\n", points);
      return 1;
    }

    const int iters = bench::ScaleIterations(points >= 12 ? 20 : 50, 3);
    double new_ns = BestNsPerOp(reps, iters, [&] {
      Result<bool> r = CqContainedInUnionComplete(kc.q1, kc.u);
      return r.ok() && *r;
    });
    double old_ns = BestNsPerOp(reps, iters, [&] {
      std::optional<bool> r = LegacyContainedInUnion(kc.q1, disjuncts);
      return r.has_value() && *r;
    });
    if (new_ns < 0 || old_ns < 0) {
      std::fprintf(stderr, "klug%d timing failed\n", points);
      return 1;
    }
    double speedup = old_ns / new_ns;
    std::printf("klug%-2d: new %.1f us, old %.1f us, speedup %.1fx\n", points,
                new_ns / 1e3, old_ns / 1e3, speedup);
    std::string prefix = "klug" + std::to_string(points);
    metrics.push_back({prefix + "_new_us", new_ns / 1e3, "us", false});
    metrics.push_back({prefix + "_old_us", old_ns / 1e3, "us", false});
    metrics.push_back({prefix + "_speedup_x", speedup, "x", true});
  }

  // ---- Past the old cap: sat/entailment at 24 points, streamed
  // containment at 22 points. The legacy enumerator refuses all of these
  // (kBoundReached at 13+ points); the matrix engine must not.
  {
    Interner interner;
    OrderConstraints chain;
    std::vector<Comparison> claims;
    for (int i = 0; i < 23; ++i) {
      Term a = Term::Var(interner.Intern("W" + std::to_string(i)));
      Term b = Term::Var(interner.Intern("W" + std::to_string(i + 1)));
      if (!chain.Add(Comparison(a, ComparisonOp::kLt, b)).ok()) return 1;
    }
    Term first = Term::Var(interner.Intern("W0"));
    Term last = Term::Var(interner.Intern("W23"));
    claims.push_back(Comparison(first, ComparisonOp::kLt, last));
    claims.push_back(Comparison(last, ComparisonOp::kGe, first));
    claims.push_back(Comparison(first, ComparisonOp::kNe, last));
    if (!chain.IsSatisfiable() || !chain.EntailsAll(claims) ||
        chain.Entails(Comparison(last, ComparisonOp::kLe, first))) {
      std::fprintf(stderr, "24-point chain verdicts wrong\n");
      return 1;
    }
    const int iters = bench::ScaleIterations(200, 20);
    double sat_entail_ns = BestNsPerOp(reps, iters, [&] {
      // Fresh constraint set per op: the closure cache would otherwise
      // reduce repeat calls to a consistency-flag read.
      OrderConstraints c;
      for (int i = 0; i < 23; ++i) {
        Term a = Term::Var(interner.Intern("W" + std::to_string(i)));
        Term b = Term::Var(interner.Intern("W" + std::to_string(i + 1)));
        if (!c.Add(Comparison(a, ComparisonOp::kLt, b)).ok()) return false;
      }
      return c.IsSatisfiable() && c.EntailsAll(claims);
    });
    if (sat_entail_ns < 0) return 1;
    std::printf("24-point sat+entail: %.1f us\n", sat_entail_ns / 1e3);
    metrics.push_back(
        {"points24_sat_entail_us", sat_entail_ns / 1e3, "us", false});
  }
  {
    Interner interner;
    KlugCase kc = MakeKlugCase(22, &interner);
    Result<bool> check = CqContainedInUnionComplete(kc.q1, kc.u);
    if (!check.ok() || !*check) {
      std::fprintf(stderr, "22-point containment: %s\n",
                   check.ok() ? "wrong verdict" : check.status().ToString().c_str());
      return 1;
    }
    const int iters = bench::ScaleIterations(10, 2);
    double ns = BestNsPerOp(reps, iters, [&] {
      Result<bool> r = CqContainedInUnionComplete(kc.q1, kc.u);
      return r.ok() && *r;
    });
    if (ns < 0) return 1;
    std::printf("22-point streamed containment: %.1f us\n", ns / 1e3);
    metrics.push_back({"points22_containment_us", ns / 1e3, "us", false});
    // 1.0 = no kBoundReached past the old cap (the acceptance criterion);
    // the early exits above make this constitutive, not decorative.
    metrics.push_back({"points_beyond_cap_ok", 1.0, "bool", true});
  }

  // ---- The semi-interval fast path (Theorem 5.1) must not have
  // regressed: entailment now rides the refutation closure.
  {
    Interner interner;
    int n = 6;
    std::string body1 = "q(X0) :- ", body2 = "q(X0) :- ";
    for (int i = 0; i < n; ++i) {
      std::string v = "X" + std::to_string(i);
      if (i > 0) {
        body1 += ", ";
        body2 += ", ";
      }
      std::string atom = "p(" + v + ", X" + std::to_string((i + 1) % n) + ")";
      body1 += atom + ", " + v + " < 5";
      body2 += atom + ", " + v + " < 10";
    }
    Rule q1 = *ParseRule(body1 + ".", &interner);
    Rule q2 = *ParseRule(body2 + ".", &interner);
    Result<bool> check = CqContainedViaEntailment(q1, q2);
    if (!check.ok() || !*check) {
      std::fprintf(stderr, "semi-interval fast path verdict wrong\n");
      return 1;
    }
    const int iters = bench::ScaleIterations(300, 30);
    double ns = BestNsPerOp(reps, iters, [&] {
      Result<bool> r = CqContainedViaEntailment(q1, q2);
      return r.ok() && *r;
    });
    if (ns < 0) return 1;
    std::printf("semi-interval fast path (6 vars): %.1f us\n", ns / 1e3);
    metrics.push_back({"semi_interval_entail_us", ns / 1e3, "us", false});
  }

  return bench::WriteBenchJson("BENCH_comparisons.json", "comparisons",
                               metrics)
             ? 0
             : 1;
}

}  // namespace
}  // namespace relcont

int main() { return relcont::Main(); }

// Randomized differential testing of the resolution driver
// (datalog/unfold.h) against the copy-per-step reference unfolder
// (tests/support/reference_unfold.h).
//
// Five fragments, each RELCONT_DIFF_CASES seeded random cases (default
// 500; the nightly CI job raises it 10x):
//
//   * random nonrecursive programs, unfolded from their goal;
//   * random nonrecursive programs with comparisons;
//   * UnfoldRules over random root rules;
//   * inverse-rule plans over random catalogs (Skolem terms appear): the
//     raw unfolding, UnionPlan and ExpandUnionPlan;
//   * random, possibly recursive programs under max_rule_applications
//     cut-offs, step budgets and a visitor that stops the run.
//
// Each case is built twice, into two interners, from its seed; the driver
// runs in one and the reference in the other. The leaf sequences (as
// text), the interner growth (fresh ids minted) and the UnfoldRun
// (complete, resolutions) must be equal.
//
// Every failure message carries the seed; replay one case with
//   RELCONT_DIFF_SEED=<seed> ./build/tests/unfold_differential_test
// and scale the sweep with RELCONT_DIFF_CASES=<n>.

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <optional>
#include <random>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/budget.h"
#include "datalog/parser.h"
#include "datalog/unfold.h"
#include "relcont/workload.h"
#include "rewriting/inverse_rules.h"
#include "support/reference_unfold.h"

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
         " ./build/tests/unfold_differential_test";
}

/// Runs `run(seed)` for every seed of the fragment's sweep, or for the one
/// replay seed when RELCONT_DIFF_SEED is set.
void ForEachCase(uint64_t fragment_base,
                 const std::function<void(uint64_t)>& run) {
  if (std::optional<uint64_t> replay = ReplaySeedFromEnv()) {
    run(*replay);
    return;
  }
  int cases = CasesFromEnv();
  for (int i = 0; i < cases; ++i) run(fragment_base + static_cast<uint64_t>(i));
}

struct ProgramShape {
  bool comparisons = false;
  /// A rule may use its own predicate and those above it.
  bool recursive = false;
};

/// Random program text: IDB predicates q (the goal), i1, i2, ... in
/// levels, each defined by 1-3 rules whose bodies mix the EDB predicates
/// e0/e1 with IDB predicates of deeper levels (or any level, when
/// recursive). Heads repeat variables and hold constants now and then, so
/// unification binds chains and clashes.
std::string RandomProgramText(std::mt19937_64& rng, const ProgramShape& shape) {
  auto pick = [&rng](int n) {
    return static_cast<int>(rng() % static_cast<uint64_t>(n));
  };
  const int levels = 2 + pick(3);
  std::vector<std::string> names = {"q"};
  std::vector<int> arity = {1 + pick(2)};
  for (int i = 1; i < levels; ++i) {
    names.push_back("i" + std::to_string(i));
    arity.push_back(1 + pick(2));
  }
  auto term = [&](int pool) -> std::string {
    if (pick(8) == 0) return std::to_string(pick(2));
    return "X" + std::to_string(pick(pool));
  };
  std::string out;
  for (int p = 0; p < levels; ++p) {
    const int rules = 1 + pick(3);
    for (int r = 0; r < rules; ++r) {
      const int pool = 2 + pick(3);
      std::vector<std::string> body;
      std::vector<std::string> body_vars;
      const int atoms = 1 + pick(3);
      for (int a = 0; a < atoms; ++a) {
        int callee = -1;
        if (pick(2) == 0) {
          const int lo = shape.recursive ? 0 : p + 1;
          if (lo < levels) callee = lo + pick(levels - lo);
        }
        const std::string name =
            callee < 0 ? "e" + std::to_string(pick(2)) : names[callee];
        const int n = callee < 0 ? 2 : arity[callee];
        std::string atom = name + "(";
        for (int k = 0; k < n; ++k) {
          std::string t = term(pool);
          if (t[0] == 'X') body_vars.push_back(t);
          atom += (k > 0 ? ", " : "") + t;
        }
        body.push_back(atom + ")");
      }
      std::string head = names[p] + "(";
      for (int k = 0; k < arity[p]; ++k) {
        std::string t = body_vars.empty() || pick(6) == 0
                            ? std::to_string(pick(2))
                            : body_vars[pick(static_cast<int>(
                                  body_vars.size()))];
        head += (k > 0 ? ", " : "") + t;
      }
      std::string rule = head + ") :- ";
      for (size_t a = 0; a < body.size(); ++a) {
        rule += (a > 0 ? ", " : "") + body[a];
      }
      if (shape.comparisons && !body_vars.empty() && pick(2) == 0) {
        static const char* kOps[] = {"<", "<=", "!=", ">"};
        const std::string lhs =
            body_vars[pick(static_cast<int>(body_vars.size()))];
        const std::string rhs =
            pick(2) == 0 ? std::to_string(pick(3))
                         : body_vars[pick(static_cast<int>(body_vars.size()))];
        rule += ", " + lhs + " " + kOps[pick(4)] + " " + rhs;
      }
      out += rule + ".\n";
    }
  }
  return out;
}

/// What one unfolder did: its leaves as text, the ids it minted and its run.
struct Trace {
  std::vector<std::string> leaves;
  int64_t minted = 0;
  UnfoldRun run;
};

void ExpectSameTrace(const Trace& driver, const Trace& reference,
                     uint64_t seed, const std::string& context) {
  EXPECT_EQ(driver.leaves, reference.leaves) << context << ReplayHint(seed);
  EXPECT_EQ(driver.minted, reference.minted) << context << ReplayHint(seed);
  EXPECT_EQ(driver.run.complete, reference.run.complete)
      << context << ReplayHint(seed);
  EXPECT_EQ(driver.run.resolutions, reference.run.resolutions)
      << context << ReplayHint(seed);
}

/// How a case's run is bounded: the visitor stops after `stop_after`
/// leaves (0: never), and a step budget of `max_steps` (0: none) is
/// installed around the run.
struct RunBounds {
  UnfoldLimits limits;
  int stop_after = 0;
  int64_t max_steps = 0;
};

/// The driver's leaf visitor: records the built leaf and checks that the
/// leaf's function-term tests agree with the built rule.
UnfoldVisitor DriverVisitor(const Interner& interner, const RunBounds& bounds,
                            Trace* trace, uint64_t seed) {
  return [&interner, &bounds, trace, seed](const UnfoldLeaf& leaf) {
    Rule built = leaf.Build();
    EXPECT_EQ(leaf.HasFunctionTerm(), built.HasFunctionTerm())
        << ReplayHint(seed);
    const bool atoms = built.head.HasFunctionTerm() ||
                       std::ranges::any_of(built.body, &Atom::HasFunctionTerm);
    EXPECT_EQ(leaf.AtomsHaveFunctionTerm(), atoms) << ReplayHint(seed);
    trace->leaves.push_back(built.ToString(interner));
    return bounds.stop_after == 0 ||
           static_cast<int>(trace->leaves.size()) < bounds.stop_after;
  };
}

ReferenceVisitor RefVisitor(const Interner& interner, const RunBounds& bounds,
                            Trace* trace) {
  return [&interner, &bounds, trace](Rule&& rule) {
    trace->leaves.push_back(rule.ToString(interner));
    return bounds.stop_after == 0 ||
           static_cast<int>(trace->leaves.size()) < bounds.stop_after;
  };
}

/// Runs `body` under the bounds' step budget, recording the ids minted.
Trace Traced(Interner* interner, const RunBounds& bounds,
             const std::function<UnfoldRun(Trace*)>& body) {
  WorkBudget budget;
  if (bounds.max_steps > 0) budget.set_max_steps(bounds.max_steps);
  BudgetScope scope(&budget);
  Trace trace;
  const int64_t before = interner->size();
  trace.run = body(&trace);
  trace.minted = interner->size() - before;
  return trace;
}

/// Unfolds `program_text` from `q`, or from `roots_text` through
/// UnfoldRules when that is non-empty, in both unfolders; returns the
/// driver's trace.
Trace CompareOnProgram(const std::string& program_text,
                      const std::string& roots_text, const RunBounds& bounds,
                      uint64_t seed) {
  const std::string context = program_text + "roots:\n" + roots_text;
  Interner a, b;
  Result<Program> pa = ParseProgram(program_text, &a);
  Result<Program> pb = ParseProgram(program_text, &b);
  EXPECT_TRUE(pa.ok() && pb.ok()) << pa.status().ToString() << "\n"
                                  << context << ReplayHint(seed);
  if (!pa.ok() || !pb.ok()) return {};
  Program ra, rb;
  if (!roots_text.empty()) {
    Result<Program> parsed_a = ParseProgram(roots_text, &a);
    Result<Program> parsed_b = ParseProgram(roots_text, &b);
    EXPECT_TRUE(parsed_a.ok() && parsed_b.ok()) << context << ReplayHint(seed);
    if (!parsed_a.ok() || !parsed_b.ok()) return {};
    ra = *parsed_a;
    rb = *parsed_b;
  }
  Resolver resolver_a(pa->rules), resolver_b(pb->rules);
  Trace driver = Traced(&a, bounds, [&](Trace* t) {
    UnfoldVisitor visit = DriverVisitor(a, bounds, t, seed);
    return roots_text.empty()
               ? Unfold(resolver_a, a.Intern("q"), &a, bounds.limits, visit)
               : UnfoldRules(resolver_a, ra.rules, &a, bounds.limits, visit);
  });
  Trace reference = Traced(&b, bounds, [&](Trace* t) {
    ReferenceVisitor visit = RefVisitor(b, bounds, t);
    return roots_text.empty()
               ? ReferenceUnfold(resolver_b, b.Intern("q"), &b, bounds.limits,
                                 visit)
               : ReferenceUnfoldRules(resolver_b, rb.rules, &b, bounds.limits,
                                      visit);
  });
  ExpectSameTrace(driver, reference, seed, context);
  return driver;
}

/// What a fragment's sweep reached, so that a generator change that stops
/// exercising the driver fails loudly.
struct Reached {
  size_t leaves = 0;
  int incomplete = 0;

  void Add(const Trace& t) {
    leaves += t.leaves.size();
    if (!t.run.complete) ++incomplete;
  }
};

TEST(UnfoldDifferentialTest, NonrecursiveProgramsMatchReference) {
  Reached reached;
  ForEachCase(0, [&](uint64_t seed) {
    std::mt19937_64 rng(seed);
    reached.Add(
        CompareOnProgram(RandomProgramText(rng, {}), "", RunBounds{}, seed));
  });
  EXPECT_GT(reached.leaves, 0u);
}

TEST(UnfoldDifferentialTest, ComparisonsMatchReference) {
  Reached reached;
  ForEachCase(100000, [&](uint64_t seed) {
    std::mt19937_64 rng(seed);
    ProgramShape shape;
    shape.comparisons = true;
    reached.Add(CompareOnProgram(RandomProgramText(rng, shape), "",
                                 RunBounds{}, seed));
  });
  EXPECT_GT(reached.leaves, 0u);
}

TEST(UnfoldDifferentialTest, UnfoldRulesRootsMatchReference) {
  Reached reached;
  ForEachCase(200000, [&](uint64_t seed) {
    std::mt19937_64 rng(seed);
    ProgramShape shape;
    shape.comparisons = seed % 2 == 0;
    const std::string program = RandomProgramText(rng, shape);
    // Roots: another program's rules, renamed so their heads define
    // nothing the resolver reads, and their bodies call the first one.
    std::string roots = RandomProgramText(rng, shape);
    for (size_t at = 0; (at = roots.find("q(", at)) != std::string::npos;) {
      if (at == 0 || roots[at - 1] == '\n') roots.replace(at, 1, "r");
      at += 2;
    }
    for (const char* idb : {"i1(", "i2(", "i3("}) {
      for (size_t at = 0; (at = roots.find(idb, at)) != std::string::npos;) {
        if (at == 0 || roots[at - 1] == '\n') roots.replace(at, 1, "j");
        at += 3;
      }
    }
    RunBounds bounds;
    bounds.limits.charge_budget = seed % 3 != 0;
    reached.Add(CompareOnProgram(program, roots, bounds, seed));
  });
  EXPECT_GT(reached.leaves, 0u);
}

TEST(UnfoldDifferentialTest, CutOffsAndStopsMatchReference) {
  Reached reached;
  ForEachCase(300000, [&](uint64_t seed) {
    std::mt19937_64 rng(seed);
    ProgramShape shape;
    shape.recursive = true;
    shape.comparisons = seed % 4 == 0;
    RunBounds bounds;
    bounds.limits.max_rule_applications = 1 + static_cast<int>(seed % 5);
    bounds.stop_after = static_cast<int>(seed % 7);
    if (seed % 3 == 0) bounds.max_steps = 3 + static_cast<int64_t>(seed % 40);
    reached.Add(
        CompareOnProgram(RandomProgramText(rng, shape), "", bounds, seed));
  });
  EXPECT_GT(reached.leaves, 0u);
  if (!ReplaySeedFromEnv()) EXPECT_GT(reached.incomplete, 0);
}

/// The plan fragment's case: a random query and a random catalog of
/// projection views (whose inverse rules carry Skolem terms), built into
/// `interner`.
struct PlanCase {
  Program query;
  SymbolId goal;
  ViewSet views;
};

PlanCase MakePlanCase(uint64_t seed, Interner* interner) {
  RandomQueryOptions options;
  options.num_atoms = 1 + static_cast<int>(seed % 3);
  options.num_variables = 3;
  options.num_predicates = 2;
  options.arity = 2;
  options.constant_probability = 0.1;
  options.head_arity = 1 + static_cast<int>(seed % 2);
  options.seed = seed;
  Rule q = RandomConjunctiveQuery(options, "q", interner);
  ViewSet views =
      RandomViews(options, 2 + static_cast<int>(seed % 4), interner);
  return PlanCase{Program({q}), q.head.predicate, std::move(views)};
}

std::vector<std::string> Lines(const UnionQuery& u, const Interner& interner) {
  std::vector<std::string> out;
  for (const Rule& d : u.disjuncts) out.push_back(d.ToString(interner));
  return out;
}

/// The reference UnionPlan: every disjunct built, then those holding a
/// function term or a mediated atom no source covers dropped.
UnionQuery ReferenceUnionPlan(const PlanCase& c, Interner* interner) {
  Resolver resolver = PlanResolver(c.query, c.views);
  UnionQuery out;
  ReferenceUnfold(resolver, c.goal, interner, {}, [&](Rule&& d) {
    if (d.HasFunctionTerm()) return true;
    for (const Atom& a : d.body) {
      if (c.views.SourcePredicates().count(a.predicate) == 0) return true;
    }
    out.disjuncts.push_back(std::move(d));
    return true;
  });
  return out;
}

TEST(UnfoldDifferentialTest, InverseRulePlansMatchReference) {
  int skolem_leaves = 0;
  ForEachCase(400000, [&](uint64_t seed) {
    Interner a, b;
    PlanCase ca = MakePlanCase(seed, &a);
    PlanCase cb = MakePlanCase(seed, &b);
    if (ca.views.empty()) return;
    const std::string context = ca.query.ToString(a);
    const RunBounds bounds;

    // The raw unfolding, Skolem-laden leaves included.
    Resolver resolver_a = PlanResolver(ca.query, ca.views);
    Resolver resolver_b = PlanResolver(cb.query, cb.views);
    Trace driver = Traced(&a, bounds, [&](Trace* t) {
      return Unfold(resolver_a, ca.goal, &a, {},
                    [&](const UnfoldLeaf& leaf) {
                      if (leaf.HasFunctionTerm()) ++skolem_leaves;
                      return DriverVisitor(a, bounds, t, seed)(leaf);
                    });
    });
    Trace reference = Traced(&b, bounds, [&](Trace* t) {
      return ReferenceUnfold(resolver_b, cb.goal, &b, {},
                             RefVisitor(b, bounds, t));
    });
    ExpectSameTrace(driver, reference, seed, context);

    // UnionPlan, and the expansion of the plan it returns.
    Result<UnionQuery> plan_a = UnionPlan(ca.query, ca.goal, ca.views, &a);
    ASSERT_TRUE(plan_a.ok()) << plan_a.status().ToString() << ReplayHint(seed);
    UnionQuery plan_b = ReferenceUnionPlan(cb, &b);
    EXPECT_EQ(Lines(*plan_a, a), Lines(plan_b, b)) << context
                                                   << ReplayHint(seed);
    EXPECT_EQ(a.size(), b.size()) << context << ReplayHint(seed);

    Result<UnionQuery> expanded_a = ExpandUnionPlan(*plan_a, ca.views, &a);
    ASSERT_TRUE(expanded_a.ok()) << ReplayHint(seed);
    std::vector<std::string> expanded_b;
    if (!plan_b.disjuncts.empty()) {
      Resolver views_b(plan_b.disjuncts,
                       [&cb](SymbolId p) -> std::span<const NumberedRule> {
                         int i = cb.views.IndexOf(p);
                         if (i < 0) return {};
                         return {&cb.views.NumberedView(i), 1};
                       });
      ReferenceUnfold(views_b, plan_b.disjuncts[0].head.predicate, &b, {},
                      [&](Rule&& d) {
                        expanded_b.push_back(d.ToString(b));
                        return true;
                      });
    }
    EXPECT_EQ(Lines(*expanded_a, a), expanded_b) << context
                                                 << ReplayHint(seed);
    EXPECT_EQ(a.size(), b.size()) << context << ReplayHint(seed);
  });
  // The fragment is only meaningful if Skolem terms do reach the leaves.
  if (!ReplaySeedFromEnv()) EXPECT_GT(skolem_leaves, 0);
}

}  // namespace
}  // namespace relcont

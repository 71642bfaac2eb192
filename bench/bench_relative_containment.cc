// Experiment X31 (Theorem 3.1): relative containment for positive queries
// and conjunctive views. The procedure builds both maximally-contained
// plans, unfolds them to UCQs over the sources, and compares. Cost drivers:
// the number of views matching each subgoal (plan width — exponential in
// query size in the worst case) and the per-disjunct NP containment check.

#include <benchmark/benchmark.h>

#include "relcont/gav.h"
#include "relcont/pi2p_reduction.h"
#include "relcont/relative_containment.h"
#include "relcont/workload.h"
#include "rewriting/bucket.h"
#include "rewriting/inverse_rules.h"

namespace relcont {
namespace {

void BM_Relative_SweepViews(benchmark::State& state) {
  int num_views = static_cast<int>(state.range(0));
  Interner interner;
  RandomQueryOptions opts;
  opts.num_atoms = 3;
  opts.num_variables = 4;
  opts.num_predicates = 2;
  opts.constant_probability = 0.0;
  opts.head_arity = 1;
  opts.seed = 31337;
  ViewSet views = RandomViews(opts, num_views, &interner);
  GoalQuery a{Program({RandomConjunctiveQuery(opts, "ga", &interner)}),
              interner.Lookup("ga")};
  opts.seed = 31338;
  GoalQuery b{Program({RandomConjunctiveQuery(opts, "gb", &interner)}),
              interner.Lookup("gb")};
  int64_t plan1 = 0;
  for (auto _ : state) {
    Result<RelativeContainmentResult> r =
        RelativelyContained(a, b, views, &interner);
    if (!r.ok()) {
      state.SkipWithError("failed");
      return;
    }
    plan1 = static_cast<int64_t>(r->plan1.disjuncts.size());
  }
  state.counters["views"] = num_views;
  state.counters["plan1_disjuncts"] = static_cast<double>(plan1);
}
BENCHMARK(BM_Relative_SweepViews)->DenseRange(1, 9, 2);

// Sweep the query size: the unfolded plan is exponential in the number of
// subgoals when several views cover each relation.
void BM_Relative_SweepQueryAtoms(benchmark::State& state) {
  int atoms = static_cast<int>(state.range(0));
  Interner interner;
  RandomQueryOptions opts;
  opts.num_atoms = atoms;
  opts.num_variables = atoms + 1;
  opts.num_predicates = 2;
  opts.constant_probability = 0.0;
  opts.head_arity = 1;
  opts.seed = 4242;
  ViewSet views = RandomViews(opts, 4, &interner);
  GoalQuery a{Program({RandomConjunctiveQuery(opts, "ga", &interner)}),
              interner.Lookup("ga")};
  opts.seed = 4243;
  GoalQuery b{Program({RandomConjunctiveQuery(opts, "gb", &interner)}),
              interner.Lookup("gb")};
  for (auto _ : state) {
    Result<RelativeContainmentResult> r =
        RelativelyContained(a, b, views, &interner);
    if (!r.ok()) {
      state.SkipWithError("failed");
      return;
    }
  }
  state.counters["atoms"] = atoms;
}
BENCHMARK(BM_Relative_SweepQueryAtoms)->DenseRange(1, 6);

// Chain queries over chain-fragment views: a structured (non-random)
// family where plan width is controlled exactly by the overlap count.
void BM_Relative_ChainsOverFragmentViews(benchmark::State& state) {
  int length = static_cast<int>(state.range(0));
  Interner interner;
  // Views exporting every single edge and every 2-edge path.
  ViewSet views;
  {
    Result<ViewSet> parsed = ParseViews(
        "edge1(X, Y) :- e(X, Y).\n"
        "path2(X, Z) :- e(X, Y), e(Y, Z).\n",
        &interner);
    views = *parsed;
  }
  GoalQuery longer{Program({ChainQuery(length, "ga", "e", &interner)}),
                   interner.Lookup("ga")};
  GoalQuery shorter{Program({ChainQuery(length, "gb", "e", &interner)}),
                    interner.Lookup("gb")};
  for (auto _ : state) {
    Result<RelativeContainmentResult> r =
        RelativelyContained(longer, shorter, views, &interner);
    if (!r.ok() || !r->contained) {
      state.SkipWithError("wrong answer");
      return;
    }
  }
  state.counters["chain"] = length;
}
BENCHMARK(BM_Relative_ChainsOverFragmentViews)->DenseRange(2, 8, 2);

// The two independent AQUV pipelines on identical inputs: inverse rules
// (unfold + function-term elimination) vs the bucket algorithm (candidate
// products + expansion containment checks).
void BM_Rewriting_InverseRules(benchmark::State& state) {
  int atoms = static_cast<int>(state.range(0));
  Interner interner;
  RandomQueryOptions opts;
  opts.num_atoms = atoms;
  opts.num_variables = atoms + 1;
  opts.num_predicates = 2;
  opts.constant_probability = 0.0;
  opts.head_arity = 1;
  opts.seed = 777;
  ViewSet views = RandomViews(opts, 4, &interner);
  Program q({RandomConjunctiveQuery(opts, "g", &interner)});
  SymbolId goal = q.rules[0].head.predicate;
  for (auto _ : state) {
    Result<UnionQuery> ucq = UnionPlan(q, goal, views, &interner);
    if (!ucq.ok()) {
      state.SkipWithError("plan failed");
      return;
    }
    benchmark::DoNotOptimize(ucq);
  }
  state.counters["atoms"] = atoms;
}
BENCHMARK(BM_Rewriting_InverseRules)->DenseRange(1, 4);

void BM_Rewriting_Bucket(benchmark::State& state) {
  int atoms = static_cast<int>(state.range(0));
  Interner interner;
  RandomQueryOptions opts;
  opts.num_atoms = atoms;
  opts.num_variables = atoms + 1;
  opts.num_predicates = 2;
  opts.constant_probability = 0.0;
  opts.head_arity = 1;
  opts.seed = 777;
  ViewSet views = RandomViews(opts, 4, &interner);
  Program q({RandomConjunctiveQuery(opts, "g", &interner)});
  SymbolId goal = q.rules[0].head.predicate;
  for (auto _ : state) {
    Result<UnionQuery> ucq = BucketRewriting(q, goal, views, &interner);
    benchmark::DoNotOptimize(ucq);
  }
  state.counters["atoms"] = atoms;
}
BENCHMARK(BM_Rewriting_Bucket)->DenseRange(1, 4);

// GAV vs LAV on structurally matched systems: the paper notes GAV relative
// containment is a "straightforward corollary" of classical containment
// (NP), while LAV is Π₂ᴾ-complete. Chain queries over k-covered relations
// make the plan width (and the gap) visible.
void BM_Gav_ChainContainment(benchmark::State& state) {
  int length = static_cast<int>(state.range(0));
  Interner interner;
  GavSchema schema = *ParseGavSchema(
      "hop(X, Y) :- s1(X, Y).\n"
      "hop(X, Y) :- s2(X, Y).\n",
      &interner);
  GoalQuery longer{Program({ChainQuery(length, "ga", "hop", &interner)}),
                   interner.Lookup("ga")};
  GoalQuery same{Program({ChainQuery(length, "gb", "hop", &interner)}),
                 interner.Lookup("gb")};
  for (auto _ : state) {
    Result<RelativeContainmentResult> r =
        GavRelativelyContained(longer, same, schema, &interner);
    if (!r.ok() || !r->contained) {
      state.SkipWithError("wrong answer");
      return;
    }
  }
  state.counters["chain"] = length;
}
BENCHMARK(BM_Gav_ChainContainment)->DenseRange(2, 6, 2);

void BM_Lav_ChainContainment(benchmark::State& state) {
  int length = static_cast<int>(state.range(0));
  Interner interner;
  ViewSet views = *ParseViews(
      "s1(X, Y) :- hop(X, Y).\n"
      "s2(X, Y) :- hop(X, Y).\n",
      &interner);
  GoalQuery longer{Program({ChainQuery(length, "ga", "hop", &interner)}),
                   interner.Lookup("ga")};
  GoalQuery same{Program({ChainQuery(length, "gb", "hop", &interner)}),
                 interner.Lookup("gb")};
  for (auto _ : state) {
    Result<RelativeContainmentResult> r =
        RelativelyContained(longer, same, views, &interner);
    if (!r.ok() || !r->contained) {
      state.SkipWithError("wrong answer");
      return;
    }
  }
  state.counters["chain"] = length;
}
BENCHMARK(BM_Lav_ChainContainment)->DenseRange(2, 6, 2);


// The brute-force ∀∃ oracle, for scale comparison with the engines in
// bench_pi2p_reduction: also exponential in m, but over truth
// assignments rather than containment mappings.
void BM_Pi2p_BruteForceOracle(benchmark::State& state) {
  int m = static_cast<int>(state.range(0));
  QbfFormula f = RandomQbf(/*num_exists=*/3, m, /*num_clauses=*/4,
                           /*seed=*/7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ForallExistsSatisfiable(f));
  }
  state.counters["forall_vars"] = m;
}
BENCHMARK(BM_Pi2p_BruteForceOracle)->DenseRange(1, 6);

}  // namespace
}  // namespace relcont

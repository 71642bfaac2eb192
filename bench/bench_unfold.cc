// Per-layer harness for the binding store: the two operations every
// decision procedure rests on, timed outside the service.
//
//   BM_UnfoldInverseRulesPlan    MaximallyContainedPlan of a path-view
//                                query, then UnfoldToUnion of the plan
//                                (renaming apart + one resolution step per
//                                inverse rule used).
//   BM_ContainmentMappingSearch  every containment mapping of a 3-edge path
//                                into a 16-edge graph query
//                                (ForEachContainmentMapping: match, extend,
//                                undo).
//   BM_ManyViews                 UnionPlan and ExpandUnionPlan of a 2-atom
//                                path query over path-view catalogs of 10^2,
//                                10^3 and 10^4 views (num_relations =
//                                views/4, so the query touches O(1) views):
//                                the cost must follow the views the query
//                                touches, not the catalog size.
//   BM_LongChainPlan             UnionPlan of one chain query
//                                a(X0) :- e(X0, X1), ..., e(X(n-1), Xn) of
//                                1,000 and 4,000 atoms over v(X, Y) :-
//                                e(X, Y): one rule with n IDB subgoals, so
//                                the time must grow linearly in n (4x, not
//                                16x, from 1,000 to 4,000).
//   BM_Section4                  over path-view catalogs of 8, 64 and 512
//                                views (half of them `bf`): compiling the
//                                catalog's executable plan template
//                                (section4_compile, once per catalog) and
//                                one Section 4 decision of two 2-atom path
//                                queries over it (section4_decide).
//
// Writes BENCH_unfold.json (relcont-bench-v1, bench/harness.h), which the
// CI bench gate compares against bench/baselines/BENCH_unfold.json.
// RELCONT_BENCH_SMOKE=1 shrinks the repetition counts.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>

#include "harness.h"
#include "containment/homomorphism.h"
#include "datalog/parser.h"
#include "datalog/unfold.h"
#include "relcont/binding_containment.h"
#include "relcont/workload.h"
#include "rewriting/inverse_rules.h"
#include "service/catalog.h"

namespace relcont {
namespace {

using Clock = std::chrono::steady_clock;

/// Times `samples` batches of `iterations` calls of `op`; each sample is
/// the mean ns per call of its batch.
template <typename Op>
bench::Samples TimePerCall(int samples, int iterations, Op op) {
  bench::Samples out;
  for (int s = 0; s < samples; ++s) {
    auto start = Clock::now();
    for (int i = 0; i < iterations; ++i) op();
    std::chrono::duration<double, std::nano> elapsed = Clock::now() - start;
    out.Add(elapsed.count() / iterations);
  }
  return out;
}

/// Returns the unfolding's disjunct count (0 on error) so the call is not
/// optimized away and a broken run shows.
bench::Samples BM_UnfoldInverseRulesPlan(int samples, int iterations,
                                         size_t* disjuncts) {
  PathViewOptions options;
  options.num_views = 30;
  options.num_relations = 4;
  options.bound_probability = 0;
  options.query_length = 2;
  options.seed = 11;
  PathViewWorkload w = MakePathViewWorkload(options);
  Interner interner;
  ViewSet views = *ParseViews(w.views_text, &interner);
  Program query = *ParseProgram(w.query_text, &interner);
  SymbolId goal = query.rules[0].head.predicate;
  return TimePerCall(samples, iterations, [&] {
    // Each call starts from the same interner state, as a served request.
    Interner::FreshMark mark = interner.Mark();
    Result<Program> plan = MaximallyContainedPlan(query, views, &interner);
    Result<UnionQuery> u = plan.ok() ? UnfoldToUnion(*plan, goal, &interner)
                                     : Result<UnionQuery>(plan.status());
    *disjuncts = u.ok() ? u->disjuncts.size() : 0;
    interner.Rollback(mark);
  });
}

/// One many-views catalog: the UCQ plan's and its expansion's ns per
/// call, and the plan's disjunct count.
struct ManyViews {
  bench::Samples plan;
  bench::Samples expand;
  size_t disjuncts = 0;
};

ManyViews BM_ManyViews(int num_views, int samples, int iterations) {
  PathViewOptions options;
  options.num_views = num_views;
  options.num_relations = num_views / 4;
  options.bound_probability = 0;
  options.skew = 0;  // uniform: each relation in ~10 views at every size
  options.query_length = 2;
  options.seed = 11;
  PathViewWorkload w = MakePathViewWorkload(options);
  Interner interner;
  ViewSet views = *ParseViews(w.views_text, &interner);
  Program query = *ParseProgram(w.query_text, &interner);
  SymbolId goal = query.rules[0].head.predicate;
  ManyViews out;
  out.plan = TimePerCall(samples, iterations, [&] {
    Interner::FreshMark mark = interner.Mark();
    Result<UnionQuery> u = UnionPlan(query, goal, views, &interner);
    out.disjuncts = u.ok() ? u->disjuncts.size() : 0;
    interner.Rollback(mark);
  });
  Result<UnionQuery> plan = UnionPlan(query, goal, views, &interner);
  out.expand = TimePerCall(samples, iterations, [&] {
    Interner::FreshMark mark = interner.Mark();
    Result<UnionQuery> e = ExpandUnionPlan(*plan, views, &interner);
    if (!e.ok() || e->disjuncts.size() != plan->disjuncts.size()) {
      out.disjuncts = 0;
    }
    interner.Rollback(mark);
  });
  return out;
}

/// Returns the plan's body atom count (0 on error) through `atoms`.
bench::Samples BM_LongChainPlan(int length, int samples, int iterations,
                                size_t* atoms) {
  Interner interner;
  ViewSet views = *ParseViews("v(X, Y) :- e(X, Y).", &interner);
  std::string text = "a(X0) :- ";
  for (int i = 0; i < length; ++i) {
    text += (i > 0 ? ", " : "") + std::string("e(X") + std::to_string(i) +
            ", X" + std::to_string(i + 1) + ")";
  }
  Program query = *ParseProgram(text + ".", &interner);
  SymbolId goal = query.rules[0].head.predicate;
  return TimePerCall(samples, iterations, [&] {
    Interner::FreshMark mark = interner.Mark();
    Result<UnionQuery> u = UnionPlan(query, goal, views, &interner);
    *atoms = u.ok() && u->disjuncts.size() == 1
                 ? u->disjuncts[0].body.size()
                 : 0;
    interner.Rollback(mark);
  });
}

/// One Section 4 catalog: the template compile's and one decision's ns per
/// call, and whether the decisions all succeeded.
struct Section4 {
  bench::Samples compile;
  bench::Samples decide;
  bool ok = true;
};

Section4 BM_Section4(int num_views, int samples, int iterations) {
  PathViewOptions options;
  options.num_views = num_views;
  options.num_relations = std::max(2, num_views / 4);
  options.bound_probability = 0.5;
  options.query_length = 2;
  options.seed = 11;
  PathViewWorkload w = MakePathViewWorkload(options);
  options.seed = 12;
  std::string q2_text = MakePathViewWorkload(options).query_text;
  Interner interner;
  CatalogSpec spec;
  spec.views_text = w.views_text;
  spec.patterns = w.patterns;
  MaterializedCatalog catalog = *MaterializeCatalog(spec, &interner);
  GoalQuery q1{*ParseProgram("a" + w.query_text.substr(1), &interner),
               interner.Intern("a")};
  GoalQuery q2{*ParseProgram("b" + q2_text.substr(1), &interner),
               interner.Intern("b")};
  Section4 out;
  out.compile = TimePerCall(samples, iterations, [&] {
    Result<ExecutablePlanTemplate> plan =
        ExecutablePlanTemplate::Compile(catalog.views, catalog.patterns);
    out.ok &= plan.ok();
  });
  out.decide = TimePerCall(samples, iterations, [&] {
    Interner::FreshMark mark = interner.Mark();
    Result<BindingRelativeResult> r = RelativelyContainedWithBindingPatterns(
        q1, q2, catalog.views, *catalog.plan, &interner);
    out.ok &= r.ok();
    interner.Rollback(mark);
  });
  return out;
}

bench::Samples BM_ContainmentMappingSearch(int samples, int iterations,
                                           size_t* mappings) {
  Interner interner;
  Rule from = *ParseRule("q(X) :- e(X, Y), e(Y, Z), e(Z, W).", &interner);
  std::string graph = "q(N0) :- ";
  for (int i = 0; i < 16; ++i) {
    graph += (i > 0 ? ", " : "") + std::string("e(N") +
             std::to_string(i % 6) + ", N" + std::to_string((i * 5 + 1) % 6) +
             ")";
  }
  Rule to = *ParseRule(graph + ".", &interner);
  return TimePerCall(samples, iterations, [&] {
    size_t found = 0;
    ForEachContainmentMapping(from, to, [&](const Substitution&) {
      ++found;
      return false;  // enumerate them all
    });
    *mappings = found;
  });
}

int Main() {
  const int samples = bench::ScaleIterations(30, 7);
  size_t disjuncts = 0;
  bench::Samples unfold = BM_UnfoldInverseRulesPlan(
      samples, bench::ScaleIterations(200, 20), &disjuncts);
  size_t mappings = 0;
  bench::Samples search = BM_ContainmentMappingSearch(
      samples, bench::ScaleIterations(2000, 200), &mappings);
  std::printf("bench_unfold: unfold %.0f ns/call (%zu disjuncts), mapping "
              "search %.0f ns/call (%zu mappings)\n",
              unfold.Median(), disjuncts, search.Median(), mappings);
  if (disjuncts == 0 || mappings == 0) {
    std::fprintf(stderr, "bench_unfold: a workload did no work\n");
    return 1;
  }
  std::vector<bench::Metric> metrics;
  metrics.push_back(bench::DistributionMetric(
      "unfold_inverse_rules_plan_ns", unfold, "ns", false));
  metrics.push_back(bench::DistributionMetric(
      "containment_mapping_search_ns", search, "ns", false));
  for (int num_views : {100, 1000, 10000}) {
    ManyViews m =
        BM_ManyViews(num_views, samples, bench::ScaleIterations(100, 10));
    std::printf("bench_unfold: %d views: UCQ plan %.0f ns/call (%zu "
                "disjuncts), expansion %.0f ns/call\n",
                num_views, m.plan.Median(), m.disjuncts, m.expand.Median());
    if (m.disjuncts == 0) {
      std::fprintf(stderr, "bench_unfold: %d views: no plan\n", num_views);
      return 1;
    }
    const std::string suffix = "_" + std::to_string(num_views) + "_views_ns";
    metrics.push_back(bench::DistributionMetric("many_views_plan" + suffix,
                                                m.plan, "ns", false));
    metrics.push_back(bench::DistributionMetric("many_views_expand" + suffix,
                                                m.expand, "ns", false));
  }
  for (int length : {1000, 4000}) {
    size_t atoms = 0;
    bench::Samples chain = BM_LongChainPlan(
        length, samples, bench::ScaleIterations(20, 3), &atoms);
    std::printf("bench_unfold: %d-atom chain: UCQ plan %.0f ns/call\n",
                length, chain.Median());
    if (atoms != static_cast<size_t>(length)) {
      std::fprintf(stderr, "bench_unfold: %d-atom chain: wrong plan\n",
                   length);
      return 1;
    }
    metrics.push_back(bench::DistributionMetric(
        "long_chain_plan_" + std::to_string(length) + "_atoms_ns", chain, "ns",
        false));
  }
  for (int num_views : {8, 64, 512}) {
    Section4 s = BM_Section4(num_views, samples, bench::ScaleIterations(50, 5));
    std::printf("bench_unfold: %d views: section4 compile %.0f ns/call, "
                "decide %.0f ns/call\n",
                num_views, s.compile.Median(), s.decide.Median());
    if (!s.ok) {
      std::fprintf(stderr, "bench_unfold: %d views: section4 failed\n",
                   num_views);
      return 1;
    }
    const std::string suffix = "_" + std::to_string(num_views) + "_views_ns";
    metrics.push_back(bench::DistributionMetric("section4_compile" + suffix,
                                                s.compile, "ns", false));
    metrics.push_back(bench::DistributionMetric("section4_decide" + suffix,
                                                s.decide, "ns", false));
  }
  return bench::WriteBenchJson("BENCH_unfold.json", "unfold", metrics) ? 0
                                                                       : 1;
}

}  // namespace
}  // namespace relcont

int main() { return relcont::Main(); }

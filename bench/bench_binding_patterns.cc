// Experiment X41 (Theorems 4.1/4.2): relative containment under binding
// patterns. The left plan is recursive (the dom accumulator), so the
// decision runs the profile-saturation procedure; the sweeps scale the
// number of adorned sources and the UCQ cover size.

#include <benchmark/benchmark.h>

#include "datalog/parser.h"
#include "relcont/binding_containment.h"
#include "trace/trace.h"

namespace relcont {
namespace {

// The chain scenario: seed + k distinct lookup sources over one relation.
struct ChainScenario {
  Interner interner;
  ViewSet views;
  BindingPatterns patterns;
  GoalQuery q_any;
  GoalQuery q_cover;
};

// Builds: seed(X) :- link(a, X); next_i(X, Y) :- link(X, Y) with ^bf.
// The cover is "one step from a" plus "last two steps" — containment holds
// and its proof needs trees of unbounded depth.
void BuildChain(int lookups, ChainScenario* s) {
  std::string views_text = "seed(X) :- link(a, X).\n";
  for (int i = 0; i < lookups; ++i) {
    views_text +=
        "next" + std::to_string(i) + "(X, Y) :- link(X, Y).\n";
  }
  s->views = *ParseViews(views_text, &s->interner);
  for (int i = 0; i < lookups; ++i) {
    s->patterns.Set(s->interner.Lookup("next" + std::to_string(i)),
                    *Adornment::Parse("bf"));
  }
  s->q_any = {*ParseProgram("q1(Y) :- link(X, Y).", &s->interner),
              s->interner.Lookup("q1")};
  s->q_cover = {*ParseProgram(
                    "q3(Y) :- link(a, Y).\n"
                    "q3(Y) :- link(X1, X2), link(X2, Y).\n",
                    &s->interner),
                s->interner.Lookup("q3")};
}

void BM_Binding_SweepLookupSources(benchmark::State& state) {
  int lookups = static_cast<int>(state.range(0));
  ChainScenario s;
  BuildChain(lookups, &s);
  constexpr size_t kTreeOptions =
      static_cast<size_t>(trace::Counter::kDomTreeOptions);
  uint64_t tree_options = 0;
  for (auto _ : state) {
    const uint64_t before = trace::ThreadCounts()[kTreeOptions];
    Result<BindingRelativeResult> r = RelativelyContainedWithBindingPatterns(
        s.q_any, s.q_cover, s.views, s.patterns, &s.interner);
    if (!r.ok() || !r->contained) {
      state.SkipWithError(r.ok() ? "wrong answer" : r.status().ToString().c_str());
      return;
    }
    tree_options = trace::ThreadCounts()[kTreeOptions] - before;
  }
  state.counters["lookup_sources"] = lookups;
  state.counters["tree_profiles"] = static_cast<double>(tree_options);
}
BENCHMARK(BM_Binding_SweepLookupSources)->DenseRange(1, 4);

// Sweep the UCQ cover width: "last k steps" disjuncts.
void BM_Binding_SweepCoverWidth(benchmark::State& state) {
  int width = static_cast<int>(state.range(0));
  ChainScenario s;
  BuildChain(1, &s);
  // cover: link(a, Y) plus suffixes of lengths 2..width+1.
  std::string text = "qc(Y) :- link(a, Y).\n";
  for (int k = 2; k <= width + 1; ++k) {
    text += "qc(Y) :- ";
    for (int i = 0; i < k; ++i) {
      if (i > 0) text += ", ";
      text += "link(S" + std::to_string(i) + ", " +
              (i + 1 == k ? std::string("Y")
                          : "S" + std::to_string(i + 1)) +
              ")";
    }
    text += ".\n";
  }
  GoalQuery cover{*ParseProgram(text, &s.interner), s.interner.Lookup("qc")};
  for (auto _ : state) {
    Result<BindingRelativeResult> r = RelativelyContainedWithBindingPatterns(
        s.q_any, cover, s.views, s.patterns, &s.interner);
    if (!r.ok() || !r->contained) {
      state.SkipWithError("wrong answer");
      return;
    }
  }
  state.counters["cover_width"] = width;
}
BENCHMARK(BM_Binding_SweepCoverWidth)->DenseRange(1, 4);

// A non-containment that needs a deep counterexample: cover that misses
// exactly the depth-3 expansions.
void BM_Binding_Counterexample(benchmark::State& state) {
  ChainScenario s;
  BuildChain(1, &s);
  GoalQuery partial{*ParseProgram("qp(Y) :- link(a, Y).", &s.interner),
                    s.interner.Lookup("qp")};
  for (auto _ : state) {
    Result<BindingRelativeResult> r = RelativelyContainedWithBindingPatterns(
        s.q_any, partial, s.views, s.patterns, &s.interner);
    if (!r.ok() || r->contained) {
      state.SkipWithError("wrong answer");
      return;
    }
  }
}
BENCHMARK(BM_Binding_Counterexample);

}  // namespace
}  // namespace relcont

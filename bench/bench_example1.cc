// Experiment E1/E4: the paper's Example 1 decisions and the Example 4
// comparison-aware plan, timed end to end. There are no absolute numbers
// to match (the paper is theory); the point is that the full pipeline —
// inverse rules, function-term elimination, unfolding, containment — runs
// in microseconds on the paper's own instance.

#include <benchmark/benchmark.h>

#include "datalog/parser.h"
#include "relcont/relative_containment.h"
#include "rewriting/comparison_plans.h"
#include "rewriting/inverse_rules.h"

namespace relcont {
namespace {

constexpr char kViews[] =
    "redcars(CarNo, Model, Year) :- cardesc(CarNo, Model, red, Year).\n"
    "antiquecars(CarNo, Model, Year) :- "
    "cardesc(CarNo, Model, Color, Year), Year < 1970.\n"
    "caranddriver(Model, Review) :- review(Model, Review, 10).\n";

constexpr char kQ1[] =
    "q1(CarNo, Review) :- cardesc(CarNo, Model, C, Y), "
    "review(Model, Review, Rating).";
constexpr char kQ2[] =
    "q2(CarNo, Review) :- cardesc(CarNo, Model, C, Y), "
    "review(Model, Review, 10).";
constexpr char kQ3[] =
    "q3(CarNo, Review) :- cardesc(CarNo, Model, C, Y), "
    "review(Model, Review, 10), Y < 1970.";

void BM_Example1_Q1EquivQ2(benchmark::State& state) {
  Interner interner;
  ViewSet views = *ParseViews(kViews, &interner);
  GoalQuery q1{*ParseProgram(kQ1, &interner), interner.Lookup("q1")};
  GoalQuery q2{*ParseProgram(kQ2, &interner), interner.Lookup("q2")};
  for (auto _ : state) {
    Result<bool> eq = RelativelyEquivalent(q1, q2, views, &interner);
    if (!eq.ok() || !*eq) state.SkipWithError("wrong answer");
  }
}
BENCHMARK(BM_Example1_Q1EquivQ2);

void BM_Example1_Q1NotInQ3(benchmark::State& state) {
  Interner interner;
  ViewSet views = *ParseViews(kViews, &interner);
  GoalQuery q1{*ParseProgram(kQ1, &interner), interner.Lookup("q1")};
  GoalQuery q3{*ParseProgram(kQ3, &interner), interner.Lookup("q3")};
  for (auto _ : state) {
    Result<bool> r = RelativelyContainedViaExpansion(q1, q3, views, &interner);
    if (!r.ok() || *r) state.SkipWithError("wrong answer");
  }
}
BENCHMARK(BM_Example1_Q1NotInQ3);

void BM_Example1_Q3InQ1(benchmark::State& state) {
  Interner interner;
  ViewSet views = *ParseViews(kViews, &interner);
  GoalQuery q1{*ParseProgram(kQ1, &interner), interner.Lookup("q1")};
  GoalQuery q3{*ParseProgram(kQ3, &interner), interner.Lookup("q3")};
  for (auto _ : state) {
    Result<RelativeContainmentResult> r =
        RelativelyContainedWithComparisons(q3, q1, views, &interner);
    if (!r.ok() || !r->contained) state.SkipWithError("wrong answer");
  }
}
BENCHMARK(BM_Example1_Q3InQ1);

void BM_Example1_AblationNoRedCars(benchmark::State& state) {
  Interner interner;
  ViewSet views = *ParseViews(
      "antiquecars(CarNo, Model, Year) :- "
      "cardesc(CarNo, Model, Color, Year), Year < 1970.\n"
      "caranddriver(Model, Review) :- review(Model, Review, 10).\n",
      &interner);
  GoalQuery q1{*ParseProgram(kQ1, &interner), interner.Lookup("q1")};
  GoalQuery q3{*ParseProgram(kQ3, &interner), interner.Lookup("q3")};
  for (auto _ : state) {
    Result<bool> r = RelativelyContainedViaExpansion(q1, q3, views, &interner);
    if (!r.ok() || !*r) state.SkipWithError("wrong answer");
  }
}
BENCHMARK(BM_Example1_AblationNoRedCars);

void BM_Example2_InverseRules(benchmark::State& state) {
  Interner interner;
  ViewSet views = *ParseViews(kViews, &interner);
  Program q1 = *ParseProgram(kQ1, &interner);
  for (auto _ : state) {
    Result<Program> plan = MaximallyContainedPlan(q1, views, &interner);
    benchmark::DoNotOptimize(plan);
  }
}
BENCHMARK(BM_Example2_InverseRules);

void BM_Example3_UnionPlan(benchmark::State& state) {
  Interner interner;
  ViewSet views = *ParseViews(kViews, &interner);
  Program q1 = *ParseProgram(kQ1, &interner);
  SymbolId goal = interner.Lookup("q1");
  for (auto _ : state) {
    Result<UnionQuery> ucq = UnionPlan(q1, goal, views, &interner);
    if (!ucq.ok() || ucq->disjuncts.size() != 2) {
      state.SkipWithError("wrong plan");
    }
  }
}
BENCHMARK(BM_Example3_UnionPlan);

void BM_Example4_ComparisonAwarePlan(benchmark::State& state) {
  Interner interner;
  ViewSet views = *ParseViews(kViews, &interner);
  Program q3 = *ParseProgram(kQ3, &interner);
  SymbolId goal = interner.Lookup("q3");
  for (auto _ : state) {
    Result<UnionQuery> plan =
        ComparisonAwarePlan(q3, goal, views, &interner);
    if (!plan.ok() || plan->disjuncts.size() != 2) {
      state.SkipWithError("wrong plan");
    }
  }
}
BENCHMARK(BM_Example4_ComparisonAwarePlan);

}  // namespace
}  // namespace relcont

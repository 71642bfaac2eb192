// The paper's running example (Examples 1-4): the car-sales mediated
// schema, its three sources, and the queries Q1, Q2, Q3. Reproduces every
// claim the paper makes about them, printing the constructed plans.

#include <cstdio>

#include "containment/comparison_containment.h"
#include "datalog/parser.h"
#include "relcont/certain_answers.h"
#include "relcont/relative_containment.h"
#include "rewriting/comparison_plans.h"
#include "rewriting/inverse_rules.h"

using namespace relcont;

namespace {

void Banner(const char* text) { std::printf("\n=== %s ===\n", text); }

const char* YesNo(bool b) { return b ? "yes" : "no"; }

}  // namespace

int main() {
  Interner interner;

  // Mediated schema: CarDesc(CarNo, Model, Color, Year),
  //                  Review(Model, Review, Rating).
  ViewSet views = *ParseViews(
      "redcars(CarNo, Model, Year) :- cardesc(CarNo, Model, red, Year).\n"
      "antiquecars(CarNo, Model, Year) :- "
      "cardesc(CarNo, Model, Color, Year), Year < 1970.\n"
      "caranddriver(Model, Review) :- review(Model, Review, 10).\n",
      &interner);
  std::printf("Sources (local-as-view descriptions):\n%s",
              views.ToString(interner).c_str());

  GoalQuery q1{*ParseProgram("q1(CarNo, Review) :- "
                             "cardesc(CarNo, Model, C, Y), "
                             "review(Model, Review, Rating).",
                             &interner),
               interner.Lookup("q1")};
  GoalQuery q2{*ParseProgram("q2(CarNo, Review) :- "
                             "cardesc(CarNo, Model, C, Y), "
                             "review(Model, Review, 10).",
                             &interner),
               interner.Lookup("q2")};
  GoalQuery q3{*ParseProgram("q3(CarNo, Review) :- "
                             "cardesc(CarNo, Model, C, Y), "
                             "review(Model, Review, 10), Y < 1970.",
                             &interner),
               interner.Lookup("q3")};

  Banner("Classical containment (Example 1)");
  auto classical = [&](const GoalQuery& a, const GoalQuery& b) {
    return *CqContainedComplete(a.program.rules[0], b.program.rules[0]);
  };
  std::printf("Q2 subset Q1: %s   Q1 subset Q2: %s\n",
              YesNo(classical(q2, q1)), YesNo(classical(q1, q2)));
  std::printf("Q3 subset Q2: %s   Q2 subset Q3: %s\n",
              YesNo(classical(q3, q2)), YesNo(classical(q2, q3)));

  Banner("Maximally-contained plan for Q1 (Example 2)");
  Program plan1 = *MaximallyContainedPlan(q1.program, views, &interner);
  std::printf("%s", plan1.ToString(interner).c_str());

  Banner("Function-term elimination and unfolding (Example 3)");
  UnionQuery ucq1 = *UnionPlan(q1.program, q1.goal, views, &interner);
  std::printf("%s", ucq1.ToString(interner).c_str());

  Banner("Relative containment (Example 1)");
  RelativeContainmentResult r12 =
      *RelativelyContained(q1, q2, views, &interner);
  RelativeContainmentResult r21 =
      *RelativelyContained(q2, q1, views, &interner);
  std::printf("Q1 relatively contained in Q2: %s\n", YesNo(r12.contained));
  std::printf("Q2 relatively contained in Q1: %s\n", YesNo(r21.contained));
  std::printf("  (reviews exist only for top-rated models, so the queries\n"
              "   are equivalent relative to the sources)\n");

  bool r13 = *RelativelyContainedViaExpansion(q1, q3, views, &interner);
  std::printf("Q1 relatively contained in Q3: %s\n", YesNo(r13));
  RelativeContainmentResult r31 =
      *RelativelyContainedWithComparisons(q3, q1, views, &interner);
  std::printf("Q3 relatively contained in Q1: %s\n", YesNo(r31.contained));

  Banner("Comparison-aware plan for Q3 (Example 4)");
  UnionQuery plan3 =
      *ComparisonAwarePlan(q3.program, q3.goal, views, &interner);
  std::printf("%s", plan3.ToString(interner).c_str());
  std::printf("(the RedCars disjunct carries Year < 1970 explicitly;\n"
              " AntiqueCars already guarantees it)\n");

  Banner("Ablation: drop the RedCars source");
  ViewSet fewer = *ParseViews(
      "antiquecars(CarNo, Model, Year) :- "
      "cardesc(CarNo, Model, Color, Year), Year < 1970.\n"
      "caranddriver(Model, Review) :- review(Model, Review, 10).\n",
      &interner);
  bool r13_fewer = *RelativelyContainedViaExpansion(q1, q3, fewer, &interner);
  std::printf("Q1 relatively contained in Q3 without RedCars: %s\n",
              YesNo(r13_fewer));

  Banner("Certain answers on a concrete source instance");
  Database instance = *ParseDatabase(
      "redcars(1, corolla, 1990).\n"
      "antiquecars(2, model_t, 1920).\n"
      "caranddriver(corolla, 'a great car').\n"
      "caranddriver(model_t, 'the classic').\n",
      &interner);
  std::vector<Tuple> answers =
      *CertainAnswers(q1.program, q1.goal, views, instance, &interner);
  for (const Tuple& t : answers) {
    std::printf("  q1(%s, %s)\n", t[0].ToString(interner).c_str(),
                t[1].ToString(interner).c_str());
  }
  return 0;
}

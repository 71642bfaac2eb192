// Section 4 end to end: sources with access-pattern restrictions (the
// paper's Amazon motivation — prices only by ISBN), the recursive
// executable plan, reachable certain answers, and relative containment
// under binding patterns, including a machine-found counterexample.

#include <cstdio>

#include "binding/dom_plan.h"
#include "datalog/parser.h"
#include "relcont/binding_containment.h"
#include "trace/trace.h"

using namespace relcont;

int main() {
  Interner interner;

  // Mediated schema: book(ISBN, Title), price(ISBN, Price).
  ViewSet views = *ParseViews(
      "catalog(I, T) :- book(I, T).\n"
      "pricelookup(I, P) :- price(I, P).\n",
      &interner);
  // pricelookup demands the ISBN as input: adornment bf.
  BindingPatterns patterns;
  patterns.Set(interner.Lookup("pricelookup"), *Adornment::Parse("bf"));

  Program query = *ParseProgram(
      "q(T, P) :- book(I, T), price(I, P).", &interner);
  SymbolId goal = interner.Lookup("q");

  std::printf("Executable maximally-contained plan (note the recursive dom "
              "accumulator):\n");
  ExecutablePlanResult plan =
      *ExecutablePlan(query, views, patterns, &interner);
  std::printf("%s\n", plan.program.ToString(interner).c_str());

  Database instance = *ParseDatabase(
      "catalog(i1, 'dune').\n"
      "catalog(i2, 'hyperion').\n"
      "pricelookup(i1, 10).\n"
      "pricelookup(i2, 12).\n"
      "pricelookup(i9, 99).\n",  // i9 is not catalogued: unreachable
      &interner);
  std::vector<Tuple> answers = *ReachableCertainAnswers(
      query, goal, views, patterns, instance, &interner);
  std::printf("Reachable certain answers (i9's price cannot be obtained):\n");
  for (const Tuple& t : answers) {
    std::printf("  q(%s, %s)\n", t[0].ToString(interner).c_str(),
                t[1].ToString(interner).c_str());
  }

  // Relative containment under binding patterns (Theorems 4.1/4.2).
  GoalQuery q_price{*ParseProgram("qa(P) :- price(I, P).", &interner),
                    interner.Lookup("qa")};
  GoalQuery q_catalogued{
      *ParseProgram("qb(P) :- book(I, T), price(I, P).", &interner),
      interner.Lookup("qb")};
  BindingRelativeResult r = *RelativelyContainedWithBindingPatterns(
      q_price, q_catalogued, views, patterns, &interner);
  std::printf(
      "\n\"all retrievable prices\" relatively contained in \"prices of\n"
      "catalogued books\": %s\n",
      r.contained ? "yes" : "no");
  if (!r.contained && r.counterexample.has_value()) {
    std::printf(
        "counterexample expansion (a price probed with a value that is not\n"
        "a catalogued ISBN — the untyped dom accumulator admits titles and\n"
        "price values as probe keys too):\n  %s\n",
        r.counterexample->ToString(interner).c_str());
  }

  // Every reachable probe key is a catalogued ISBN, a catalogued title, or
  // the output of an earlier lookup; the three-disjunct union covers them.
  GoalQuery q_cover{*ParseProgram(
                        "qc(P) :- book(I, T), price(I, P).\n"
                        "qc(P) :- book(I, T), price(T, P).\n"
                        "qc(P) :- price(X, Y), price(Y, P).\n",
                        &interner),
                    interner.Lookup("qc")};
  // The decider's work shows in the always-on trace counters.
  const trace::CounterArray before = trace::ThreadCounts();
  BindingRelativeResult r2 = *RelativelyContainedWithBindingPatterns(
      q_price, q_cover, views, patterns, &interner);
  auto counted = [&](trace::Counter c) {
    size_t i = static_cast<size_t>(c);
    return static_cast<long long>(trace::ThreadCounts()[i] - before[i]);
  };
  std::printf(
      "...but contained in the union {ISBN probe, title probe, chained\n"
      "probe}: %s\n"
      "(%lld tree profile types, %lld core checks — Theorem 4.2's decision\n"
      "procedure over the recursive plan)\n",
      r2.contained ? "yes" : "no", counted(trace::Counter::kDomTreeOptions),
      counted(trace::Counter::kDomCoresChecked));
  return 0;
}

#include "containment/expansion.h"

#include "common/budget.h"
#include "containment/cq_containment.h"
#include "datalog/unfold.h"
#include "trace/trace.h"

namespace relcont {

Result<bool> ForEachExpansion(const Program& program, SymbolId goal,
                              Interner* interner,
                              const ExpansionOptions& options,
                              const std::function<bool(const Rule&)>& visit) {
  for (const Rule& r : program.rules) {
    if (!r.comparisons.empty()) {
      return Status::Unsupported(
          "expansion enumeration covers comparison-free programs");
    }
  }
  RELCONT_TRACE_SPAN("expansion");
  Resolver resolver(program.rules);
  UnfoldLimits limits;
  limits.max_rule_applications = options.max_rule_applications;
  UnfoldRun run =
      Unfold(resolver, goal, interner, limits, [&visit](Rule&& expansion) {
        RELCONT_TRACE_COUNT(kExpansionsVisited, 1);
        return visit(expansion);
      });
  if (run.resolutions > 0) {
    RELCONT_TRACE_COUNT(kExpansionRuleApps, run.resolutions);
  }
  return run.complete;
}

Result<bool> DatalogContainedInUcqBounded(const Program& program,
                                          SymbolId goal, const UnionQuery& q,
                                          Interner* interner,
                                          const ExpansionOptions& options,
                                          Rule* witness) {
  bool all_contained = true;
  Rule counterexample;
  Status inner_error;
  Result<bool> complete = ForEachExpansion(
      program, goal, interner, options, [&](const Rule& expansion) {
        Result<bool> contained = CqContainedInUnion(expansion, q);
        if (!contained.ok()) {
          inner_error = contained.status();
          return false;
        }
        if (!*contained) {
          all_contained = false;
          counterexample = expansion;
          return false;  // definite counterexample; stop
        }
        return true;
      });
  if (!complete.ok()) return complete.status();
  if (!inner_error.ok()) return inner_error;
  if (!all_contained) {
    if (witness != nullptr) *witness = counterexample;
    return false;
  }
  if (!*complete) {
    // Prefer the budget's own status (deadline vs steps) when it was the
    // cause; otherwise max_rule_applications cut a derivation off.
    RELCONT_RETURN_NOT_OK(BudgetOkOrBound("expansion"));
    return BoundReachedAt(
        "expansion", "no counterexample within bounds, but enumeration was "
                     "truncated");
  }
  return true;
}

}  // namespace relcont

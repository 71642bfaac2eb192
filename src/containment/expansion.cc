#include "containment/expansion.h"

#include <algorithm>

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
      Unfold(resolver, goal, interner, limits,
             [&visit](const UnfoldLeaf& expansion) {
               RELCONT_TRACE_COUNT(kExpansionsVisited, 1);
               return visit(expansion.Build());
             });
  if (run.resolutions > 0) {
    RELCONT_TRACE_COUNT(kExpansionRuleApps, run.resolutions);
  }
  return run.complete;
}

namespace {

bool MentionsFunction(const Term& t, const std::set<SymbolId>& functions) {
  if (!t.is_function()) return false;
  return functions.count(t.symbol()) > 0 ||
         std::ranges::any_of(t.args(), [&](const Term& arg) {
           return MentionsFunction(arg, functions);
         });
}

}  // namespace

SkolemFilter::SkolemFilter(std::span<const Rule> rules) {
  for (const Rule& r : rules) {
    for (const Term& t : r.head.args) {
      if (t.is_function()) skolems_.insert(t.symbol());
    }
  }
}

bool SkolemFilter::DerivesNothing(const Rule& expansion) const {
  if (expansion.head.HasFunctionTerm()) return true;
  if (skolems_.empty()) return false;
  return std::ranges::any_of(expansion.body, [&](const Atom& a) {
    return std::ranges::any_of(a.args, [&](const Term& t) {
      return MentionsFunction(t, skolems_);
    });
  });
}

Result<bool> DatalogContainedInUcqBounded(const Program& program,
                                          SymbolId goal, const UnionQuery& q,
                                          Interner* interner,
                                          const ExpansionOptions& options,
                                          Rule* witness) {
  bool all_contained = true;
  Rule counterexample;
  Status inner_error;
  const SkolemFilter skolems(program.rules);
  Result<bool> complete = ForEachExpansion(
      program, goal, interner, options, [&](const Rule& expansion) {
        if (skolems.DerivesNothing(expansion)) return true;
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

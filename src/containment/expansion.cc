#include "containment/expansion.h"

#include "common/budget.h"
#include "containment/cq_containment.h"
#include "datalog/unfold.h"
#include "trace/trace.h"

namespace relcont {

namespace {

class Enumerator {
 public:
  Enumerator(const Program& program, Interner* interner,
             const ExpansionOptions& options,
             const std::function<bool(const Rule&)>& visit)
      : interner_(interner),
        options_(options),
        visit_(visit),
        resolver_(program) {}

  // Returns OK when enumeration ran to natural exhaustion.
  Result<bool> Run(SymbolId goal) {
    for (const NumberedRule& rule : resolver_.Definitions(goal)) {
      if (stop_) break;
      Expand(rule.RenameApart(interner_), 1);
    }
    return complete_ && !stop_;
  }

 private:
  // `rule` has some prefix of EDB atoms and possibly IDB atoms; resolve the
  // first IDB atom against every alternative.
  void Expand(const Rule& rule, int applications) {
    if (stop_) return;
    // One budget step per resolution node; exhaustion truncates the
    // enumeration (complete_ = false), so the caller's BoundReached path
    // reports it.
    if (!BudgetCharge(1)) {
      complete_ = false;
      stop_ = true;
      return;
    }
    int idb_index = resolver_.FirstIdbSubgoal(rule);
    if (idb_index < 0) {
      RELCONT_TRACE_COUNT(kExpansionsVisited, 1);
      if (!visit_(rule)) stop_ = true;
      return;
    }
    if (applications >= options_.max_rule_applications) {
      complete_ = false;  // derivation cut off
      return;
    }
    Rule resolved;
    for (const NumberedRule& def :
         resolver_.Definitions(rule.body[idb_index].predicate)) {
      if (stop_) return;
      if (!def.Resolve(rule, idb_index, interner_, &store_, &resolved)) {
        continue;
      }
      RELCONT_TRACE_COUNT(kExpansionRuleApps, 1);
      Expand(resolved, applications + 1);
    }
  }

  Interner* interner_;
  const ExpansionOptions& options_;
  const std::function<bool(const Rule&)>& visit_;
  ProgramResolver resolver_;
  Substitution store_;
  bool complete_ = true;
  bool stop_ = false;
};

}  // namespace

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
  return Enumerator(program, interner, options, visit).Run(goal);
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

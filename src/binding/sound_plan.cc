#include "binding/sound_plan.h"

#include <algorithm>

#include "containment/cq_containment.h"
#include "containment/expansion.h"
#include "datalog/unfold.h"
#include "rewriting/inverse_rules.h"

namespace relcont {

Result<SoundPlanResult> CheckSoundPlan(
    const Program& plan, SymbolId plan_goal, const Program& query,
    SymbolId query_goal, const ViewSet& views,
    const BindingPatterns& patterns, Interner* interner,
    const SoundPlanOptions& options) {
  RELCONT_RETURN_NOT_OK(plan.CheckSafe());
  RELCONT_RETURN_NOT_OK(query.CheckSafe());
  // The plan's own predicates must not collide with the mediated schema,
  // or the expansion would conflate them.
  const std::set<SymbolId>& mediated = views.MediatedPredicates();
  for (SymbolId p : plan.IdbPredicates()) {
    if (mediated.count(p) > 0) {
      return Status::InvalidArgument(
          "plan predicate collides with a mediated relation name");
    }
  }
  const std::set<SymbolId>& sources = views.SourcePredicates();
  std::set<SymbolId> plan_idb = plan.IdbPredicates();
  for (const Rule& r : plan.rules) {
    for (const Atom& a : r.body) {
      if (sources.count(a.predicate) == 0 &&
          plan_idb.count(a.predicate) == 0) {
        return Status::InvalidArgument(
            "plan bodies must mention only sources and plan predicates");
      }
    }
  }

  SoundPlanResult out;
  // (1) Executability under the binding patterns.
  out.executable = IsProgramExecutable(plan, patterns);

  // (2) Constant discipline: constants(P) ⊆ constants(Q ∪ V).
  std::vector<Value> allowed = query.Constants();
  allowed.insert(allowed.end(), views.Constants().begin(),
                 views.Constants().end());
  out.constants_ok = true;
  for (const Value& c : plan.Constants()) {
    if (std::find(allowed.begin(), allowed.end(), c) == allowed.end()) {
      out.constants_ok = false;
      break;
    }
  }

  // (3) Expansion containment: P^exp ⊑ Q.
  RELCONT_ASSIGN_OR_RETURN(Program expanded,
                           ExpandPlanProgram(plan, views, interner));
  RELCONT_ASSIGN_OR_RETURN(
      UnionQuery query_ucq,
      UnfoldToUnion(query, query_goal, interner));
  if (!expanded.IsRecursive()) {
    RELCONT_ASSIGN_OR_RETURN(
        UnionQuery exp_ucq,
        UnfoldToUnion(expanded, plan_goal, interner));
    // Drop disjuncts over mediated relations nothing stores... they ARE
    // the stored relations here; function terms cannot appear (user plans
    // have no Skolems), so plain union containment applies.
    RELCONT_ASSIGN_OR_RETURN(out.expansion_contained,
                             UnionContainedInUnion(exp_ucq, query_ucq));
  } else {
    ExpansionOptions bounds;
    bounds.max_rule_applications = options.max_rule_applications;
    RELCONT_ASSIGN_OR_RETURN(
        out.expansion_contained,
        DatalogContainedInUcqBounded(expanded, plan_goal, query_ucq,
                                     interner, bounds));
  }
  out.sound = out.executable && out.constants_ok && out.expansion_contained;
  return out;
}

}  // namespace relcont

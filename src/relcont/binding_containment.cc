#include "relcont/binding_containment.h"

#include <algorithm>

#include "containment/expansion.h"
#include "trace/trace.h"

namespace relcont {

Result<BindingRelativeResult> RelativelyContainedWithBindingPatterns(
    const GoalQuery& q1, const GoalQuery& q2, const ViewSet& views,
    const BindingPatterns& patterns, Interner* interner) {
  // Definition 4.5's constant discipline: constants(Q1 ∪ V) must be a
  // subset of constants(Q2 ∪ V).
  std::vector<Value> allowed = q2.program.Constants();
  allowed.insert(allowed.end(), views.Constants().begin(),
                 views.Constants().end());
  for (const Value& c : q1.program.Constants()) {
    if (std::find(allowed.begin(), allowed.end(), c) == allowed.end()) {
      return Status::InvalidArgument(
          "Definition 4.5 requires constants(Q1 ∪ V) ⊆ constants(Q2 ∪ V)");
    }
  }
  if (q2.program.IsRecursive()) {
    return Status::Unsupported(
        "Theorem 4.2 requires the containing query to be nonrecursive");
  }

  ExecutablePlanResult plan;
  Program p1_exp;
  UnionQuery q2_ucq;
  {
    RELCONT_TRACE_SPAN("build_plans");
    RELCONT_ASSIGN_OR_RETURN(
        plan, ExecutablePlan(q1.program, views, patterns, interner));
    RELCONT_ASSIGN_OR_RETURN(
        p1_exp,
        ExpandExecutablePlanForContainment(plan, q1.goal, views, interner));
    RELCONT_ASSIGN_OR_RETURN(
        q2_ucq, UnfoldToUnion(q2.program, q2.goal, interner));
  }
  // The representation limit is not a shape mismatch: answer it here
  // rather than through the expansion fallback below.
  RELCONT_RETURN_NOT_OK(CheckDisjunctSizes(q2_ucq));

  RELCONT_TRACE_SPAN("containment_check");
  Result<DomContainmentResult> decision =
      DomPlanContainedInUcq(p1_exp, q1.goal, plan.dom_predicate, q2_ucq,
                            interner);
  if (decision.ok()) {
    BindingRelativeResult out;
    out.contained = decision->contained;
    out.counterexample = decision->counterexample;
    return out;
  }
  if (decision.status().code() != StatusCode::kUnsupported) {
    return decision.status();
  }
  // Outside the dom shape (e.g. Q1 itself recursive): fall back to the
  // bounded expansion search — definite on counterexamples, kBoundReached
  // otherwise.
  ExpansionOptions bounds;
  bounds.max_rule_applications = 12;
  RELCONT_ASSIGN_OR_RETURN(
      bool contained,
      DatalogContainedInUcqBounded(p1_exp, q1.goal, q2_ucq, interner,
                                   bounds));
  BindingRelativeResult out;
  out.contained = contained;
  return out;
}

}  // namespace relcont

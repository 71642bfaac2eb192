#include "relcont/binding_containment.h"

#include <algorithm>

#include "containment/expansion.h"
#include "trace/trace.h"

namespace relcont {

Result<BindingRelativeResult> RelativelyContainedWithBindingPatterns(
    const GoalQuery& q1, const GoalQuery& q2, const ViewSet& views,
    const ExecutablePlanTemplate& plan, Interner* interner) {
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

  ExpandedExecutablePlan p1_exp;
  UnionQuery q2_ucq;
  {
    RELCONT_TRACE_SPAN("build_plans");
    RELCONT_ASSIGN_OR_RETURN(
        p1_exp,
        ExpandExecutablePlan(q1.program, q1.goal, views, &plan, interner));
    RELCONT_ASSIGN_OR_RETURN(
        q2_ucq, UnfoldToUnion(q2.program, q2.goal, interner));
  }
  // The representation limit is not a shape mismatch: answer it here
  // rather than through the expansion fallback below.
  RELCONT_RETURN_NOT_OK(CheckDisjunctSizes(q2_ucq));

  RELCONT_TRACE_SPAN("containment_check");
  BindingRelativeResult out;
  // View comparisons put the plan outside the dom shape.
  if (!views.has_comparisons()) {
    Result<DomContainmentResult> decision = DomProgramContainedInUcq(
        p1_exp.Split(), q1.goal, p1_exp.dom, q2_ucq, interner);
    if (decision.ok()) {
      out.contained = decision->contained;
      out.counterexample = decision->counterexample;
      return out;
    }
    if (decision.status().code() != StatusCode::kUnsupported) {
      return decision.status();
    }
  }
  // Outside the dom shape (e.g. Q1 itself recursive): fall back to the
  // bounded expansion search — definite on counterexamples, kBoundReached
  // otherwise.
  ExpansionOptions bounds;
  bounds.max_rule_applications = 12;
  Rule witness;
  RELCONT_ASSIGN_OR_RETURN(
      out.contained,
      DatalogContainedInUcqBounded(p1_exp.program, q1.goal, q2_ucq, interner,
                                   bounds, &witness));
  if (!out.contained) out.counterexample = std::move(witness);
  return out;
}

Result<BindingRelativeResult> RelativelyContainedWithBindingPatterns(
    const GoalQuery& q1, const GoalQuery& q2, const ViewSet& views,
    const BindingPatterns& patterns, Interner* interner) {
  RELCONT_ASSIGN_OR_RETURN(ExecutablePlanTemplate plan,
                           ExecutablePlanTemplate::Compile(views, patterns));
  return RelativelyContainedWithBindingPatterns(q1, q2, views, plan,
                                                interner);
}

}  // namespace relcont

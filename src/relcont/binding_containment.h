#ifndef RELCONT_RELCONT_BINDING_CONTAINMENT_H_
#define RELCONT_RELCONT_BINDING_CONTAINMENT_H_

#include "binding/dom_containment.h"
#include "binding/dom_plan.h"
#include "relcont/relative_containment.h"

namespace relcont {

/// Relative containment under binding-pattern restrictions (Section 4):
/// Q1 ⊑_{V,B} Q2 iff for every source instance the REACHABLE certain
/// answers of Q1 are a subset of those of Q2 (Definition 4.5).
///
/// By Theorem 4.1 this reduces to  P1^exp ⊑ Q2 , where P1 is Q1's
/// executable maximally-contained plan — a recursive program even for
/// conjunctive Q1, yet the containment is decidable (Theorem 4.2) because
/// the recursion runs only through the unary `dom` accumulator; see
/// binding/dom_containment.h for the decision procedure.
struct BindingRelativeResult {
  bool contained = true;
  /// When !contained: an expansion of Q1's executable plan (a CQ over the
  /// mediated schema) that Q2 does not contain; freezing it produces a
  /// counterexample source instance.
  std::optional<Rule> counterexample;
};

/// Decides Q1 ⊑_{V,B} Q2 over the catalog's compiled executable plan
/// `plan` (of `views` under its binding patterns). Q1 may be recursive in
/// principle but must stay within the decidable shape
/// (conjunctive/nonrecursive in this implementation; a recursive Q1 falls
/// back to the bounded expansion search, definite only on a NO); Q2 must
/// be nonrecursive; everything comparison-free. Definition 4.5 requires
/// the constants of Q1 ∪ V to be a subset of those of Q2 ∪ V; violations
/// are reported as kInvalidArgument. A Q2 disjunct over the
/// kMaxDisjunctSize representation limit is kUnsupported.
Result<BindingRelativeResult> RelativelyContainedWithBindingPatterns(
    const GoalQuery& q1, const GoalQuery& q2, const ViewSet& views,
    const ExecutablePlanTemplate& plan, Interner* interner);

/// Compiles the plan of `views` under `patterns`, then as above.
Result<BindingRelativeResult> RelativelyContainedWithBindingPatterns(
    const GoalQuery& q1, const GoalQuery& q2, const ViewSet& views,
    const BindingPatterns& patterns, Interner* interner);

}  // namespace relcont

#endif  // RELCONT_RELCONT_BINDING_CONTAINMENT_H_

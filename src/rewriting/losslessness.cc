#include "rewriting/losslessness.h"

#include "containment/cq_containment.h"
#include "datalog/unfold.h"
#include "rewriting/inverse_rules.h"

namespace relcont {

Result<LosslessnessResult> CheckLossless(const Program& query, SymbolId goal,
                                         const ViewSet& views,
                                         Interner* interner) {
  if (views.has_comparisons()) {
    return Status::Unsupported(
        "losslessness is implemented for comparison-free views");
  }
  LosslessnessResult out;
  RELCONT_ASSIGN_OR_RETURN(out.plan,
                           UnionPlan(query, goal, views, interner));
  RELCONT_ASSIGN_OR_RETURN(UnionQuery expansion,
                           ExpandUnionPlan(out.plan, views, interner));
  RELCONT_ASSIGN_OR_RETURN(UnionQuery query_ucq,
                           UnfoldToUnion(query, goal, interner));
  // P^exp ⊑ Q holds by construction (maximal containment); losslessness is
  // the converse.
  RELCONT_ASSIGN_OR_RETURN(bool covered,
                           UnionContainedInUnion(query_ucq, expansion));
  out.lossless = covered;
  return out;
}

}  // namespace relcont

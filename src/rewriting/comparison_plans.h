#ifndef RELCONT_REWRITING_COMPARISON_PLANS_H_
#define RELCONT_REWRITING_COMPARISON_PLANS_H_

#include "datalog/unfold.h"
#include "rewriting/views.h"

namespace relcont {

/// Plan construction in the presence of comparison predicates (Section 5).
///
/// Theorem 5.1's construction: candidate conjunctive plans are the
/// inverse-rule unfoldings of the query's relational subgoals (at most n
/// source subgoals); for each candidate, the query's comparisons are pulled
/// back through the unifier onto the plan's visible variables, comparisons
/// that land on Skolem terms must instead be guaranteed by the views, and a
/// final soundness check verifies that the candidate's expansion is
/// contained in the query. Pulled-back comparisons that the views already
/// guarantee are dropped again, so e.g. the AntiqueCars disjunct of paper
/// Example 4 carries no explicit Year < 1970 test.

/// The dense-order constraints of views()[i]'s body projected onto its
/// distinguished (head) variables and the numeric constants occurring in
/// the view, as ViewSet::Make stored them (see ProjectConstraintsToHead).
/// E.g. v(X) :- p(X, Y), X < Y, Y < 5 projects to X < 5.
const Result<std::vector<Comparison>>& ProjectViewConstraintsToHead(
    const ViewSet& views, size_t i);

/// Adds to `plan_rule` (a CQ over source predicates) every comparison the
/// view definitions guarantee about its visible variables. Used to decide
/// plan containment relative to consistent source instances.
Result<Rule> AugmentWithViewConstraints(const Rule& plan_rule,
                                        const ViewSet& views,
                                        Interner* interner);

/// The maximally-contained UCQ plan for a positive query whose rules may
/// carry comparison predicates, over conjunctive views that may carry
/// comparison predicates (Theorem 5.1; complete for the semi-interval
/// fragment, sound in general).
Result<UnionQuery> ComparisonAwarePlan(const Program& query, SymbolId goal,
                                       const ViewSet& views,
                                       Interner* interner);

}  // namespace relcont

#endif  // RELCONT_REWRITING_COMPARISON_PLANS_H_

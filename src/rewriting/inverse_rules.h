#ifndef RELCONT_REWRITING_INVERSE_RULES_H_
#define RELCONT_REWRITING_INVERSE_RULES_H_

#include "datalog/unfold.h"
#include "rewriting/views.h"

namespace relcont {

/// The inverse-rules algorithm of Duschka–Genesereth–Levy (Section 2.3 of
/// the paper): each view  v(X̄) :- b1, ..., bn  is inverted into n rules
/// bi σ :- v(X̄), where σ maps each existential variable of the view to a
/// Skolem term f_v_var(X̄) over the view's distinguished variables.
/// Comparison subgoals of the view are dropped from the inverse rules (the
/// source guarantees them); they reappear in expansions.
Result<Program> InvertViews(const ViewSet& views, Interner* interner);

/// The maximally-contained query plan for `query` using `views`
/// (Definition 2.2): the query's rules plus the inverse rules. The plan's
/// EDB predicates are the source predicates. Fails if the query mentions
/// source predicates directly or contains comparisons (see
/// rewriting/comparison_plans.h for the Section 5 constructions).
Result<Program> MaximallyContainedPlan(const Program& query,
                                       const ViewSet& views,
                                       Interner* interner);

/// Unfolds a nonrecursive plan into a union of conjunctive queries over the
/// source predicates and performs function-term elimination: disjuncts in
/// which a Skolem term survives (in the head or in a source subgoal) can
/// never produce a ground answer on a real source instance and are removed
/// (paper Example 3). Disjuncts mentioning a mediated-schema predicate that
/// no source covers are likewise unanswerable and removed.
Result<UnionQuery> PlanToUnion(const Program& plan, SymbolId goal,
                               const ViewSet& views, Interner* interner);

/// The expansion P^exp of a UCQ plan over the sources: every source
/// subgoal is replaced by the body of its view definition with fresh
/// existential variables (and the view's comparisons). The result is a UCQ
/// over the mediated schema.
Result<UnionQuery> ExpandUnionPlan(const UnionQuery& plan,
                                   const ViewSet& views, Interner* interner);

/// The expansion of an arbitrary (possibly recursive) datalog plan: source
/// subgoals of every rule are replaced in place by view bodies. Rules whose
/// source subgoals cannot unify with their view's head are dropped.
Result<Program> ExpandPlanProgram(const Program& plan, const ViewSet& views,
                                  Interner* interner);

}  // namespace relcont

#endif  // RELCONT_REWRITING_INVERSE_RULES_H_

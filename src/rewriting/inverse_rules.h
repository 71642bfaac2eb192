#ifndef RELCONT_REWRITING_INVERSE_RULES_H_
#define RELCONT_REWRITING_INVERSE_RULES_H_

#include "datalog/unfold.h"
#include "rewriting/views.h"

namespace relcont {

/// The inverse rules of `views` (Section 2.3 of the paper), as compiled
/// by ViewSet::Make: see ViewSet::inverse_rules. `interner` is unused; the
/// Skolem names were interned when the set was built.
Result<Program> InvertViews(const ViewSet& views, Interner* interner);

/// The input checks shared by the plans built from the inverse rules:
/// `query` is safe, mentions no source predicate (it is over the mediated
/// schema) and, unless `allow_comparisons` (the Section 5 constructions of
/// rewriting/comparison_plans.h), has no comparison.
Status CheckPlannableQuery(const Program& query, const ViewSet& views,
                           bool allow_comparisons = false);

/// The maximally-contained query plan for `query` using `views`
/// (Definition 2.2) as a program: the query's rules plus a copy of the
/// inverse rules, for callers that evaluate it. The plan's EDB predicates
/// are the source predicates. Fails if CheckPlannableQuery does (see
/// rewriting/comparison_plans.h for queries with comparisons).
Result<Program> MaximallyContainedPlan(const Program& query,
                                       const ViewSet& views,
                                       Interner* interner);

/// The resolver of the plan for `query`: the query's own rules, then the
/// catalog's inverse rules for each mediated predicate (nothing copied).
/// Counts the inverse rules as plan_rules.
Resolver PlanResolver(const Program& query, const ViewSet& views);

/// The maximally-contained plan for the nonrecursive `query` as a union of
/// conjunctive queries over the source predicates: the query unfolded
/// against its own rules and the catalog's inverse rules, then
/// function-term elimination. Disjuncts in which a Skolem term survives
/// (in the head or in a source subgoal) can never produce a ground answer
/// on a real source instance and are removed (paper Example 3); disjuncts
/// mentioning a mediated-schema predicate that no source covers are
/// likewise unanswerable and removed. Fails if CheckPlannableQuery does.
Result<UnionQuery> UnionPlan(const Program& query, SymbolId goal,
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

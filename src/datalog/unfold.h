#ifndef RELCONT_DATALOG_UNFOLD_H_
#define RELCONT_DATALOG_UNFOLD_H_

#include "common/status.h"
#include "datalog/program.h"

namespace relcont {

/// Unfolds the nonrecursive `program` into an equivalent union of
/// conjunctive queries for the predicate `goal`: every IDB subgoal is
/// resolved against its defining rules until only EDB subgoals remain.
/// Comparison subgoals are carried along (with the unifier applied).
///
/// Unification-based resolution handles Skolem function terms, so this
/// also unfolds the query plans produced by the inverse-rules algorithm.
/// Fails with kUnsupported on recursive programs.
///
/// The number of disjuncts can be exponential in the program size (e.g. in
/// the Theorem 3.3 reduction); every resolution step charges the installed
/// WorkBudget at site "unfold", and with no budget installed the
/// unfolding runs to completion.
Result<UnionQuery> UnfoldToUnion(const Program& program, SymbolId goal,
                                 Interner* interner);

}  // namespace relcont

#endif  // RELCONT_DATALOG_UNFOLD_H_

#ifndef RELCONT_DATALOG_UNFOLD_H_
#define RELCONT_DATALOG_UNFOLD_H_

#include <vector>

#include "common/status.h"
#include "datalog/program.h"
#include "datalog/substitution.h"

namespace relcont {

/// A program's rules made ready for resolution: grouped by head predicate,
/// and each rule numbered (NumberedRule) once, when its predicate is first
/// resolved. A resolution step then neither rescans the program nor
/// re-collects a rule's variables.
class ProgramResolver {
 public:
  explicit ProgramResolver(const Program& program);

  /// Index of the first body atom of `rule` whose predicate some rule
  /// defines (an IDB subgoal), or -1.
  int FirstIdbSubgoal(const Rule& rule);

  /// The rules defining `predicate`, in program order.
  const std::vector<NumberedRule>& Definitions(SymbolId predicate);

 private:
  struct Group {
    SymbolId predicate;
    std::vector<const Rule*> rules;
    std::vector<NumberedRule> numbered;  // filled on first Definitions()
  };
  Group* Find(SymbolId predicate);

  std::vector<Group> groups_;  // sorted by predicate
};

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

#ifndef RELCONT_TESTS_SUPPORT_REFERENCE_UNFOLD_H_
#define RELCONT_TESTS_SUPPORT_REFERENCE_UNFOLD_H_

#include <cstddef>
#include <functional>
#include <span>

#include "datalog/unfold.h"

namespace relcont {

/// The copy-per-step unfolder: the oracle the library's trail driver
/// (datalog/unfold.h) is tested against. Every resolution step copies the
/// whole resolvent, with the unifier applied, and the next IDB subgoal is
/// found by rescanning the resolvent from its first atom, so a rule with n
/// IDB subgoals unfolds in O(n^2). It mints fresh ids, charges the budget
/// and honours UnfoldLimits exactly as the library driver does.

/// Receives each fully resolved rule; false stops the run.
using ReferenceVisitor = std::function<bool(Rule&&)>;

/// One resolution step. Renames `def` apart (minting its fresh block
/// whether or not the step succeeds), unifies `rule.body[index]` with the
/// renamed head, and on success writes the resolvent to `out`: the unifier
/// applied to `rule` with body atom `index` replaced by the renamed body,
/// and the renamed comparisons appended to `rule`'s. The unifier is built
/// in `store` and undone before returning.
bool ReferenceResolve(const NumberedRule& def, const Rule& rule, size_t index,
                      Interner* interner, Substitution* store, Rule* out);

/// Reference twin of Unfold.
UnfoldRun ReferenceUnfold(Resolver& resolver, SymbolId goal,
                          Interner* interner, const UnfoldLimits& limits,
                          const ReferenceVisitor& visit);

/// Reference twin of UnfoldRules.
UnfoldRun ReferenceUnfoldRules(Resolver& resolver, std::span<const Rule> roots,
                               Interner* interner, const UnfoldLimits& limits,
                               const ReferenceVisitor& visit);

}  // namespace relcont

#endif  // RELCONT_TESTS_SUPPORT_REFERENCE_UNFOLD_H_

#ifndef RELCONT_CONTAINMENT_EXPANSION_H_
#define RELCONT_CONTAINMENT_EXPANSION_H_

#include <functional>
#include <set>
#include <span>

#include "common/status.h"
#include "datalog/program.h"

namespace relcont {

/// Enumeration of the expansions of a datalog program: the conjunctive
/// queries obtained by unfolding proof trees of the goal predicate. For a
/// recursive program the set is infinite; enumeration is bounded by the
/// number of rule applications per expansion.

struct ExpansionOptions {
  /// Semantic: the maximum rule applications in a single expansion's
  /// derivation tree — which finite slice of a recursive program's
  /// infinite expansion set is enumerated.
  int max_rule_applications = 10;
};

/// Invokes `visit` for every expansion of `goal` whose derivation uses at
/// most max_rule_applications rule applications. `visit` returning false
/// stops enumeration early. Every resolution node charges the installed
/// WorkBudget; exhaustion truncates the enumeration.
///
/// Returns true if the enumeration was COMPLETE: every expansion of the
/// program was visited (no derivation was cut off by max_rule_applications
/// or the budget, and the visitor never stopped early) — guaranteed for
/// nonrecursive programs with a sufficient max_rule_applications. Returns
/// false if some derivations were pruned.
Result<bool> ForEachExpansion(const Program& program, SymbolId goal,
                              Interner* interner,
                              const ExpansionOptions& options,
                              const std::function<bool(const Rule&)>& visit);

/// The expansions of a program that derive no answer over a database. A
/// goal tuple carrying a function term is no answer (the evaluator drops
/// it). A function symbol some rule head builds is a Skolem function: its
/// terms are values no stored relation holds, so an expansion with one in
/// a body atom derives nothing either. Function terms that only bodies
/// write are opaque values.
class SkolemFilter {
 public:
  explicit SkolemFilter(std::span<const Rule> rules);

  bool DerivesNothing(const Rule& expansion) const;

 private:
  std::set<SymbolId> skolems_;
};

/// Bounded containment check of a datalog program in a UCQ
/// (comparison-free): searches the program's expansions for one not
/// contained in `q`, skipping those that derive nothing (SkolemFilter).
///  * Finds a counterexample within the bounds -> returns false (definite;
///    `witness` receives the offending expansion).
///  * Full enumeration, all contained -> returns true (definite).
///  * Bounds hit with no counterexample -> kBoundReached (inconclusive).
Result<bool> DatalogContainedInUcqBounded(const Program& program,
                                          SymbolId goal, const UnionQuery& q,
                                          Interner* interner,
                                          const ExpansionOptions& options,
                                          Rule* witness = nullptr);

}  // namespace relcont

#endif  // RELCONT_CONTAINMENT_EXPANSION_H_

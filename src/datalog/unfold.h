#ifndef RELCONT_DATALOG_UNFOLD_H_
#define RELCONT_DATALOG_UNFOLD_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <vector>

#include "common/status.h"
#include "datalog/program.h"
#include "datalog/substitution.h"

namespace relcont {

/// Where resolution reads the rules defining a predicate: a program's own
/// rules first, in program order, then the numbered rules a compiled
/// catalog stores for it (see rewriting/inverse_rules.h). Own rules are
/// numbered (NumberedRule) once, when their predicate is first resolved;
/// neither side is copied.
class Resolver {
 public:
  /// The stored rules with head `predicate`, in catalog order. They alone
  /// must be nonrecursive.
  using StoredRules =
      std::function<std::span<const NumberedRule>(SymbolId predicate)>;

  /// The definitions of one predicate: the own ones, then the stored ones.
  struct Definitions {
    std::span<const NumberedRule> own;
    std::span<const NumberedRule> stored;

    size_t size() const { return own.size() + stored.size(); }
    const NumberedRule& operator[](size_t i) const {
      return i < own.size() ? own[i] : stored[i - own.size()];
    }
  };

  /// `own` must outlive the resolver.
  explicit Resolver(std::span<const Rule> own, StoredRules stored = nullptr);

  /// Valid for the resolver's lifetime.
  Definitions DefinitionsOf(SymbolId predicate);

  /// Index of the first body atom of `rule` whose predicate has a
  /// definition (an IDB subgoal), or -1.
  int FirstIdbSubgoal(const Rule& rule);

  /// True iff some predicate depends on itself through the definitions.
  bool IsRecursive();

 private:
  struct Group {
    SymbolId predicate;
    std::vector<const Rule*> rules;
    std::vector<NumberedRule> numbered;  // filled on first DefinitionsOf()
  };
  Group* Find(SymbolId predicate);
  bool Defines(SymbolId predicate);

  std::vector<Group> groups_;  // sorted by predicate
  StoredRules stored_;
};

struct UnfoldLimits {
  /// Rule applications per derivation, its root included; deeper
  /// derivations are cut off.
  int max_rule_applications = std::numeric_limits<int>::max();
  /// Every search node charges one step to the installed WorkBudget, whose
  /// exhaustion stops the run.
  bool charge_budget = true;
};

struct UnfoldRun {
  /// Nothing was cut off, the budget held and the visitor never stopped.
  bool complete = true;
  uint64_t resolutions = 0;
};

/// Receives each rule with no IDB subgoal left; false stops the run.
using UnfoldVisitor = std::function<bool(Rule&&)>;

/// The one resolution driver. Renames apart each rule defining `goal` in
/// turn and, depth first, resolves the first IDB subgoal of each resolvent
/// against every definition of its predicate (NumberedRule::Resolve),
/// handing each fully resolved rule to `visit`. It keeps an explicit stack
/// of (resolvent, subgoal, next definition) frames, so a derivation's depth
/// is bounded by memory, not by the thread's stack.
UnfoldRun Unfold(Resolver& resolver, SymbolId goal, Interner* interner,
                 const UnfoldLimits& limits, const UnfoldVisitor& visit);

/// The same driver rooted at each of `roots` in turn, as given: not
/// renamed, and counted as no application.
UnfoldRun UnfoldRules(Resolver& resolver, std::span<const Rule> roots,
                      Interner* interner, const UnfoldLimits& limits,
                      const UnfoldVisitor& visit);

/// Unfolds the nonrecursive definitions of `goal` into an equivalent union
/// of conjunctive queries over the predicates nothing defines. Comparison
/// subgoals are carried along, and unification handles Skolem terms, so
/// this also unfolds inverse-rule plans. Fails with kUnsupported on
/// recursive definitions. The union can be exponential in the program
/// (e.g. the Theorem 3.3 reduction); each step charges the installed
/// WorkBudget at site "unfold".
Result<UnionQuery> UnfoldToUnion(Resolver& resolver, SymbolId goal,
                                 Interner* interner);

/// UnfoldToUnion over `program`'s own rules.
Result<UnionQuery> UnfoldToUnion(const Program& program, SymbolId goal,
                                 Interner* interner);

}  // namespace relcont

#endif  // RELCONT_DATALOG_UNFOLD_H_

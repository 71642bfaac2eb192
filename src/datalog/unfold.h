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

  /// Valid for the resolver's lifetime. Empty for a predicate nothing
  /// defines (an EDB predicate).
  Definitions DefinitionsOf(SymbolId predicate);

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

class UnfoldDriver;

/// A fully resolved derivation, read off the driver's binding store: its
/// head, its body atoms in resolution order and its comparisons, each a
/// numbered atom (or comparison) with the first id of its fresh block,
/// under the unifier the derivation built. Nothing is materialized until
/// Build(). Valid only during the visitor call that receives it.
class UnfoldLeaf {
 public:
  /// True iff a function (Skolem) term occurs in the head or a body atom.
  bool AtomsHaveFunctionTerm() const;
  /// Build().HasFunctionTerm(), without building: the atoms or a
  /// comparison hold a function term.
  bool HasFunctionTerm() const;
  /// The derived rule: the root rule under the unifier, with each resolved
  /// subgoal replaced by its definition's renamed body and every resolved
  /// definition's renamed comparisons appended to the root's.
  Rule Build() const;

  /// An atom or comparison of a numbered rule, its variable i renamed to
  /// `first` + i (a root given as a plain rule has `first` 0).
  template <typename T>
  struct Placed {
    const T* item;
    SymbolId first;
  };

 private:
  friend class UnfoldDriver;
  UnfoldLeaf(Placed<Atom> head, std::span<const Placed<Atom>> body,
             std::span<const Placed<Comparison>> comparisons,
             const Substitution& store)
      : head_(head), body_(body), comparisons_(comparisons), store_(store) {}

  Placed<Atom> head_;
  std::span<const Placed<Atom>> body_;
  std::span<const Placed<Comparison>> comparisons_;
  const Substitution& store_;
};

/// Receives each derivation with no IDB subgoal left; false stops the run.
using UnfoldVisitor = std::function<bool(const UnfoldLeaf&)>;

/// The one resolution driver. Renames apart each rule defining `goal` in
/// turn and, depth first, resolves the first IDB subgoal of each
/// derivation against every definition of its predicate, handing each
/// fully resolved derivation to `visit`. A derivation lives on one
/// trail-based Substitution and is never copied: a step mints the
/// definition's fresh block (whether or not it unifies), unifies the
/// subgoal with the renamed head and pushes the definition's body as a
/// new goal segment; the next IDB subgoal is searched from the resolved
/// position, and backtracking undoes the trail. Frames live on an
/// explicit stack, so a derivation's depth is bounded by memory, not by
/// the thread's stack.
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

/// UnfoldToUnion keeping only the disjuncts `keep` accepts; the others are
/// never built (UnionPlan drops every disjunct holding a Skolem term).
/// Every disjunct, kept or not, counts as unfolded.
Result<UnionQuery> UnfoldToUnion(
    Resolver& resolver, SymbolId goal, Interner* interner,
    const std::function<bool(const UnfoldLeaf&)>& keep);

/// UnfoldToUnion over `program`'s own rules.
Result<UnionQuery> UnfoldToUnion(const Program& program, SymbolId goal,
                                 Interner* interner);

}  // namespace relcont

#endif  // RELCONT_DATALOG_UNFOLD_H_

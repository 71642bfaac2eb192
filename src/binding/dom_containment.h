#ifndef RELCONT_BINDING_DOM_CONTAINMENT_H_
#define RELCONT_BINDING_DOM_CONTAINMENT_H_

#include <optional>
#include <span>

#include "datalog/unfold.h"

namespace relcont {

/// Representation limit: a UCQ disjunct's atoms and variables are indexed
/// into 64-bit masks, so disjuncts with more atoms or variables than this
/// are kUnsupported. No budget can lift it.
inline constexpr int kMaxDisjunctSize = 60;
static_assert(kMaxDisjunctSize <= 64, "disjunct masks are 64-bit words");

/// kUnsupported naming the limit when some disjunct of `q` has more than
/// kMaxDisjunctSize atoms or variables; OK otherwise.
Status CheckDisjunctSizes(const UnionQuery& q);

/// Decides containment of a `dom`-recursive datalog program in a union of
/// conjunctive queries — the decision problem at the heart of Theorem 4.2.
///
/// The plans produced by the binding-pattern construction (after expanding
/// source relations back to the mediated schema) have a restricted
/// recursion shape: the only recursive predicate is the unary accumulator
/// `dom`, whose rules are
///
///     dom(X)  :-  dom(Y1), ..., dom(Yk), e1, ..., em.      (node rules)
///     dom(c).                                              (facts)
///
/// An expansion of the goal is therefore a CORE (the nonrecursive part
/// unfolded) with dom-derivation TREES hanging off its dom subgoals; each
/// tree touches the rest of the expansion through a single boundary term.
/// A containment mapping from a UCQ disjunct decomposes along these
/// boundaries, so each tree is fully characterized by its PROFILE: which
/// atom subsets of which disjunct it can absorb, and how the absorbed
/// variables relate to the boundary and to constants. Profiles live in a
/// finite space; saturating the set of reachable profile sets explores all
/// infinitely many trees, making the check exact:
///
///   contained  ⇔  for every core and every reachable profile assignment
///                 to its dom subgoals, some disjunct embeds.
///
/// Saturation keeps at most one tree option per BuildOption call, and every
/// call charges the installed WorkBudget at site "dom_saturation"; every
/// (core, option assignment) combination checked charges it at site
/// "dom_check_cores". So one budget bounds both the running time and the
/// number of tree options kept, and with no budget installed the check
/// runs to completion. The reachable tree profile types and the
/// combinations checked are the `dom_tree_options` and `dom_cores_checked`
/// trace counters.
struct DomContainmentResult {
  bool contained = true;
  /// When !contained: a concrete expansion of the program that is not
  /// contained in the UCQ — freezing its body gives a counterexample
  /// database.
  std::optional<Rule> counterexample;
};

/// A dom node rule  dom(X) :- dom(Y1), ..., dom(Yk), e1, ..., em  as the
/// decider reads it, analyzed once: variables numbered 0..num_vars-1 in
/// first-occurrence order (as NumberedRule numbers them), so instantiating
/// it on a block of num_vars fresh ids renames the rule apart.
struct DomNodeRule {
  int32_t num_vars = 0;
  /// The head variable.
  int32_t output = 0;
  /// The distinct variable guards, in body order.
  std::vector<int32_t> guards;
  /// The body atoms other than dom, numbered.
  std::vector<Atom> body_edb;
  /// The constant guards dom(c), in body order.
  std::vector<Value> constant_guards;
};

/// A dom-shaped program split into what the decider reads.
struct DomProgram {
  /// The rules that do not define dom.
  std::span<const Rule> rest;
  /// The dom node rules, in program order.
  std::span<const DomNodeRule> nodes;
  /// The constants of the dom facts, in program order.
  std::vector<Value> facts;
  /// Leading entries of the decider's constant table, in order: the
  /// program's constants as it first meets them.
  std::vector<Value> constants;
};

/// Decides `program ⊑ q2` for a program already split (see
/// DomPlanContainedInUcq, which splits and then calls this).
Result<DomContainmentResult> DomProgramContainedInUcq(
    const DomProgram& program, SymbolId goal, SymbolId dom_pred,
    const UnionQuery& q2, Interner* interner);

/// Decides `program ⊑ q2` where `program`'s only recursion runs through
/// the unary predicate `dom_pred` (shape above) and everything is
/// comparison-free. Fails with kUnsupported if the program is outside the
/// shape or a UCQ disjunct has more than kMaxDisjunctSize atoms or
/// variables, and kBoundReached if the budget ran out (or a rule's child
/// combinations exceed the materialization guard) before the answer was
/// certain.
Result<DomContainmentResult> DomPlanContainedInUcq(
    const Program& program, SymbolId goal, SymbolId dom_pred,
    const UnionQuery& q2, Interner* interner);

}  // namespace relcont

#endif  // RELCONT_BINDING_DOM_CONTAINMENT_H_

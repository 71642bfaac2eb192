#ifndef RELCONT_DATALOG_RULE_H_
#define RELCONT_DATALOG_RULE_H_

#include <set>
#include <string>
#include <vector>

#include "common/status.h"
#include "datalog/atom.h"

namespace relcont {

/// A datalog rule `head :- body, comparisons`.
///
/// A conjunctive query is a single rule whose body mentions only EDB
/// predicates; a union of conjunctive queries is a set of rules sharing one
/// head predicate. Rules with empty heads (boolean queries) are modelled by
/// a zero-arity head predicate.
struct Rule {
  Atom head;
  std::vector<Atom> body;
  std::vector<Comparison> comparisons;

  Rule() = default;
  Rule(Atom head_in, std::vector<Atom> body_in,
       std::vector<Comparison> comparisons_in = {})
      : head(std::move(head_in)),
        body(std::move(body_in)),
        comparisons(std::move(comparisons_in)) {}

  /// All distinct variables of the rule, in first-occurrence order
  /// (head first, then body, then comparisons).
  std::vector<SymbolId> Variables() const;
  /// All distinct variables occurring in the head.
  std::vector<SymbolId> HeadVariables() const;
  /// Distinct variables occurring in the body (relational atoms only).
  std::vector<SymbolId> BodyVariables() const;
  /// All constant values occurring anywhere in the rule.
  std::vector<Value> Constants() const;
  /// True iff a function (Skolem) term occurs anywhere in the rule.
  bool HasFunctionTerm() const;

  /// Checks the safety requirements from Section 2.1: every head variable
  /// appears in a relational body subgoal, and every variable used in a
  /// comparison also appears in a relational body subgoal.
  Status CheckSafe() const;

  /// Renders "h(X) :- p(X, Y), Y < 10." style text.
  std::string ToString(const Interner& interner) const;

  friend bool operator==(const Rule& a, const Rule& b) {
    return a.head == b.head && a.body == b.body &&
           a.comparisons == b.comparisons;
  }
};

/// A union of conjunctive queries (UCQ): disjuncts share the head predicate
/// and arity. The empty UCQ is the unsatisfiable query.
struct UnionQuery {
  std::vector<Rule> disjuncts;

  bool empty() const { return disjuncts.empty(); }
  std::string ToString(const Interner& interner) const;
};

}  // namespace relcont

#endif  // RELCONT_DATALOG_RULE_H_

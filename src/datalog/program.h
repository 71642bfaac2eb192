#ifndef RELCONT_DATALOG_PROGRAM_H_
#define RELCONT_DATALOG_PROGRAM_H_

#include <set>
#include <string>
#include <vector>

#include "common/status.h"
#include "datalog/rule.h"

namespace relcont {

/// A datalog program: a finite set of rules. Predicates appearing in some
/// rule head are IDB predicates; all others are EDB predicates (stored
/// relations — in data integration, the source relations).
struct Program {
  std::vector<Rule> rules;

  Program() = default;
  explicit Program(std::vector<Rule> rules_in) : rules(std::move(rules_in)) {}

  /// Predicates defined by rules (appear in some head).
  std::set<SymbolId> IdbPredicates() const;
  /// Predicates only read (appear in bodies but never in a head).
  std::set<SymbolId> EdbPredicates() const;
  /// All constants mentioned anywhere.
  std::vector<Value> Constants() const;

  /// True iff some IDB predicate depends on itself (directly or through
  /// other IDB predicates).
  bool IsRecursive() const;
  /// The set of IDB predicates that participate in a dependency cycle.
  std::set<SymbolId> RecursivePredicates() const;

  /// Checks that all rules are safe and no EDB predicate occurs in a head
  /// position alongside being declared EDB elsewhere (i.e. the IDB/EDB split
  /// is consistent by construction here, so this just checks rule safety).
  Status CheckSafe() const;

  /// For a nonrecursive program, returns IDB predicates in a bottom-up
  /// evaluation order (definitions before uses). Fails with kUnsupported if
  /// the program is recursive.
  Result<std::vector<SymbolId>> TopologicalIdbOrder() const;

  std::string ToString(const Interner& interner) const;
};

}  // namespace relcont

#endif  // RELCONT_DATALOG_PROGRAM_H_

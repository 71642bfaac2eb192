#ifndef RELCONT_CONTAINMENT_CANONICAL_H_
#define RELCONT_CONTAINMENT_CANONICAL_H_

#include "common/status.h"
#include "datalog/substitution.h"
#include "eval/database.h"

namespace relcont {

/// The frozen (canonical) database of a conjunctive query: each distinct
/// variable becomes a fresh symbolic constant; the body atoms become facts.
struct FrozenQuery {
  Database database;
  /// The frozen head tuple — the tuple the query derives on its canonical
  /// database.
  Tuple head_tuple;
  /// Variable -> frozen constant.
  Substitution freezing;
};

/// Freezes a comparison-free conjunctive query (Chandra–Merlin canonical
/// database). Fails with kInvalidArgument on comparisons — those require a
/// canonical database per linearization (see comparison_containment).
Result<FrozenQuery> FreezeRule(const Rule& q, Interner* interner);

/// Decides ∪(q1) ⊑ P where P is an arbitrary (possibly recursive) datalog
/// program with goal predicate `goal`: freeze each disjunct and evaluate P
/// on the canonical database. Comparison-free only. When the containment
/// fails and `witness` is non-null, it receives the first disjunct of q1
/// whose canonical database defeats P.
Result<bool> UnionContainedInDatalog(const UnionQuery& q1, const Program& p,
                                     SymbolId goal, Interner* interner,
                                     Rule* witness = nullptr);

/// A variable-renaming-invariant fingerprint of `q`: every variable is
/// replaced by an index in first-occurrence order (head, then body, then
/// comparisons); predicates and constants render by their interned
/// spelling. Two rules have equal fingerprints iff they are syntactically
/// identical up to a consistent renaming of variables — the canonical-form
/// analogue of freezing that needs no fresh constants, so fingerprints
/// computed against *different* interners agree whenever the spellings do.
/// This is what makes it usable as a cross-worker cache key (see
/// ContainmentService::cache in service/service.h).
std::string CanonicalRuleFingerprint(const Rule& q, const Interner& interner);

/// Fingerprint of a goal query: the goal's spelling plus the rule
/// fingerprints sorted lexicographically (rule order never affects UCQ or
/// datalog semantics, so reorderings key identically).
std::string CanonicalProgramFingerprint(const Program& p, SymbolId goal,
                                        const Interner& interner);

}  // namespace relcont

#endif  // RELCONT_CONTAINMENT_CANONICAL_H_

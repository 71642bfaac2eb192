#ifndef RELCONT_RELCONT_GAV_H_
#define RELCONT_RELCONT_GAV_H_

#include "datalog/unfold.h"
#include "eval/database.h"
#include "relcont/relative_containment.h"

namespace relcont {

/// Global-as-view (GAV) source descriptions — the second approach the
/// paper discusses (Sections 1 and 6): here each MEDIATED relation is
/// defined as a view over the SOURCE relations, rather than the other way
/// around. The paper notes that "algorithms and complexity results for
/// relative containment are straightforward corollaries of traditional
/// query containment results" in this setting, because a query over the
/// mediated schema composes directly with the definitions into a query
/// over the sources. This module implements that corollary.
///
/// A GAV schema is a nonrecursive datalog program whose IDB predicates are
/// the mediated relations and whose EDB predicates are the sources. A
/// mediated relation may have several defining rules (union semantics).
class GavSchema {
 public:
  GavSchema() = default;
  explicit GavSchema(Program definitions)
      : definitions_(std::move(definitions)) {}

  const Program& definitions() const { return definitions_; }

  /// Mediated relations (defined by rules).
  std::set<SymbolId> MediatedPredicates() const {
    return definitions_.IdbPredicates();
  }
  /// Source relations (referenced only).
  std::set<SymbolId> SourcePredicates() const {
    return definitions_.EdbPredicates();
  }

  /// Checks the schema is safe, nonrecursive, and comparison-free.
  Status Validate() const;

  /// Composes `query` (over the mediated schema) with the definitions,
  /// yielding the equivalent UCQ over the sources. Under GAV semantics the
  /// certain answers of a query are exactly the answers of its
  /// composition on the source instance.
  Result<UnionQuery> Compose(const Program& query, SymbolId goal,
                             Interner* interner) const;

 private:
  Program definitions_;
};

/// Parses GAV definitions (one or more rules per mediated relation).
Result<GavSchema> ParseGavSchema(std::string_view text, Interner* interner);

/// Relative containment under GAV:  Q1 ⊑_G Q2  iff the composition of Q1
/// is classically contained in the composition of Q2 — ordinary UCQ
/// containment, hence NP-complete for conjunctive queries (in contrast to
/// the Π₂ᴾ-completeness of the local-as-view setting, Theorem 3.3).
Result<RelativeContainmentResult> GavRelativelyContained(
    const GoalQuery& q1, const GoalQuery& q2, const GavSchema& schema,
    Interner* interner);

/// Certain answers under GAV: evaluate the composition on the sources.
Result<std::vector<Tuple>> GavCertainAnswers(const Program& query,
                                             SymbolId goal,
                                             const GavSchema& schema,
                                             const Database& instance,
                                             Interner* interner);

}  // namespace relcont

#endif  // RELCONT_RELCONT_GAV_H_

#ifndef RELCONT_RELCONT_CERTAIN_ANSWERS_H_
#define RELCONT_RELCONT_CERTAIN_ANSWERS_H_

#include "eval/evaluator.h"
#include "rewriting/inverse_rules.h"

namespace relcont {

/// Certain answers (Definition 2.1): t is a certain answer to Q w.r.t. a
/// source instance I if t ∈ Q(D) for every database D over the mediated
/// schema with I ⊆ V(D) (incomplete sources / open-world assumption).
///
/// Three implementations are provided; the first is the production path,
/// the others are independent oracles used for cross-validation:
///  1. plan-based: evaluate the maximally-contained inverse-rule plan
///     (complete for datalog queries and conjunctive views [AD98, DGL]);
///  2. canonical-database: build the chase of the instance with labelled
///     nulls and evaluate the query, keeping null-free answers;
///  3. brute force: enumerate candidate databases over a bounded domain —
///     exponential, supports complete (closed-world) sources, exact on the
///     small instances used in tests (Example 5).

/// Plan-based certain answers. The query must be comparison-free and over
/// the mediated schema.
Result<std::vector<Tuple>> CertainAnswers(const Program& query, SymbolId goal,
                                          const ViewSet& views,
                                          const Database& instance,
                                          Interner* interner);

/// A certain answer together with the conjunctive plans that justify it —
/// which sources were combined, and through which rewriting. One answer
/// may have several independent justifications.
struct ProvenancedAnswer {
  Tuple tuple;
  /// Indices into the plan UCQ (also returned) of the disjuncts deriving
  /// the tuple on this instance.
  std::vector<int> disjuncts;
  /// Union of the source predicates those disjuncts read.
  std::set<SymbolId> sources;
};

struct ProvenanceResult {
  UnionQuery plan;
  std::vector<ProvenancedAnswer> answers;
};

/// Certain answers with provenance: evaluates the function-term-free plan
/// disjunct by disjunct and attributes each answer to the rewritings (and
/// hence sources) that produce it. Comparison-free queries over the
/// mediated schema.
Result<ProvenanceResult> CertainAnswersWithProvenance(
    const Program& query, SymbolId goal, const ViewSet& views,
    const Database& instance, Interner* interner);

/// Certain answers when the query and/or views carry comparison
/// predicates, by evaluating the Theorem 5.1 comparison-aware plan.
/// Complete for the semi-interval fragment ([21], Friedman's thesis —
/// beyond it certain answers can be co-NP-hard in data complexity and no
/// plan exists); always sound.
Result<std::vector<Tuple>> CertainAnswersWithComparisons(
    const Program& query, SymbolId goal, const ViewSet& views,
    const Database& instance, Interner* interner);

/// The canonical database (chase) of `instance` under `views`: for each
/// source tuple, the view body instantiated with the tuple's values, with a
/// fresh labelled null for each existential variable. Fails if some source
/// tuple cannot match its view head (e.g. a head constant clashes).
Result<Database> CanonicalDatabase(const ViewSet& views,
                                   const Database& instance,
                                   Interner* interner);

/// Certain answers via the canonical database: Q(chase(I)) minus tuples
/// containing labelled nulls. Independent of the inverse-rules machinery.
Result<std::vector<Tuple>> CertainAnswersViaCanonical(const Program& query,
                                                      SymbolId goal,
                                                      const ViewSet& views,
                                                      const Database& instance,
                                                      Interner* interner);

struct BruteForceOptions {
  /// Semantic: fresh constants added to the active domain of the instance
  /// when enumerating candidate databases.
  int extra_constants = 1;
};

/// Representation limit of the brute-force oracle: it enumerates and
/// materializes 2^n candidate databases over n potential facts, so it
/// gives up (kBoundReached) above this many.
inline constexpr int kMaxPotentialFacts = 22;

/// Brute-force certain answers over all candidate databases whose facts
/// draw on the instance's active domain plus `extra_constants` fresh
/// values. Respects per-view completeness: for an incomplete view,
/// consistency means v ⊆ view(D); for a complete view, v = view(D)
/// (Section 6 / Example 5). Returns kBoundReached over kMaxPotentialFacts
/// potential facts, and kInvalidArgument if no candidate database is
/// consistent.
Result<std::vector<Tuple>> BruteForceCertainAnswers(
    const Program& query, SymbolId goal, const ViewSet& views,
    const Database& instance, Interner* interner,
    const BruteForceOptions& options = {});

}  // namespace relcont

#endif  // RELCONT_RELCONT_CERTAIN_ANSWERS_H_

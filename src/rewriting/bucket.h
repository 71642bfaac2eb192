#ifndef RELCONT_REWRITING_BUCKET_H_
#define RELCONT_REWRITING_BUCKET_H_

#include "datalog/unfold.h"
#include "rewriting/views.h"

namespace relcont {

/// The Bucket algorithm (Levy–Rajaraman–Ordille) — an independent
/// implementation of answering-queries-using-views, used to cross-validate
/// the inverse-rules pipeline: both must produce equivalent
/// maximally-contained plans.
///
/// For each query subgoal, the bucket holds the view subgoals it can unify
/// with; candidate rewritings are formed by picking one bucket entry per
/// subgoal and unifying simultaneously, and are kept exactly when their
/// expansion is contained in the query (soundness check). By
/// Levy–Mendelzon–Sagiv–Srivastava, conjunctive rewritings with one view
/// atom per query subgoal suffice for the maximally-contained plan of a
/// conjunctive query.
struct BucketStats {
  /// Bucket sizes per query subgoal.
  std::vector<int> bucket_sizes;
  /// Candidates formed / kept after the containment check.
  int64_t candidates = 0;
  int64_t kept = 0;
};

/// Computes the maximally-contained UCQ plan of the (nonrecursive,
/// comparison-free) query via buckets. The result is equivalent — as a
/// query over the sources — to UnionPlan(query, goal, views, ...).
Result<UnionQuery> BucketRewriting(const Program& query, SymbolId goal,
                                   const ViewSet& views, Interner* interner,
                                   BucketStats* stats = nullptr);

}  // namespace relcont

#endif  // RELCONT_REWRITING_BUCKET_H_

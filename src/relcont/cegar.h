#ifndef RELCONT_RELCONT_CEGAR_H_
#define RELCONT_RELCONT_CEGAR_H_

#include <atomic>
#include <cstdint>

#include "relcont/relative_containment.h"

namespace relcont {

/// Counterexample-guided (CEGAR) engine for the Section 3 decision.
///
/// The Theorem 3.1 procedure as written materializes BOTH unfolded plans
/// (up to 2^m disjuncts each on the Theorem 3.3 family) and scans every
/// left disjunct against the whole right union — ~4^m disjunct pairs. This
/// engine keeps the same semantics but never materializes either plan:
///
///   PROPOSE   Enumerate candidate counterexamples from a FACTORED left
///             plan: unfold Q1 to mediated-level templates, then treat
///             each template body atom as a choice point over the inverse
///             rules that can resolve it. A DFS over the choice points
///             composes the most-general unifiers incrementally; each leaf
///             is one left plan disjunct — a candidate source instance
///             (its frozen body) on which Q1 has a certain answer.
///             Candidates in which a Skolem term survives are skipped,
///             mirroring UnionPlan's function-term elimination.
///
///   CHECK     Decide whether Q2 covers the candidate WITHOUT unfolding
///             P2: a second DFS assigns every body atom of a right
///             template an (inverse-rule copy, candidate atom) pair,
///             unifying the atom with the copy's head (resolution) and the
///             copy's produced source atom against the candidate atom with
///             the candidate's terms rigid (the containment-mapping
///             semantics — candidate variables act as frozen constants).
///             This fuses "unfold P2" and "find a homomorphism" into one
///             search, so a cover costs one backtracking walk instead of a
///             scan of 2^m materialized right disjuncts.
///
///   REFINE    A successful cover touched only some candidate atoms (its
///             support) and the head. The left choice assignment restricted
///             to the support's variable-sharing closure is learned as a
///             blocking clause: any later proposal agreeing with it
///             produces syntactically identical atoms there, so the same
///             cover applies and the proposal is pruned unchecked.
///
/// The verdict contract matches the scan exactly: a candidate no right
/// template covers is a definite NO (reported as the witness, same shape
/// as a scan witness disjunct); exhausting the proposal space is a YES;
/// budget exhaustion surfaces as kBoundReached at the `cegar_search`
/// bound site, never as a verdict. RelativeContainmentResult::plan1/plan2
/// are left EMPTY — not materializing them is the point.
///
/// Known fallback: when a query IDB predicate collides with a mediated
/// (view-body) predicate, the two-level factorization no longer mirrors
/// the joint unfold, so the call transparently falls back to the scan
/// (identical verdicts by construction).

/// The engine counts its work as it goes, on every path including a
/// budget trip: cegar_proposals (left DFS leaves reached, including the
/// candidates function-term elimination skips), cegar_iterations (cover
/// checks) and cegar_blocking_clauses (clauses learned from covers).

/// A view of the process-wide cegar_* totals (trace::ProcessCounts), kept
/// only because servebench reads them by these names. Delete it with the
/// next change to servebench.
struct CegarGlobalCounters {
  std::atomic<uint64_t>& iterations;
  std::atomic<uint64_t>& blocking_clauses;
  std::atomic<uint64_t>& proposals;
};

CegarGlobalCounters& GlobalCegarCounters();

/// Decides Q1 ⊑_V Q2 with the CEGAR engine. Honors
/// `options.strategy == kAuto` by estimating the left plan width (the sum
/// over templates of the product of per-atom inverse-rule choices) and
/// delegating to the scan below CegarOptions::auto_width_threshold.
Result<RelativeContainmentResult> CegarRelativelyContained(
    const GoalQuery& q1, const GoalQuery& q2, const ViewSet& views,
    Interner* interner, const RelativeContainmentOptions& options = {});

}  // namespace relcont

#endif  // RELCONT_RELCONT_CEGAR_H_

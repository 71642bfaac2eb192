#ifndef RELCONT_RELCONT_RELATIVE_CONTAINMENT_H_
#define RELCONT_RELCONT_RELATIVE_CONTAINMENT_H_

#include <optional>
#include <string_view>

#include "datalog/unfold.h"
#include "rewriting/views.h"

namespace relcont {

/// Relative containment, Definition 2.3:  Q1 ⊑_V Q2  iff for every source
/// instance I, certain(Q1, I) ⊆ certain(Q2, I).
///
/// This header covers Section 3: positive (nonrecursive, comparison-free)
/// queries over conjunctive views with incomplete sources. The decision
/// procedure follows Theorem 3.1: build each query's maximally-contained
/// plan with the inverse rules, eliminate function terms, unfold to UCQs
/// over the sources, and test UCQ containment — Π₂ᴾ overall (the unfolded
/// plans can be exponentially large, each disjunct check is an NP
/// containment-mapping search), which Theorem 3.3 shows is optimal.

/// A query paired with its goal predicate.
struct GoalQuery {
  Program program;
  SymbolId goal = kInvalidSymbol;
};

/// Which engine runs the Section 3 plan comparison.
enum class ContainmentStrategy : int {
  /// Materialize both UCQ plans and scan every left disjunct against the
  /// full right union (the Theorem 3.1 procedure as written).
  kScan = 0,
  /// Counterexample-guided search (relcont/cegar.h): propose candidate
  /// source instances from a factored left plan, check cover on demand,
  /// learn blocking clauses. Identical verdicts; cheaper by roughly the
  /// right plan's width on wide instances; does NOT materialize the plans
  /// (RelativeContainmentResult::plan1/plan2 stay empty).
  kCegar,
  /// Estimate the left plan width and pick: kCegar at or above
  /// CegarOptions::auto_width_threshold, kScan below it.
  kAuto,
};

/// Short stable name ("scan", "cegar", "auto") for the protocol option and
/// the service cache fingerprint.
std::string_view ContainmentStrategyName(ContainmentStrategy s);

/// Parses the names produced by ContainmentStrategyName; nullopt on no
/// match (protocol callers reject the token with the valid spellings).
std::optional<ContainmentStrategy> ParseContainmentStrategy(
    std::string_view name);

/// Knobs for the CEGAR engine (see relcont/cegar.h).
struct CegarOptions {
  /// Learn a blocking clause from every successful cover and prune later
  /// proposals it subsumes. Turning this off never changes a verdict —
  /// the property tests rely on that (blocking-soundness seam); it only
  /// costs extra cover checks.
  bool enable_blocking = true;
  /// Left plan-width estimate at or above which kAuto picks the CEGAR
  /// engine. 2^9: the measured scan/cegar crossover on the Theorem 3.3
  /// family sits near 2^10 plan disjuncts (see EXPERIMENTS.md), and the
  /// estimate is an upper bound on the real width.
  int64_t auto_width_threshold = 512;
};

struct RelativeContainmentOptions {
  /// Engine for the Section 3 check. The library default stays kScan so
  /// direct callers (oracles, differential baselines) keep the exact
  /// pipeline they had; the service front door (DecideOptions) defaults
  /// to kAuto. Only the Section 3 regime honors this — the Theorem
  /// 3.2/5.1/5.2 routes always scan.
  ContainmentStrategy strategy = ContainmentStrategy::kScan;
  CegarOptions cegar;
};

/// Detailed outcome of a relative-containment decision.
struct RelativeContainmentResult {
  bool contained = false;
  /// The function-term-free UCQ plans over the sources used in the check.
  UnionQuery plan1;
  UnionQuery plan2;
  /// A witness disjunct of plan1 not contained in plan2 (set when
  /// !contained): evaluating it on its frozen body yields a source instance
  /// where certain(Q1) ⊄ certain(Q2).
  std::optional<Rule> witness;
};

/// Decides Q1 ⊑_V Q2 (Theorem 3.1 procedure). Queries must be
/// nonrecursive, comparison-free, and posed over the mediated schema.
Result<RelativeContainmentResult> RelativelyContained(
    const GoalQuery& q1, const GoalQuery& q2, const ViewSet& views,
    Interner* interner, const RelativeContainmentOptions& options = {});

/// Convenience: both directions.
Result<bool> RelativelyEquivalent(const GoalQuery& q1, const GoalQuery& q2,
                                  const ViewSet& views, Interner* interner,
                                  const RelativeContainmentOptions& options = {});

/// Section 5, Theorems 5.2/5.3: Q1 positive and comparison-free; Q2 and the
/// views may contain arbitrary comparison predicates. Decides Q1 ⊑_V Q2 by
/// the reduction  Q1 ⊑_V Q2  ⇔  P1^exp ⊑ Q2 , where P1 is Q1's
/// maximally-contained plan; the right-hand side is ordinary containment of
/// UCQs with comparisons (in Π₂ᴾ; the bound is tight by Theorem 3.3).
/// When the containment fails and `witness` is non-null, it receives the
/// failing expansion disjunct of Q1's plan.
Result<bool> RelativelyContainedViaExpansion(
    const GoalQuery& q1, const GoalQuery& q2, const ViewSet& views,
    Interner* interner, const RelativeContainmentOptions& options = {},
    Rule* witness = nullptr);

/// Theorem 3.2: relative containment is decidable when at most one of the
/// two queries is recursive. The two directions differ sharply:
///
///  * Q2 recursive (Q1 nonrecursive): exact — Q1's plan unfolds to a UCQ,
///    whose containment in Q2's recursive plan is decided by freezing each
///    disjunct and evaluating the plan (canonical databases).
///
///  * Q1 recursive (Q2 nonrecursive): the check is P1^exp ⊑ Q2 (the
///    Theorem 4.1 analogue the paper notes for the unrestricted setting).
///    Chaudhuri–Vardi makes this decidable in general; this implementation
///    answers definitively when Q1's recursion fits the dom shape or a
///    counterexample expansion exists within max_rule_applications, and
///    reports kBoundReached otherwise.
struct OneRecursiveOptions {
  /// Semantic: the derivation depth of the recursive-Q1 direction's
  /// expansion search (see ExpansionOptions::max_rule_applications).
  int max_rule_applications = 12;
};

/// When the containment fails and `witness` is non-null, it receives a
/// counterexample conjunctive query over the sources (a plan disjunct or
/// bounded expansion, depending on which query recurses).
Result<bool> RelativelyContainedOneRecursive(
    const GoalQuery& q1, const GoalQuery& q2, const ViewSet& views,
    Interner* interner, const OneRecursiveOptions& options = {},
    Rule* witness = nullptr);

/// The sources that MATTER for a (nonrecursive, comparison-free) query:
/// dropping an irrelevant source provably never changes the query's
/// certain answers (the maximally-contained plan stays equivalent). This
/// serves the introduction's "coverage and limitations" use case and the
/// update-independence application: certain answers are independent of
/// updates to irrelevant sources.
Result<std::set<SymbolId>> RelevantSources(const GoalQuery& query,
                                           const ViewSet& views,
                                           Interner* interner);

/// Section 5, Theorem 5.1: both queries positive with comparison
/// predicates, views conjunctive with comparison predicates. Builds both
/// comparison-aware maximally-contained plans and compares them over
/// consistent source instances (each left disjunct is augmented with the
/// comparisons its views guarantee). Complete for the semi-interval
/// fragment the theorem covers; sound in general.
Result<RelativeContainmentResult> RelativelyContainedWithComparisons(
    const GoalQuery& q1, const GoalQuery& q2, const ViewSet& views,
    Interner* interner, const RelativeContainmentOptions& options = {});

}  // namespace relcont

#endif  // RELCONT_RELCONT_RELATIVE_CONTAINMENT_H_

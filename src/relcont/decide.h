#ifndef RELCONT_RELCONT_DECIDE_H_
#define RELCONT_RELCONT_DECIDE_H_

#include <string_view>

#include "binding/adornment.h"
#include "relcont/binding_containment.h"
#include "relcont/relative_containment.h"

namespace relcont {

/// The front door: decides Q1 ⊑_V Q2 by dispatching to the right regime of
/// the paper automatically.
///
///   * binding patterns present         -> Section 4 (Theorems 4.1/4.2)
///   * any comparison predicates        -> Section 5 (Theorem 5.2 when Q1
///                                         is comparison-free, else the
///                                         Theorem 5.1 plan route)
///   * a recursive query                -> Theorem 3.2
///   * otherwise                        -> Section 3 (Theorem 3.1)
///
/// Binding patterns cannot currently be combined with comparison
/// predicates (neither does the paper combine them); that mix reports
/// kUnsupported.
struct DecideOptions {
  /// The step budget a decision runs under unless the caller sets its own:
  /// over 100x the most any decision of the test suite or the service
  /// benchmark charges (docs/ALGORITHMS.md §7), so it only trips on inputs
  /// whose plans blow up.
  static constexpr int64_t kDefaultMaxSteps = 1'000'000;

  /// Semantic: forwarded to the Theorem 3.2 recursive-Q1 direction (the
  /// derivation depth of its expansion search).
  int max_rule_applications = 12;

  // --- cooperative budget (see common/budget.h) ---------------------------
  // These bound HOW LONG the decision may run, never WHAT it answers: when
  // a bound trips the call returns kBoundReached instead of a verdict.
  // When a WorkBudget is already installed on the calling thread (the
  // service does this per request), that budget governs and these two
  // fields are ignored; they exist so direct library callers get the same
  // behavior without touching budget machinery.

  /// Wall-clock deadline for the whole decision in milliseconds; 0 = none.
  int64_t timeout_ms = 0;
  /// Total step budget (search nodes, linearizations, expansions, unfolding
  /// and saturation steps, derived facts) for the whole decision; <= 0 =
  /// unlimited.
  int64_t max_steps = kDefaultMaxSteps;
  /// Engine for the section3 regime (the other regimes always scan). The
  /// service front door defaults to kAuto — narrow instances keep the
  /// scan, wide ones get the CEGAR search (relcont/cegar.h). Exposed on
  /// the wire as `strategy=cegar|scan|auto` (docs/SERVICE.md).
  ContainmentStrategy strategy = ContainmentStrategy::kAuto;
};

/// Which part of the paper decided a containment question.
enum class Regime {
  kUnknown = 0,
  kSection3,    ///< Theorem 3.1: nonrecursive, comparison-free.
  kTheorem32,   ///< One recursive query.
  kSection4,    ///< Binding patterns (Theorems 4.1/4.2).
  kTheorem51,   ///< Comparisons on both sides.
  kTheorem52,   ///< Q1 comparison-free, Q2/views with comparisons.
};

/// A short stable name for `regime` ("section3", "theorem32", "section4",
/// "theorem51", "theorem52"; "unknown" for the default value).
std::string_view RegimeName(Regime regime);

/// Parses the names produced by RegimeName; Regime::kUnknown on no match.
Regime ParseRegime(std::string_view name);

struct Decision {
  bool contained = false;
  /// Which regime decided (for diagnostics and service metrics).
  Regime regime = Regime::kUnknown;
  /// A witness when not contained: every regime produces one. For
  /// section3/theorem51 it is a failing plan disjunct over the sources
  /// (theorem51 witnesses carry the comparisons their views guarantee, so
  /// the disjunct genuinely fails on a consistent instance); for
  /// theorem32/theorem52 a failing plan-expansion disjunct; for section4 a
  /// counterexample expansion. Evaluating the witness body (frozen) yields
  /// a source instance where certain(Q1) ⊄ certain(Q2).
  std::optional<Rule> witness;

  std::string_view regime_name() const { return RegimeName(regime); }
};

/// Thread-safety: this call is pure with respect to everything except
/// `interner`, which it mutates (fresh variables, Skolem symbols, frozen
/// constants). Interner is NOT thread-safe, so concurrent callers must not
/// share one — give each thread its own Interner and parse the inputs
/// against it (see service/service.h for the worker-arena pattern).
///
/// `plan` is the executable plan of `views` under the catalog's binding
/// patterns (ExecutablePlanTemplate::Compile), or null when the catalog has
/// none. With a plan the question is one for Section 4.
Result<Decision> DecideRelativeContainment(
    const GoalQuery& q1, const GoalQuery& q2, const ViewSet& views,
    const ExecutablePlanTemplate* plan, Interner* interner,
    const DecideOptions& options = {});

/// Compiles the plan of `views` under `patterns` when there are patterns,
/// then as above.
Result<Decision> DecideRelativeContainment(
    const GoalQuery& q1, const GoalQuery& q2, const ViewSet& views,
    const BindingPatterns& patterns, Interner* interner,
    const DecideOptions& options = {});

}  // namespace relcont

#endif  // RELCONT_RELCONT_DECIDE_H_

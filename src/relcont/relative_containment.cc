#include "relcont/relative_containment.h"

#include <algorithm>

#include "binding/dom_plan.h"
#include "common/budget.h"
#include "containment/canonical.h"
#include "containment/comparison_containment.h"
#include "containment/cq_containment.h"
#include "containment/expansion.h"
#include "relcont/cegar.h"
#include "rewriting/comparison_plans.h"
#include "rewriting/inverse_rules.h"
#include "trace/trace.h"

namespace relcont {

std::string_view ContainmentStrategyName(ContainmentStrategy s) {
  switch (s) {
    case ContainmentStrategy::kScan:
      return "scan";
    case ContainmentStrategy::kCegar:
      return "cegar";
    case ContainmentStrategy::kAuto:
      return "auto";
  }
  return "scan";
}

std::optional<ContainmentStrategy> ParseContainmentStrategy(
    std::string_view name) {
  if (name == "scan") return ContainmentStrategy::kScan;
  if (name == "cegar") return ContainmentStrategy::kCegar;
  if (name == "auto") return ContainmentStrategy::kAuto;
  return std::nullopt;
}

namespace {

// The shared Π₂ᴾ hot loop: find some disjunct of `disjuncts` that `check`
// reports NOT contained. Returns its index, nullopt when every disjunct is
// covered, or an error status. The verdict policy:
//   1. a definite counterexample (check returned false) always wins — even
//      when an earlier disjunct's check erred (e.g. hit a budget bound):
//      one failing disjunct already refutes the containment;
//   2. otherwise the first error, by disjunct index, propagates;
//   3. otherwise every disjunct completed affirmatively: contained.
Result<std::optional<size_t>> FindUncoveredDisjunct(
    const std::vector<Rule>& disjuncts,
    const std::function<Result<bool>(const Rule&)>& check) {
  std::optional<Status> first_error;
  for (size_t i = 0; i < disjuncts.size(); ++i) {
    Result<bool> r = check(disjuncts[i]);
    if (!r.ok()) {
      if (!first_error.has_value()) first_error = r.status();
      // Under an exhausted budget no later check can report a definite
      // counterexample (a negative needs a completed search), so the
      // rest of the scan could only repeat the error.
      if (BudgetExhausted()) break;
      continue;
    }
    if (!*r) return std::optional<size_t>(i);
  }
  if (first_error.has_value()) return *first_error;
  return std::optional<size_t>(std::nullopt);
}

}  // namespace

Result<RelativeContainmentResult> RelativelyContained(
    const GoalQuery& q1, const GoalQuery& q2, const ViewSet& views,
    Interner* interner, const RelativeContainmentOptions& options) {
  if (options.strategy != ContainmentStrategy::kScan) {
    // kCegar and kAuto route through the CEGAR engine (which itself
    // delegates narrow instances back here with strategy forced to kScan).
    return CegarRelativelyContained(q1, q2, views, interner, options);
  }
  RelativeContainmentResult out;
  {
    RELCONT_TRACE_SPAN("build_plans");
    // Both input checks before either unfolding, Q1 first: an input error
    // outranks an unfolding error, as in CEGAR.
    RELCONT_RETURN_NOT_OK(CheckPlannableQuery(q1.program, views));
    RELCONT_RETURN_NOT_OK(CheckPlannableQuery(q2.program, views));
    RELCONT_ASSIGN_OR_RETURN(
        out.plan1, UnionPlan(q1.program, q1.goal, views, interner));
    RELCONT_ASSIGN_OR_RETURN(
        out.plan2, UnionPlan(q2.program, q2.goal, views, interner));
  }
  RELCONT_TRACE_SPAN("containment_check");
  RELCONT_ASSIGN_OR_RETURN(
      std::optional<size_t> uncovered,
      FindUncoveredDisjunct(
          out.plan1.disjuncts,
          [&](const Rule& d) { return CqContainedInUnion(d, out.plan2); }));
  out.contained = !uncovered.has_value();
  if (uncovered.has_value()) out.witness = out.plan1.disjuncts[*uncovered];
  return out;
}

Result<bool> RelativelyEquivalent(const GoalQuery& q1, const GoalQuery& q2,
                                  const ViewSet& views, Interner* interner,
                                  const RelativeContainmentOptions& options) {
  RELCONT_ASSIGN_OR_RETURN(RelativeContainmentResult forward,
                           RelativelyContained(q1, q2, views, interner,
                                               options));
  if (!forward.contained) return false;
  RELCONT_ASSIGN_OR_RETURN(RelativeContainmentResult backward,
                           RelativelyContained(q2, q1, views, interner,
                                               options));
  return backward.contained;
}

Result<bool> RelativelyContainedOneRecursive(
    const GoalQuery& q1, const GoalQuery& q2, const ViewSet& views,
    Interner* interner, const OneRecursiveOptions& options, Rule* witness) {
  bool q1_recursive = q1.program.IsRecursive();
  bool q2_recursive = q2.program.IsRecursive();
  if (q1_recursive && q2_recursive) {
    return Status::Unsupported(
        "Theorem 3.2 requires at most one recursive query; containment of "
        "two recursive datalog programs is undecidable [Shmueli]");
  }
  if (!q1_recursive && !q2_recursive) {
    RELCONT_ASSIGN_OR_RETURN(RelativeContainmentResult plain,
                             RelativelyContained(q1, q2, views, interner));
    if (!plain.contained && witness != nullptr && plain.witness.has_value()) {
      *witness = *plain.witness;
    }
    return plain.contained;
  }
  if (q2_recursive) {
    // Exact: UCQ plan of Q1 contained in the recursive plan of Q2, by
    // canonical databases.
    UnionQuery plan1;
    Program p2;
    {
      RELCONT_TRACE_SPAN("build_plans");
      RELCONT_ASSIGN_OR_RETURN(
          plan1, UnionPlan(q1.program, q1.goal, views, interner));
      RELCONT_ASSIGN_OR_RETURN(
          p2, MaximallyContainedPlan(q2.program, views, interner));
    }
    RELCONT_TRACE_SPAN("containment_check");
    return UnionContainedInDatalog(plan1, p2, q2.goal, interner, witness);
  }
  // Q1 recursive: P1^exp ⊑ Q2 via bounded expansion search over the
  // expansion of Q1's plan against the catalog's unguarded inverse rules
  // (no dom rules: without binding patterns every source is callable).
  ExpandedExecutablePlan p1_exp;
  UnionQuery q2_ucq;
  {
    RELCONT_TRACE_SPAN("build_plans");
    RELCONT_ASSIGN_OR_RETURN(
        p1_exp, ExpandExecutablePlan(q1.program, q1.goal, views,
                                     /*plan=*/nullptr, interner));
    RELCONT_ASSIGN_OR_RETURN(
        q2_ucq, UnfoldToUnion(q2.program, q2.goal, interner));
  }
  RELCONT_TRACE_SPAN("containment_check");
  ExpansionOptions bounds;
  bounds.max_rule_applications = options.max_rule_applications;
  return DatalogContainedInUcqBounded(p1_exp.program, q1.goal, q2_ucq,
                                      interner, bounds, witness);
}

Result<std::set<SymbolId>> RelevantSources(const GoalQuery& query,
                                           const ViewSet& views,
                                           Interner* interner) {
  RELCONT_ASSIGN_OR_RETURN(
      UnionQuery full, UnionPlan(query.program, query.goal, views, interner));
  std::set<SymbolId> relevant;
  for (const ViewDefinition& dropped : views.views()) {
    // The plan without `dropped` is the full plan's disjuncts that do not
    // read it: a disjunct picks one inverse rule per mediated atom, and
    // each pick leaves its source atom in the disjunct.
    UnionQuery reduced;
    for (const Rule& d : full.disjuncts) {
      if (std::ranges::none_of(d.body, [&](const Atom& a) {
            return a.predicate == dropped.source_predicate();
          })) {
        reduced.disjuncts.push_back(d);
      }
    }
    // The reduced plan is always contained in the full one; the source is
    // relevant iff the converse fails.
    RELCONT_ASSIGN_OR_RETURN(bool same, UnionContainedInUnion(full, reduced));
    if (!same) relevant.insert(dropped.source_predicate());
  }
  return relevant;
}

Result<bool> RelativelyContainedViaExpansion(
    const GoalQuery& q1, const GoalQuery& q2, const ViewSet& views,
    Interner* interner, const RelativeContainmentOptions& /*options*/,
    Rule* witness) {
  for (const Rule& r : q1.program.rules) {
    if (!r.comparisons.empty()) {
      return Status::Unsupported(
          "Theorem 5.2 requires the contained query to be comparison-free");
    }
  }
  UnionQuery p1_exp;
  UnionQuery q2_ucq;
  {
    RELCONT_TRACE_SPAN("build_plans");
    RELCONT_ASSIGN_OR_RETURN(
        UnionQuery plan1, UnionPlan(q1.program, q1.goal, views, interner));
    RELCONT_ASSIGN_OR_RETURN(p1_exp, ExpandUnionPlan(plan1, views, interner));
    RELCONT_ASSIGN_OR_RETURN(
        q2_ucq, UnfoldToUnion(q2.program, q2.goal, interner));
  }
  RELCONT_TRACE_SPAN("containment_check");
  RELCONT_ASSIGN_OR_RETURN(
      std::optional<size_t> uncovered,
      FindUncoveredDisjunct(p1_exp.disjuncts, [&](const Rule& d) {
        return CqContainedInUnionComplete(d, q2_ucq);
      }));
  if (uncovered.has_value()) {
    if (witness != nullptr) *witness = p1_exp.disjuncts[*uncovered];
    return false;
  }
  return true;
}

Result<RelativeContainmentResult> RelativelyContainedWithComparisons(
    const GoalQuery& q1, const GoalQuery& q2, const ViewSet& views,
    Interner* interner, const RelativeContainmentOptions& /*options*/) {
  RelativeContainmentResult out;
  {
    RELCONT_TRACE_SPAN("build_plans");
    RELCONT_ASSIGN_OR_RETURN(
        out.plan1, ComparisonAwarePlan(q1.program, q1.goal, views, interner));
    RELCONT_ASSIGN_OR_RETURN(
        out.plan2, ComparisonAwarePlan(q2.program, q2.goal, views, interner));
  }
  RELCONT_TRACE_SPAN("containment_check");
  // Compare over consistent instances: each left disjunct may assume every
  // comparison its views guarantee. Every disjunct is augmented before the
  // scan starts.
  std::vector<Rule> augmented;
  augmented.reserve(out.plan1.disjuncts.size());
  for (const Rule& d : out.plan1.disjuncts) {
    RELCONT_ASSIGN_OR_RETURN(Rule a,
                             AugmentWithViewConstraints(d, views, interner));
    augmented.push_back(std::move(a));
  }
  RELCONT_ASSIGN_OR_RETURN(
      std::optional<size_t> uncovered,
      FindUncoveredDisjunct(augmented, [&](const Rule& a) {
        return CqContainedInUnionComplete(a, out.plan2);
      }));
  out.contained = !uncovered.has_value();
  if (uncovered.has_value()) {
    // The witness is the *augmented* disjunct — the raw disjunct without
    // its view-guaranteed comparisons may still be contained, so only the
    // augmented form genuinely fails on a consistent source instance
    // (this mirrors the section3 path, where the disjunct that failed the
    // check is exactly the witness reported).
    out.witness = augmented[*uncovered];
  }
  return out;
}

}  // namespace relcont

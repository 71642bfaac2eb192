#include "relcont/decide.h"

#include <optional>

#include "common/budget.h"
#include "trace/trace.h"

namespace relcont {

namespace {

bool HasComparisons(const Program& p) {
  for (const Rule& r : p.rules) {
    if (!r.comparisons.empty()) return true;
  }
  return false;
}

}  // namespace

std::string_view RegimeName(Regime regime) {
  switch (regime) {
    case Regime::kUnknown:
      return "unknown";
    case Regime::kSection3:
      return "section3";
    case Regime::kTheorem32:
      return "theorem32";
    case Regime::kSection4:
      return "section4";
    case Regime::kTheorem51:
      return "theorem51";
    case Regime::kTheorem52:
      return "theorem52";
  }
  return "unknown";
}

Regime ParseRegime(std::string_view name) {
  if (name == "section3") return Regime::kSection3;
  if (name == "theorem32") return Regime::kTheorem32;
  if (name == "section4") return Regime::kSection4;
  if (name == "theorem51") return Regime::kTheorem51;
  if (name == "theorem52") return Regime::kTheorem52;
  return Regime::kUnknown;
}

Result<Decision> DecideRelativeContainment(
    const GoalQuery& q1, const GoalQuery& q2, const ViewSet& views,
    const BindingPatterns& patterns, Interner* interner,
    const DecideOptions& options) {
  if (patterns.empty()) {
    return DecideRelativeContainment(q1, q2, views, nullptr, interner,
                                     options);
  }
  RELCONT_ASSIGN_OR_RETURN(ExecutablePlanTemplate plan,
                           ExecutablePlanTemplate::Compile(views, patterns));
  return DecideRelativeContainment(q1, q2, views, &plan, interner, options);
}

Result<Decision> DecideRelativeContainment(
    const GoalQuery& q1, const GoalQuery& q2, const ViewSet& views,
    const ExecutablePlanTemplate* plan, Interner* interner,
    const DecideOptions& options) {
  RELCONT_TRACE_SPAN("decide");
  // Library-direct callers with no installed budget get a local root
  // budget for this call. When a budget is already installed (the
  // service's per-request budget), it governs and the option fields are
  // ignored — one budget per request, owned at the outermost layer.
  std::optional<WorkBudget> local_budget;
  std::optional<BudgetScope> local_scope;
  if (CurrentBudget() == nullptr &&
      (options.timeout_ms > 0 || options.max_steps > 0)) {
    local_budget.emplace();
    local_budget->set_limits(options.timeout_ms, options.max_steps);
    local_scope.emplace(&*local_budget);
  }
  bool comparisons = HasComparisons(q1.program) || HasComparisons(q2.program) ||
                     views.has_comparisons();
  Decision out;
  if (plan != nullptr) {
    if (comparisons) {
      return Status::Unsupported(
          "binding patterns combined with comparison predicates are outside "
          "the paper's decidable fragments");
    }
    RELCONT_TRACE_SPAN("regime_section4");
    RELCONT_ASSIGN_OR_RETURN(
        BindingRelativeResult r,
        RelativelyContainedWithBindingPatterns(q1, q2, views, *plan,
                                               interner));
    out.contained = r.contained;
    out.regime = Regime::kSection4;
    out.witness = r.counterexample;
    return out;
  }
  if (comparisons) {
    if (!HasComparisons(q1.program)) {
      RELCONT_TRACE_SPAN("regime_theorem52");
      Rule witness;
      RELCONT_ASSIGN_OR_RETURN(
          bool contained,
          RelativelyContainedViaExpansion(q1, q2, views, interner, {},
                                          &witness));
      out.contained = contained;
      out.regime = Regime::kTheorem52;
      if (!contained) out.witness = witness;
      return out;
    }
    RELCONT_TRACE_SPAN("regime_theorem51");
    RELCONT_ASSIGN_OR_RETURN(
        RelativeContainmentResult r,
        RelativelyContainedWithComparisons(q1, q2, views, interner));
    out.contained = r.contained;
    out.regime = Regime::kTheorem51;
    out.witness = r.witness;
    return out;
  }
  if (q1.program.IsRecursive() || q2.program.IsRecursive()) {
    RELCONT_TRACE_SPAN("regime_theorem32");
    OneRecursiveOptions rec_opts;
    rec_opts.max_rule_applications = options.max_rule_applications;
    Rule witness;
    RELCONT_ASSIGN_OR_RETURN(
        bool contained,
        RelativelyContainedOneRecursive(q1, q2, views, interner, rec_opts,
                                        &witness));
    out.contained = contained;
    out.regime = Regime::kTheorem32;
    if (!contained) out.witness = witness;
    return out;
  }
  RELCONT_TRACE_SPAN("regime_section3");
  RelativeContainmentOptions rel_opts;
  rel_opts.strategy = options.strategy;
  RELCONT_ASSIGN_OR_RETURN(
      RelativeContainmentResult r,
      RelativelyContained(q1, q2, views, interner, rel_opts));
  out.contained = r.contained;
  out.regime = Regime::kSection3;
  out.witness = r.witness;
  return out;
}

}  // namespace relcont

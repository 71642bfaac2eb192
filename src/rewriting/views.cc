#include "rewriting/views.h"

#include <algorithm>

#include "constraints/order_constraints.h"
#include "datalog/parser.h"

namespace relcont {

namespace {

bool IsNumericConst(const Term& t) {
  return t.is_constant() && t.value().is_number();
}

// Emits the strongest comparison entailed between two visible points, if
// any.
void EmitStrongest(const OrderConstraints& solver, const Term& a,
                   const Term& b, std::vector<Comparison>* out) {
  auto entails = [&](ComparisonOp op) {
    return solver.Entails(Comparison(a, op, b));
  };
  if (entails(ComparisonOp::kEq)) {
    out->emplace_back(a, ComparisonOp::kEq, b);
    return;
  }
  if (entails(ComparisonOp::kLt)) {
    out->emplace_back(a, ComparisonOp::kLt, b);
    return;
  }
  if (entails(ComparisonOp::kGt)) {
    out->emplace_back(a, ComparisonOp::kGt, b);
    return;
  }
  bool le = entails(ComparisonOp::kLe);
  bool ge = entails(ComparisonOp::kGe);
  bool ne = entails(ComparisonOp::kNe);
  if (le) out->emplace_back(a, ComparisonOp::kLe, b);
  if (ge) out->emplace_back(a, ComparisonOp::kGe, b);
  if (ne && !le && !ge) out->emplace_back(a, ComparisonOp::kNe, b);
}

}  // namespace

Result<std::vector<Comparison>> ProjectConstraintsToHead(
    const Rule& view_rule) {
  OrderConstraints solver;
  for (SymbolId v : view_rule.BodyVariables()) {
    RELCONT_RETURN_NOT_OK(solver.AddPoint(Term::Var(v)));
  }
  std::vector<Term> visible;
  for (SymbolId v : view_rule.HeadVariables()) visible.push_back(Term::Var(v));
  for (const Value& c : view_rule.Constants()) {
    if (c.is_number()) {
      Term t = Term::Constant(c);
      RELCONT_RETURN_NOT_OK(solver.AddPoint(t));
      visible.push_back(t);
    }
  }
  RELCONT_RETURN_NOT_OK(solver.AddAll(view_rule.comparisons));
  std::vector<Comparison> out;
  for (size_t i = 0; i < visible.size(); ++i) {
    for (size_t j = i + 1; j < visible.size(); ++j) {
      if (IsNumericConst(visible[i]) && IsNumericConst(visible[j])) continue;
      EmitStrongest(solver, visible[i], visible[j], &out);
    }
  }
  return out;
}

Result<ViewSet> ViewSet::Make(std::vector<ViewDefinition> views,
                              Interner* interner) {
  ViewSet out;
  for (const ViewDefinition& view : views) {
    SymbolId source = view.source_predicate();
    if (!out.index_.emplace(source, static_cast<int>(out.index_.size()))
             .second) {
      return Status::InvalidArgument(
          "duplicate view definition for a source predicate");
    }
    if (view.rule.body.empty()) {
      return Status::InvalidArgument("view body must not be empty");
    }
    RELCONT_RETURN_NOT_OK(view.rule.CheckSafe());
    out.sources_.insert(source);
    out.has_comparisons_ |= !view.rule.comparisons.empty();
  }
  for (const ViewDefinition& view : views) {
    for (const Atom& a : view.rule.body) {
      if (out.sources_.count(a.predicate) > 0) {
        return Status::InvalidArgument(
            "a source predicate occurs in a view body");
      }
      out.mediated_.insert(a.predicate);
    }
  }
  // Checked: compile. A rejected set interns nothing.
  for (const ViewDefinition& view : views) {
    // σ maps each existential variable, in body order, to the Skolem term
    // f_<source>_<var> over the head variables.
    const Rule& rule = view.rule;
    std::vector<SymbolId> head_vars = rule.HeadVariables();
    std::vector<Term> skolem_args;
    for (SymbolId v : head_vars) skolem_args.push_back(Term::Var(v));
    Substitution sigma;
    for (SymbolId v : rule.BodyVariables()) {
      if (std::ranges::find(head_vars, v) != head_vars.end()) continue;
      std::string name = "f_" + interner->NameOf(view.source_predicate()) +
                         "_" + interner->NameOf(v);
      sigma.Bind(v, Term::Function(interner->Intern(name), skolem_args));
    }
    for (const Atom& subgoal : rule.body) {
      out.inverse_rules_.rules.emplace_back(sigma.Apply(subgoal),
                                            std::vector<Atom>{rule.head});
      out.inverse_by_head_[subgoal.predicate].emplace_back(
          out.inverse_rules_.rules.back());
    }
    out.inverse_begin_.push_back(out.inverse_rules_.rules.size());
    out.numbered_.emplace_back(rule);
    out.head_constraints_.push_back(
        rule.comparisons.empty() ? std::vector<Comparison>{}
                                 : ProjectConstraintsToHead(rule));
    std::vector<Value> constants = rule.Constants();
    out.constants_.insert(out.constants_.end(), constants.begin(),
                          constants.end());
  }
  for (SymbolId p : out.mediated_) {
    out.primed_.emplace(p, interner->Intern(PrimedName(interner->NameOf(p))));
  }
  for (size_t v = 0; v < views.size(); ++v) {
    std::vector<SymbolId> order = views[v].rule.Variables();
    for (const Rule& inverse : out.InverseRulesOf(v)) {
      Atom head = inverse.head;
      head.predicate = out.primed_.at(head.predicate);
      out.inverse_view_.push_back(v);
      // Instantiated at 0: the head with its variables' view numbers.
      out.primed_heads_.push_back(
          NumberedRule(Rule(std::move(head), {}), order).Instantiate(0).head);
    }
  }
  out.views_ = std::move(views);
  return out;
}

int ViewSet::IndexOf(SymbolId source_pred) const {
  auto it = index_.find(source_pred);
  return it == index_.end() ? -1 : it->second;
}

const ViewDefinition* ViewSet::Find(SymbolId source_pred) const {
  int i = IndexOf(source_pred);
  return i < 0 ? nullptr : &views_[i];
}

Rule ViewSet::ExpandedInverseRule(size_t i, SymbolId first) const {
  Rule out = numbered_[inverse_view_[i]].Instantiate(first);
  out.head = InstantiateNumbered(primed_heads_[i], first);
  return out;
}

SymbolId ViewSet::Primed(SymbolId mediated) const {
  auto it = primed_.find(mediated);
  return it == primed_.end() ? kInvalidSymbol : it->second;
}

std::string PrimedName(std::string_view name) {
  return std::string(name) + "'";
}

std::span<const Rule> ViewSet::InverseRulesOf(size_t i) const {
  return std::span<const Rule>(inverse_rules_.rules)
      .subspan(inverse_begin_[i], inverse_begin_[i + 1] - inverse_begin_[i]);
}

std::span<const NumberedRule> ViewSet::InverseRulesWithHead(
    SymbolId mediated) const {
  auto it = inverse_by_head_.find(mediated);
  if (it == inverse_by_head_.end()) return {};
  return it->second;
}

std::string ViewSet::ToString(const Interner& interner) const {
  std::string out;
  for (const ViewDefinition& v : views_) {
    out += v.rule.ToString(interner);
    if (v.complete) out += "  % complete";
    out += '\n';
  }
  return out;
}

Result<ViewSet> ParseViews(std::string_view text, Interner* interner) {
  RELCONT_ASSIGN_OR_RETURN(Program program, ParseProgram(text, interner));
  std::vector<ViewDefinition> views;
  views.reserve(program.rules.size());
  for (Rule& r : program.rules) views.push_back({std::move(r), false});
  return ViewSet::Make(std::move(views), interner);
}

}  // namespace relcont

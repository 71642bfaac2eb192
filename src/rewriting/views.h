#ifndef RELCONT_REWRITING_VIEWS_H_
#define RELCONT_REWRITING_VIEWS_H_

#include <set>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "datalog/program.h"
#include "datalog/substitution.h"

namespace relcont {

/// A local-as-view source description  V(X̄) ⊇ Q(X̄)  (Section 2.2): the
/// source relation `rule.head.predicate` contains a subset of the answers
/// to the conjunctive query `rule` over the mediated schema. A complete
/// source (V = Q, the closed-world assumption) is marked with `complete`.
struct ViewDefinition {
  Rule rule;
  bool complete = false;

  SymbolId source_predicate() const { return rule.head.predicate; }
};

/// The compiled catalog of a data integration system: the available
/// sources, checked once when the set is built and immutable afterwards,
/// together with everything that depends only on them (the source and
/// mediated predicate sets, the source index and the inverse rules).
/// Every decider reads these; none derives them again per request.
class ViewSet {
 public:
  /// The empty catalog.
  ViewSet() = default;

  /// Checks and compiles `views`: one view per source, non-empty bodies,
  /// safe rules, and no source predicate in any view body (sources are not
  /// mediated relations). Interns the Skolem function names of the
  /// inverse rules into `interner`; the compiled rules hold no fresh ids.
  static Result<ViewSet> Make(std::vector<ViewDefinition> views,
                              Interner* interner);

  const std::vector<ViewDefinition>& views() const { return views_; }
  bool empty() const { return views_.empty(); }
  size_t size() const { return views_.size(); }

  /// The position in views() of the view defining `source_pred`, or -1.
  int IndexOf(SymbolId source_pred) const;
  /// The view defining `source_pred`, or nullptr.
  const ViewDefinition* Find(SymbolId source_pred) const;

  /// All source predicates.
  const std::set<SymbolId>& SourcePredicates() const { return sources_; }
  /// All mediated-schema predicates mentioned in view bodies.
  const std::set<SymbolId>& MediatedPredicates() const { return mediated_; }
  /// All constants in the view definitions, in view order.
  const std::vector<Value>& Constants() const { return constants_; }
  /// True iff some view has a comparison subgoal.
  bool has_comparisons() const { return has_comparisons_; }

  /// The inverse rules of Duschka–Genesereth–Levy (Section 2.3): each view
  /// v(X̄) :- b1, ..., bn  contributes  b1σ :- v(X̄) ... bnσ :- v(X̄)  in
  /// view order, σ mapping each existential variable of the view (in body
  /// order) to a Skolem term f_v_var(X̄) over its distinguished variables.
  /// Comparison subgoals are dropped; the source guarantees them.
  const Program& inverse_rules() const { return inverse_rules_; }
  /// The inverse rules of views()[i], a contiguous run of inverse_rules().
  std::span<const Rule> InverseRulesOf(size_t i) const;
  /// The inverse rules with head predicate `mediated`, in inverse_rules()
  /// order and with their variables numbered (for resolving a mediated
  /// subgoal); empty for a predicate no view body mentions.
  std::span<const NumberedRule> InverseRulesWithHead(SymbolId mediated) const;
  /// views()[i]'s rule with its variables numbered, for resolving a source
  /// subgoal against the view definition.
  const NumberedRule& NumberedView(size_t i) const { return numbered_[i]; }

  /// The plan's copy of the mediated predicate `mediated` in an expanded
  /// plan (P^exp), which reads the stored relation of the same name; or
  /// kInvalidSymbol if no view body mentions it. Interned by Make with the
  /// spelling PrimedName.
  SymbolId Primed(SymbolId mediated) const;
  /// inverse_rules()[i] expanded over the stored relations and renamed
  /// onto the block of fresh ids from `first` (as many as its view's
  /// NumberedView has variables): its head with the predicate Primed, then
  /// the body and comparisons of its view. This is what resolving the
  /// inverse rule's source subgoal against the view renamed onto that
  /// block gives.
  Rule ExpandedInverseRule(size_t i, SymbolId first) const;
  /// The view whose inverse rule is inverse_rules()[i].
  size_t ViewOfInverseRule(size_t i) const { return inverse_view_[i]; }
  /// The dense-order constraints views()[i] guarantees about its head
  /// (ProjectConstraintsToHead of its rule), computed once here. A view
  /// without comparisons guarantees none. A projection that fails is
  /// stored as its status; it surfaces when a plan reads the view, never
  /// at Make.
  const Result<std::vector<Comparison>>& HeadConstraints(size_t i) const {
    return head_constraints_[i];
  }

  std::string ToString(const Interner& interner) const;

 private:
  std::vector<ViewDefinition> views_;
  std::unordered_map<SymbolId, int> index_;
  std::set<SymbolId> sources_;
  std::set<SymbolId> mediated_;
  std::vector<Value> constants_;
  bool has_comparisons_ = false;
  Program inverse_rules_;
  /// InverseRulesOf(i) starts at inverse_begin_[i] and ends at
  /// inverse_begin_[i + 1].
  std::vector<size_t> inverse_begin_{0};
  std::unordered_map<SymbolId, std::vector<NumberedRule>> inverse_by_head_;
  std::vector<NumberedRule> numbered_;
  std::unordered_map<SymbolId, SymbolId> primed_;
  /// Per inverse rule: its view, and its head primed and numbered as its
  /// view's NumberedView.
  std::vector<size_t> inverse_view_;
  std::vector<Atom> primed_heads_;
  std::vector<Result<std::vector<Comparison>>> head_constraints_;
};

/// The dense-order constraints of `view_rule`'s body projected onto its
/// distinguished (head) variables and the numeric constants occurring in
/// it: the strongest comparisons between visible points entailed by the
/// view definition, in head-variable order. E.g. v(X) :- p(X, Y), X < Y,
/// Y < 5 projects to X < 5.
Result<std::vector<Comparison>> ProjectConstraintsToHead(
    const Rule& view_rule);

/// The name of the primed copy of predicate `name`: "name'". The parser
/// reads no quote in an identifier, so no query or catalog spells it.
std::string PrimedName(std::string_view name);

/// Parses one view definition per rule and builds them with
/// ViewSet::Make. All parsed views are incomplete (open-world) sources;
/// copy views(), flip `complete` and Make again for closed-world
/// experiments.
Result<ViewSet> ParseViews(std::string_view text, Interner* interner);

}  // namespace relcont

#endif  // RELCONT_REWRITING_VIEWS_H_

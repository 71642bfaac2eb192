#ifndef RELCONT_BINDING_DOM_PLAN_H_
#define RELCONT_BINDING_DOM_PLAN_H_

#include "binding/adornment.h"
#include "binding/dom_containment.h"
#include "eval/evaluator.h"
#include "rewriting/views.h"

namespace relcont {

struct ExecutablePlanResult;

/// The catalog's share of the Duschka–Genesereth–Levy executable plan under
/// binding-pattern restrictions (Section 4 of the paper; Definition 4.4),
/// compiled once per catalog and binding patterns. For every source under
/// each of its adornments it holds, deduplicated:
///   * the guarded inverse rules  gσ :- dom(Xb)..., v(X̄)  (dom guards one
///     distinct variable in each bound head position), and
///   * the dom rules  dom(Y) :- dom(Xb)..., v(X̄)  (one per variable in a
///     free head position not guarded anyway);
/// their expansion over the stored relations (ViewSet::ExpandedInverseRule
/// and the view body, numbered as ViewSet::NumberedView numbers the view);
/// and the decider's analysis of the expanded dom rules (DomNodeRule). The
/// dom predicate is a fresh symbol per request, so a request instantiates
/// the template on its own dom predicate and one block of fresh ids, and
/// adds a dom fact per constant of the query and the views.
class ExecutablePlanTemplate {
 public:
  /// The template of the empty catalog.
  ExecutablePlanTemplate() = default;

  /// Compiles `views` under `patterns`; a source without a pattern is
  /// freely accessible. Fails if an adornment's arity is not its source's.
  static Result<ExecutablePlanTemplate> Compile(
      const ViewSet& views, const BindingPatterns& patterns);

  /// One rule of the plan, over views()[view]'s variables (numbered as in
  /// NumberedView).
  struct Entry {
    int32_t view = 0;
    /// The guarded inverse rule of views.inverse_rules()[inverse], or -1
    /// for the dom rule collecting variable `output`.
    int32_t inverse = -1;
    int32_t output = -1;
    /// The distinct variables in bound head positions, in position order.
    std::vector<int32_t> guards;
  };

  /// The plan's rules, in plan order.
  const std::vector<Entry>& entries() const { return entries_; }
  /// views()[v]'s head variables in numbering order (NumberedView numbers
  /// them first).
  const std::vector<SymbolId>& HeadVariables(size_t v) const {
    return head_vars_[v];
  }
  /// The expanded dom rules, in entry order.
  const std::vector<DomNodeRule>& nodes() const { return nodes_; }
  /// Fresh ids one instantiation takes: each entry renames its view apart.
  int32_t num_fresh() const { return num_fresh_; }

 private:
  // The template without the decider's node rules (nodes() empty): all
  // that rendering the plan reads.
  static Result<ExecutablePlanTemplate> CompileRules(
      const ViewSet& views, const BindingPatterns& patterns);
  friend Result<ExecutablePlanResult> ExecutablePlan(
      const Program& query, const ViewSet& views,
      const BindingPatterns& patterns, Interner* interner);

  std::vector<Entry> entries_;
  std::vector<std::vector<SymbolId>> head_vars_;
  std::vector<DomNodeRule> nodes_;
  int32_t num_fresh_ = 0;
};

/// The executable maximally-contained plan of one query: recursive in
/// general, since a unary predicate `dom` accumulates every constant
/// obtainable from the sources, and inverse rules may only feed bound
/// positions from `dom` (or from the constants of Q ∪ V, per the
/// sound-plan discipline of Definition 4.2).
struct ExecutablePlanResult {
  Program program;
  /// The accumulator predicate created for this plan.
  SymbolId dom_predicate = kInvalidSymbol;
};

/// The executable plan of `query` (rules over the mediated schema,
/// comparison-free): the query's rules, the template's rules on a fresh
/// dom predicate, and a dom fact per constant of Q ∪ V.
Result<ExecutablePlanResult> ExecutablePlan(const Program& query,
                                            const ViewSet& views,
                                            const ExecutablePlanTemplate& plan,
                                            Interner* interner);

/// Compiles the template of `views` under `patterns`, then as above.
Result<ExecutablePlanResult> ExecutablePlan(const Program& query,
                                            const ViewSet& views,
                                            const BindingPatterns& patterns,
                                            Interner* interner);

/// Reachable certain answers (Definition 4.3): certain answers obtainable
/// by a sound executable plan — exactly the answers of the executable
/// maximally-contained plan on the instance.
Result<std::vector<Tuple>> ReachableCertainAnswers(
    const Program& query, SymbolId goal, const ViewSet& views,
    const BindingPatterns& patterns, const Database& instance,
    Interner* interner);

/// The expansion P^exp of a query's plan, prepared for the containment
/// check P1^exp ⊑ Q2 (Theorems 3.2 and 4.1): source subgoals are replaced
/// by view bodies over the STORED mediated relations, while the plan's own
/// reconstruction of each mediated relation is a primed copy
/// (ViewSet::Primed), so that the program's EDB schema is exactly the
/// mediated schema. The query's predicates other than its goal and the
/// sources are primed too (with the same spelling, PrimedName); rules that
/// depend on a primed predicate nothing defines (a mediated relation no
/// source covers) are removed.
struct ExpandedExecutablePlan {
  /// The query's rules, then the catalog's rules with other heads than dom,
  /// then the dom rules (one per DomNodeRule of the template, in order),
  /// then the dom facts.
  Program program;
  /// The dom predicate, or kInvalidSymbol without a template.
  SymbolId dom = kInvalidSymbol;
  /// program.rules[0, num_rest) do not define dom.
  size_t num_rest = 0;
  /// The dom facts' constants, in program order.
  std::vector<Value> facts;
  /// The template this plan instantiates, or null (Theorem 3.2).
  const ExecutablePlanTemplate* plan = nullptr;

  /// The split the dom decider reads (with a template).
  DomProgram Split() const;
};

/// P^exp of `query` (goal `goal`) over `plan` (Section 4), or with `plan`
/// null over the unguarded inverse rules alone, with no dom rules
/// (Theorem 3.2). The catalog's rules are instantiated on one block of
/// fresh ids.
Result<ExpandedExecutablePlan> ExpandExecutablePlan(
    const Program& query, SymbolId goal, const ViewSet& views,
    const ExecutablePlanTemplate* plan, Interner* interner);

}  // namespace relcont

#endif  // RELCONT_BINDING_DOM_PLAN_H_

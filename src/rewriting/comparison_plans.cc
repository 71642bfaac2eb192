#include "rewriting/comparison_plans.h"

#include <algorithm>

#include "containment/comparison_containment.h"
#include "datalog/substitution.h"
#include "rewriting/inverse_rules.h"
#include "trace/trace.h"

namespace relcont {

namespace {

bool IsNumericConst(const Term& t) {
  return t.is_constant() && t.value().is_number();
}

}  // namespace

const Result<std::vector<Comparison>>& ProjectViewConstraintsToHead(
    const ViewSet& views, size_t i) {
  return views.HeadConstraints(i);
}

Result<Rule> AugmentWithViewConstraints(const Rule& plan_rule,
                                        const ViewSet& views,
                                        Interner* interner) {
  Rule out = plan_rule;
  for (const Atom& atom : plan_rule.body) {
    int view = views.IndexOf(atom.predicate);
    if (view < 0 || views.views()[view].rule.comparisons.empty()) continue;
    Rule fresh = views.NumberedView(view).RenameApart(interner);
    // Unify with the view head on the left so the unifier binds the fresh
    // view variables to the plan's terms (not vice versa) — the projected
    // comparisons must land on the plan's own variables.
    Substitution mgu;
    if (!UnifyAtoms(fresh.head, atom, &mgu)) {
      // No real source tuple can populate this subgoal; make the rule
      // explicitly unsatisfiable.
      out.comparisons.emplace_back(Term::Number(Rational(0)),
                                   ComparisonOp::kLt,
                                   Term::Number(Rational(0)));
      return out;
    }
    const Result<std::vector<Comparison>>& projected =
        views.HeadConstraints(view);
    if (!projected.ok()) return projected.status();
    // The stored projection is over the view's own head variables: map
    // each, position by position, to the renamed head and through the mgu.
    const Atom& head = views.views()[view].rule.head;
    Substitution to_plan;
    for (size_t k = 0; k < head.args.size(); ++k) {
      const Term& v = head.args[k];
      if (v.is_variable() && !to_plan.Contains(v.symbol())) {
        to_plan.Bind(v.symbol(), mgu.Apply(fresh.head.args[k]));
      }
    }
    for (const Comparison& c : *projected) {
      Comparison mapped = to_plan.ApplyOnce(c);
      auto usable = [](const Term& t) {
        return t.is_variable() || IsNumericConst(t);
      };
      if (usable(mapped.lhs) && usable(mapped.rhs)) {
        out.comparisons.push_back(std::move(mapped));
      }
    }
  }
  return out;
}

Result<UnionQuery> ComparisonAwarePlan(const Program& query, SymbolId goal,
                                       const ViewSet& views,
                                       Interner* interner) {
  RELCONT_TRACE_SPAN("plan_comparison_aware");
  RELCONT_RETURN_NOT_OK(
      CheckPlannableQuery(query, views, /*allow_comparisons=*/true));
  const std::set<SymbolId>& sources = views.SourcePredicates();
  // The query as a UCQ over the mediated schema (soundness reference).
  RELCONT_ASSIGN_OR_RETURN(UnionQuery query_ucq,
                           UnfoldToUnion(query, goal, interner));

  // Candidate plans: unfold the query (comparisons and all) against the
  // inverse rules. Heads and relational subgoals must be Skolem-free, so a
  // candidate with a Skolem term in an atom is never built.
  Resolver resolver = PlanResolver(query, views);
  RELCONT_ASSIGN_OR_RETURN(
      UnionQuery unfolded,
      UnfoldToUnion(resolver, goal, interner, [](const UnfoldLeaf& leaf) {
        return !leaf.AtomsHaveFunctionTerm();
      }));

  UnionQuery out;
  for (Rule& candidate : unfolded.disjuncts) {
    // Relational subgoals must be source-only.
    if (!std::ranges::all_of(candidate.body, [&](const Atom& a) {
          return sources.count(a.predicate) > 0;
        })) {
      continue;
    }
    // Pull back the comparisons that landed on visible terms; comparisons
    // stranded on Skolem terms must be guaranteed by the views, which the
    // soundness check below verifies after we remove them.
    std::vector<Comparison> kept;
    for (Comparison& c : candidate.comparisons) {
      if (!c.lhs.is_function() && !c.rhs.is_function()) {
        kept.push_back(std::move(c));
      }
    }
    candidate.comparisons = std::move(kept);

    // Soundness: the candidate's expansion must be contained in the query.
    auto sound = [&](const Rule& r) -> Result<bool> {
      UnionQuery single;
      single.disjuncts.push_back(r);
      RELCONT_ASSIGN_OR_RETURN(UnionQuery expansion,
                               ExpandUnionPlan(single, views, interner));
      return UnionContainedInUnionComplete(expansion, query_ucq);
    };
    RELCONT_ASSIGN_OR_RETURN(bool ok, sound(candidate));
    if (!ok) continue;

    // Prune vacuous candidates: if the candidate's constraints together
    // with what its views guarantee are unsatisfiable, no consistent
    // source instance can ever fire it ("no appropriate constraints
    // exist" in the paper's construction).
    RELCONT_ASSIGN_OR_RETURN(
        Rule augmented, AugmentWithViewConstraints(candidate, views, interner));
    RELCONT_ASSIGN_OR_RETURN(std::optional<Rule> satisfiable,
                             NormalizeComparisons(augmented));
    if (!satisfiable.has_value()) continue;

    // Maximality: greedily drop pulled-back comparisons the views already
    // guarantee (weakest sound constraint set). Example 4: the AntiqueCars
    // disjunct needs no explicit Year < 1970.
    for (size_t i = 0; i < candidate.comparisons.size();) {
      Rule weakened = candidate;
      weakened.comparisons.erase(weakened.comparisons.begin() + i);
      RELCONT_ASSIGN_OR_RETURN(bool still_sound, sound(weakened));
      if (still_sound) {
        candidate = std::move(weakened);
      } else {
        ++i;
      }
    }
    out.disjuncts.push_back(std::move(candidate));
  }
  return out;
}

}  // namespace relcont

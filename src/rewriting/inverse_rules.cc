#include "rewriting/inverse_rules.h"

#include "trace/trace.h"

namespace relcont {

Result<Program> InvertViews(const ViewSet& views, Interner* /*interner*/) {
  return views.inverse_rules();
}

Status CheckPlannableQuery(const Program& query, const ViewSet& views,
                           bool allow_comparisons) {
  RELCONT_RETURN_NOT_OK(query.CheckSafe());
  const std::set<SymbolId>& sources = views.SourcePredicates();
  for (const Rule& r : query.rules) {
    if (!allow_comparisons && !r.comparisons.empty()) {
      return Status::Unsupported(
          "queries with comparisons need the Section 5 plan constructions");
    }
    for (const Atom& a : r.body) {
      if (sources.count(a.predicate) > 0) {
        return Status::InvalidArgument(
            "query must be over the mediated schema, not the sources");
      }
    }
  }
  return Status::OK();
}

Result<Program> MaximallyContainedPlan(const Program& query,
                                       const ViewSet& views,
                                       Interner* /*interner*/) {
  RELCONT_TRACE_SPAN("plan_inverse_rules");
  RELCONT_RETURN_NOT_OK(CheckPlannableQuery(query, views));
  const std::vector<Rule>& inverse = views.inverse_rules().rules;
  Program out = query;
  out.rules.insert(out.rules.end(), inverse.begin(), inverse.end());
  RELCONT_TRACE_COUNT(kPlanRules, inverse.size());
  return out;
}

Resolver PlanResolver(const Program& query, const ViewSet& views) {
  RELCONT_TRACE_COUNT(kPlanRules, views.inverse_rules().rules.size());
  return Resolver(query.rules, [&views](SymbolId predicate) {
    return views.InverseRulesWithHead(predicate);
  });
}

Result<UnionQuery> UnionPlan(const Program& query, SymbolId goal,
                             const ViewSet& views, Interner* interner) {
  RELCONT_TRACE_SPAN("plan_inverse_rules");
  RELCONT_RETURN_NOT_OK(CheckPlannableQuery(query, views));
  Resolver resolver = PlanResolver(query, views);
  // Function-term elimination: a disjunct still holding a Skolem term is
  // dropped before it is built.
  uint64_t skolem_dropped = 0;
  RELCONT_ASSIGN_OR_RETURN(
      UnionQuery unfolded,
      UnfoldToUnion(resolver, goal, interner,
                    [&skolem_dropped](const UnfoldLeaf& leaf) {
                      if (!leaf.HasFunctionTerm()) return true;
                      ++skolem_dropped;
                      return false;
                    }));
  if (skolem_dropped > 0) {
    RELCONT_TRACE_COUNT(kPlanDisjunctsDropped, skolem_dropped);
  }
  const std::set<SymbolId>& sources = views.SourcePredicates();
  UnionQuery out;
  for (Rule& d : unfolded.disjuncts) {
    bool answerable = true;
    for (const Atom& a : d.body) {
      if (sources.count(a.predicate) == 0) {
        answerable = false;  // mediated relation no source covers
        break;
      }
    }
    if (answerable) {
      RELCONT_TRACE_COUNT(kPlanDisjunctsKept, 1);
      out.disjuncts.push_back(std::move(d));
    } else {
      RELCONT_TRACE_COUNT(kPlanDisjunctsDropped, 1);
    }
  }
  return out;
}

namespace {

// Resolves each source subgoal against the one view defining its source.
Resolver::StoredRules ViewDefinitions(const ViewSet& views) {
  return [&views](SymbolId predicate) -> std::span<const NumberedRule> {
    int i = views.IndexOf(predicate);
    if (i < 0) return {};
    return {&views.NumberedView(i), 1};
  };
}

}  // namespace

Result<UnionQuery> ExpandUnionPlan(const UnionQuery& plan,
                                   const ViewSet& views, Interner* interner) {
  // The expansion is the unfolding of the plan disjuncts against the view
  // definitions (views are exactly rules defining the source predicates).
  if (plan.disjuncts.empty()) return UnionQuery{};
  SymbolId goal = plan.disjuncts[0].head.predicate;
  for (const Rule& d : plan.disjuncts) {
    if (d.head.predicate != goal) {
      return Status::InvalidArgument(
          "plan disjuncts must share a head predicate");
    }
  }
  Resolver resolver(plan.disjuncts, ViewDefinitions(views));
  return UnfoldToUnion(resolver, goal, interner);
}

Result<Program> ExpandPlanProgram(const Program& plan, const ViewSet& views,
                                  Interner* interner) {
  // Only source subgoals resolve: the plan's own IDB predicates stay. A
  // rule whose source subgoal clashes with its view's head (e.g. on a
  // constant) has no expansion and is dropped.
  Resolver resolver({}, ViewDefinitions(views));
  UnfoldLimits limits;
  limits.charge_budget = false;
  Program out;
  UnfoldRules(resolver, plan.rules, interner, limits,
              [&out](const UnfoldLeaf& leaf) {
                out.rules.push_back(leaf.Build());
                return true;
              });
  return out;
}

}  // namespace relcont

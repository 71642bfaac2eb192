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

Program AppendInverseRules(const Program& query, const ViewSet& views) {
  const std::vector<Rule>& inverse = views.inverse_rules().rules;
  Program out = query;
  out.rules.insert(out.rules.end(), inverse.begin(), inverse.end());
  RELCONT_TRACE_COUNT(kPlanRules, inverse.size());
  return out;
}

Result<Program> MaximallyContainedPlan(const Program& query,
                                       const ViewSet& views,
                                       Interner* /*interner*/) {
  RELCONT_TRACE_SPAN("plan_inverse_rules");
  RELCONT_RETURN_NOT_OK(CheckPlannableQuery(query, views));
  return AppendInverseRules(query, views);
}

namespace {

bool RuleHasFunctionTerm(const Rule& r) {
  auto term_has = [](const Term& t) { return t.is_function(); };
  for (const Term& t : r.head.args) {
    if (term_has(t)) return true;
  }
  for (const Atom& a : r.body) {
    for (const Term& t : a.args) {
      if (term_has(t)) return true;
    }
  }
  for (const Comparison& c : r.comparisons) {
    if (term_has(c.lhs) || term_has(c.rhs)) return true;
  }
  return false;
}

}  // namespace

Result<UnionQuery> PlanToUnion(const Program& plan, SymbolId goal,
                               const ViewSet& views, Interner* interner) {
  RELCONT_TRACE_SPAN("plan_to_union");
  RELCONT_ASSIGN_OR_RETURN(UnionQuery unfolded,
                           UnfoldToUnion(plan, goal, interner));
  const std::set<SymbolId>& sources = views.SourcePredicates();
  UnionQuery out;
  for (Rule& d : unfolded.disjuncts) {
    if (RuleHasFunctionTerm(d)) {
      RELCONT_TRACE_COUNT(kPlanDisjunctsDropped, 1);
      continue;
    }
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

Result<UnionQuery> ExpandUnionPlan(const UnionQuery& plan,
                                   const ViewSet& views, Interner* interner) {
  // The expansion is the unfolding of the plan disjuncts against the view
  // definitions (views are exactly rules defining the source predicates).
  Program program;
  if (plan.disjuncts.empty()) return UnionQuery{};
  SymbolId goal = plan.disjuncts[0].head.predicate;
  for (const Rule& d : plan.disjuncts) {
    if (d.head.predicate != goal) {
      return Status::InvalidArgument(
          "plan disjuncts must share a head predicate");
    }
    program.rules.push_back(d);
  }
  for (const ViewDefinition& v : views.views()) {
    program.rules.push_back(v.rule);
  }
  return UnfoldToUnion(program, goal, interner);
}

Result<Program> ExpandPlanProgram(const Program& plan, const ViewSet& views,
                                  Interner* interner) {
  Program out;
  Substitution store;
  for (const Rule& rule : plan.rules) {
    Rule cur = rule;
    bool dead = false;
    // Repeatedly replace the first source subgoal by its view body.
    for (;;) {
      size_t idx = 0;
      int view = -1;
      for (; idx < cur.body.size(); ++idx) {
        view = views.IndexOf(cur.body[idx].predicate);
        if (view >= 0) break;
      }
      if (view < 0) break;
      Rule next;
      if (!views.NumberedView(view).Resolve(cur, idx, interner, &store,
                                            &next)) {
        dead = true;  // e.g. a constant in the plan clashes with the view
        break;
      }
      cur = std::move(next);
    }
    if (!dead) out.rules.push_back(std::move(cur));
  }
  return out;
}

}  // namespace relcont

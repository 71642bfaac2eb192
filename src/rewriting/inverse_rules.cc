#include "rewriting/inverse_rules.h"

#include <map>
#include <unordered_set>

#include "datalog/substitution.h"
#include "trace/trace.h"

namespace relcont {

Result<Program> InvertViews(const ViewSet& views, Interner* interner) {
  RELCONT_RETURN_NOT_OK(views.Validate());
  Program out;
  for (const ViewDefinition& view : views.views()) {
    const Rule& rule = view.rule;
    // Distinguished (head) variables in order, for Skolem arguments.
    std::vector<SymbolId> head_vars = rule.HeadVariables();
    std::vector<Term> skolem_args;
    skolem_args.reserve(head_vars.size());
    for (SymbolId v : head_vars) skolem_args.push_back(Term::Var(v));
    std::unordered_set<SymbolId> head_set(head_vars.begin(), head_vars.end());

    // sigma: existential variable -> Skolem term over the head variables.
    Substitution sigma;
    for (SymbolId v : rule.BodyVariables()) {
      if (head_set.count(v) > 0) continue;
      std::string name = "f_" + interner->NameOf(view.source_predicate()) +
                         "_" + interner->NameOf(v);
      sigma.Bind(v, Term::Function(interner->Intern(name), skolem_args));
    }

    for (const Atom& subgoal : rule.body) {
      Rule inverse;
      inverse.head = sigma.Apply(subgoal);
      inverse.body.push_back(rule.head);
      out.rules.push_back(std::move(inverse));
      RELCONT_TRACE_COUNT(kPlanRules, 1);
    }
  }
  return out;
}

Result<Program> MaximallyContainedPlan(const Program& query,
                                       const ViewSet& views,
                                       Interner* interner) {
  RELCONT_TRACE_SPAN("plan_inverse_rules");
  RELCONT_RETURN_NOT_OK(query.CheckSafe());
  std::set<SymbolId> sources = views.SourcePredicates();
  for (const Rule& r : query.rules) {
    if (!r.comparisons.empty()) {
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
  RELCONT_ASSIGN_OR_RETURN(Program plan, InvertViews(views, interner));
  Program out = query;
  for (Rule& r : plan.rules) out.rules.push_back(std::move(r));
  return out;
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
  std::set<SymbolId> sources = views.SourcePredicates();
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
  // Each view is numbered once per call, when first expanded.
  std::map<const ViewDefinition*, NumberedRule> numbered;
  Substitution store;
  for (const Rule& rule : plan.rules) {
    Rule cur = rule;
    bool dead = false;
    // Repeatedly replace the first source subgoal by its view body.
    for (;;) {
      int idx = -1;
      for (size_t i = 0; i < cur.body.size(); ++i) {
        if (views.Find(cur.body[i].predicate) != nullptr) {
          idx = static_cast<int>(i);
          break;
        }
      }
      if (idx < 0) break;
      const ViewDefinition* view = views.Find(cur.body[idx].predicate);
      Rule next;
      const NumberedRule& def =
          numbered.try_emplace(view, view->rule).first->second;
      if (!def.Resolve(cur, idx, interner, &store, &next)) {
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

#include "binding/dom_plan.h"

#include <map>
#include <unordered_set>

#include "rewriting/inverse_rules.h"
#include "trace/trace.h"

namespace relcont {

Result<ExecutablePlanResult> ExecutablePlan(const Program& query,
                                            const ViewSet& views,
                                            const BindingPatterns& patterns,
                                            Interner* interner) {
  RELCONT_TRACE_SPAN("plan_executable");
  RELCONT_RETURN_NOT_OK(query.CheckSafe());
  for (const Rule& r : query.rules) {
    if (!r.comparisons.empty()) {
      return Status::Unsupported(
          "binding-pattern plans cover comparison-free queries (Section 4)");
    }
  }

  ExecutablePlanResult out;
  out.dom_predicate = interner->Fresh("dom");
  Program& plan = out.program;
  plan = query;

  auto add_rule = [&plan](Rule rule) {
    // Identical rules can arise from overlapping alternative adornments.
    for (const Rule& existing : plan.rules) {
      if (existing == rule) return;
    }
    plan.rules.push_back(std::move(rule));
  };

  for (size_t v = 0; v < views.size(); ++v) {
    const ViewDefinition& view = views.views()[v];
    const Rule& rule = view.rule;
    const std::vector<Adornment>* alternatives =
        patterns.Find(view.source_predicate());
    std::vector<Adornment> effective =
        alternatives != nullptr
            ? *alternatives
            : std::vector<Adornment>{Adornment::AllFree(rule.head.arity())};

    for (const Adornment& adornment : effective) {
      if (adornment.arity() != rule.head.arity()) {
        return Status::InvalidArgument(
            "adornment arity mismatch for a source");
      }
      // dom guards: one per distinct variable in a bound head position.
      std::vector<Atom> guards;
      std::unordered_set<SymbolId> guarded;
      for (int i = 0; i < rule.head.arity(); ++i) {
        if (!adornment.IsBound(i)) continue;
        const Term& t = rule.head.args[i];
        if (t.is_variable() && guarded.insert(t.symbol()).second) {
          guards.emplace_back(out.dom_predicate, std::vector<Term>{t});
        }
      }

      // Guarded inverse rules:  gσ :- dom(Xb)..., v(X̄).
      for (const Rule& stored : views.InverseRulesOf(v)) {
        Rule inverse;
        inverse.head = stored.head;
        inverse.body = guards;
        inverse.body.push_back(rule.head);
        add_rule(std::move(inverse));
      }

      // dom rules: every variable in a free head position enlarges dom.
      for (int i = 0; i < rule.head.arity(); ++i) {
        if (adornment.IsBound(i)) continue;
        const Term& t = rule.head.args[i];
        if (!t.is_variable()) continue;
        if (guarded.count(t.symbol()) > 0) continue;  // already bound anyway
        Rule dom_rule;
        dom_rule.head = Atom(out.dom_predicate, {t});
        dom_rule.body = guards;
        dom_rule.body.push_back(rule.head);
        add_rule(std::move(dom_rule));
      }
    }
  }

  // dom facts: the constants of Q ∪ V (Definition 4.2's constant
  // discipline — executable plans may use no others).
  std::vector<Value> constants = query.Constants();
  constants.insert(constants.end(), views.Constants().begin(),
                   views.Constants().end());
  std::set<Value> seen_consts;
  for (const Value& c : constants) {
    if (!seen_consts.insert(c).second) continue;
    Rule fact;
    fact.head = Atom(out.dom_predicate, {Term::Constant(c)});
    plan.rules.push_back(std::move(fact));
  }
  return out;
}

Result<Program> ExpandExecutablePlanForContainment(
    const ExecutablePlanResult& plan, SymbolId goal, const ViewSet& views,
    Interner* interner) {
  // 1. Rename the plan's mediated IDB predicates apart from the stored
  //    relations of the same name. dom, the goal, and the sources keep
  //    their names.
  const std::set<SymbolId>& sources = views.SourcePredicates();
  std::map<SymbolId, SymbolId> prime;
  auto primed = [&](SymbolId pred) {
    auto it = prime.find(pred);
    if (it != prime.end()) return it->second;
    SymbolId p = interner->Intern("_plan_" + interner->NameOf(pred));
    prime.emplace(pred, p);
    return p;
  };
  auto needs_prime = [&](SymbolId pred) {
    return pred != goal && pred != plan.dom_predicate &&
           sources.count(pred) == 0;
  };
  Program renamed;
  for (const Rule& r : plan.program.rules) {
    Rule copy = r;
    if (needs_prime(copy.head.predicate)) {
      copy.head.predicate = primed(copy.head.predicate);
    }
    for (Atom& a : copy.body) {
      if (needs_prime(a.predicate)) a.predicate = primed(a.predicate);
    }
    renamed.rules.push_back(std::move(copy));
  }
  // 2. Replace source subgoals with view bodies (stored relations).
  RELCONT_ASSIGN_OR_RETURN(Program expanded,
                           ExpandPlanProgram(renamed, views, interner));
  // 3. Drop rules depending on underivable primed predicates (mediated
  //    relations no source covers), cascading.
  for (;;) {
    std::set<SymbolId> defined = expanded.IdbPredicates();
    std::set<SymbolId> primed_preds;
    for (const auto& [orig, p] : prime) {
      (void)orig;
      primed_preds.insert(p);
    }
    Program filtered;
    bool dropped = false;
    for (Rule& r : expanded.rules) {
      bool dead = false;
      for (const Atom& a : r.body) {
        if (primed_preds.count(a.predicate) > 0 &&
            defined.count(a.predicate) == 0) {
          dead = true;
          break;
        }
      }
      if (dead) {
        dropped = true;
      } else {
        filtered.rules.push_back(std::move(r));
      }
    }
    expanded = std::move(filtered);
    if (!dropped) break;
  }
  return expanded;
}

Result<std::vector<Tuple>> ReachableCertainAnswers(
    const Program& query, SymbolId goal, const ViewSet& views,
    const BindingPatterns& patterns, const Database& instance,
    Interner* interner) {
  RELCONT_ASSIGN_OR_RETURN(ExecutablePlanResult plan,
                           ExecutablePlan(query, views, patterns, interner));
  return EvaluateGoal(plan.program, goal, instance);
}

}  // namespace relcont

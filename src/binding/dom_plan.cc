#include "binding/dom_plan.h"

#include <algorithm>
#include <set>
#include <span>
#include <unordered_set>

#include "rewriting/inverse_rules.h"
#include "trace/trace.h"

namespace relcont {

namespace {

// The input checks of every executable plan.
Status CheckPlanQuery(const Program& query) {
  RELCONT_RETURN_NOT_OK(query.CheckSafe());
  for (const Rule& r : query.rules) {
    if (!r.comparisons.empty()) {
      return Status::Unsupported(
          "binding-pattern plans cover comparison-free queries (Section 4)");
    }
  }
  return Status::OK();
}

// The constants of Q ∪ V, deduplicated (Definition 4.2's constant
// discipline: executable plans may use no others): one dom fact each.
std::vector<Value> DomFactConstants(const Program& query,
                                    const std::vector<Value>& catalog) {
  std::vector<Value> out;
  std::set<Value> seen;
  for (const std::vector<Value>& list : {query.Constants(), catalog}) {
    for (const Value& c : list) {
      if (seen.insert(c).second) out.push_back(c);
    }
  }
  return out;
}

// The decider's node rule  dom(Y) :- dom(G1), ..., dom(Gk), body  of a
// view: its variables renumbered in the rule's own first-occurrence order
// (the output, the guards, then the body), as the decider numbers a
// hand-written dom rule.
DomNodeRule NodeOf(const NumberedRule& view, int32_t output,
                   const std::vector<int32_t>& guards) {
  std::vector<int32_t> renumbered(view.num_vars(), -1);
  DomNodeRule node;
  auto number = [&](int32_t var) {
    if (renumbered[var] < 0) renumbered[var] = node.num_vars++;
    return renumbered[var];
  };
  node.output = number(output);
  for (int32_t g : guards) node.guards.push_back(number(g));
  node.body_edb = view.body();
  for (Atom& a : node.body_edb) {
    for (Term& t : a.args) {
      if (t.is_variable()) t = Term::Var(number(t.symbol()));
    }
  }
  return node;
}

}  // namespace

Result<ExecutablePlanTemplate> ExecutablePlanTemplate::Compile(
    const ViewSet& views, const BindingPatterns& patterns) {
  RELCONT_ASSIGN_OR_RETURN(ExecutablePlanTemplate out,
                           CompileRules(views, patterns));
  for (const Entry& e : out.entries_) {
    if (e.inverse < 0) {
      out.nodes_.push_back(NodeOf(views.NumberedView(e.view), e.output,
                                  e.guards));
    }
  }
  return out;
}

Result<ExecutablePlanTemplate> ExecutablePlanTemplate::CompileRules(
    const ViewSet& views, const BindingPatterns& patterns) {
  RELCONT_TRACE_SPAN("plan_compile");
  ExecutablePlanTemplate out;
  const std::vector<Rule>& inverse = views.inverse_rules().rules;
  out.head_vars_.reserve(views.size());
  std::vector<int32_t> head_number;
  std::vector<int32_t> guarded;
  for (size_t v = 0; v < views.size(); ++v) {
    const ViewDefinition& view = views.views()[v];
    const Atom& head = view.rule.head;
    // The head's variables are numbered first (NumberedView numbers in
    // first-occurrence order): position i holds number head_number[i], or
    // -1 for a constant.
    std::vector<SymbolId>& head_vars = out.head_vars_.emplace_back();
    head_number.assign(head.arity(), -1);
    for (int i = 0; i < head.arity(); ++i) {
      if (!head.args[i].is_variable()) continue;
      auto it = std::ranges::find(head_vars, head.args[i].symbol());
      head_number[i] = static_cast<int32_t>(it - head_vars.begin());
      if (it == head_vars.end()) head_vars.push_back(head.args[i].symbol());
    }
    // A source without a pattern is read under the all-free adornment.
    const std::vector<Adornment>* alternatives =
        patterns.Find(view.source_predicate());
    const size_t num_adornments =
        alternatives != nullptr ? alternatives->size() : 1;
    // Identical rules arise from overlapping alternative adornments, and
    // from a view body that repeats an atom (equal inverse heads).
    const size_t view_begin = out.entries_.size();
    const int32_t num_vars = views.NumberedView(v).num_vars();
    auto same_rule = [&](const Entry& a, const Entry& b) {
      return a.guards == b.guards && a.output == b.output &&
             (a.inverse == b.inverse ||
              (a.inverse >= 0 && b.inverse >= 0 &&
               inverse[a.inverse].head == inverse[b.inverse].head));
    };
    auto add = [&](Entry entry) {
      entry.view = static_cast<int32_t>(v);
      for (size_t i = view_begin; i < out.entries_.size(); ++i) {
        if (same_rule(out.entries_[i], entry)) return;
      }
      out.num_fresh_ += num_vars;
      out.entries_.push_back(std::move(entry));
    };
    for (size_t a = 0; a < num_adornments; ++a) {
      const Adornment* adornment =
          alternatives != nullptr ? &(*alternatives)[a] : nullptr;
      if (adornment != nullptr && adornment->arity() != head.arity()) {
        return Status::InvalidArgument(
            "adornment arity mismatch for a source");
      }
      auto bound = [adornment](int i) {
        return adornment != nullptr && adornment->IsBound(i);
      };
      // dom guards: one per distinct variable in a bound head position.
      guarded.clear();
      for (int i = 0; i < head.arity(); ++i) {
        if (bound(i) && head_number[i] >= 0 &&
            std::ranges::find(guarded, head_number[i]) == guarded.end()) {
          guarded.push_back(head_number[i]);
        }
      }
      // Guarded inverse rules:  gσ :- dom(Xb)..., v(X̄).
      for (const Rule& stored : views.InverseRulesOf(v)) {
        add(Entry{0, static_cast<int32_t>(&stored - inverse.data()), -1,
                  guarded});
      }
      // dom rules: every variable in a free head position enlarges dom.
      for (int i = 0; i < head.arity(); ++i) {
        int32_t output = head_number[i];
        if (bound(i) || output < 0 ||
            std::ranges::find(guarded, output) != guarded.end()) {
          continue;
        }
        add(Entry{0, -1, output, guarded});
      }
    }
  }
  return out;
}

Result<ExecutablePlanResult> ExecutablePlan(const Program& query,
                                            const ViewSet& views,
                                            const ExecutablePlanTemplate& plan,
                                            Interner* interner) {
  RELCONT_TRACE_SPAN("plan_executable");
  RELCONT_RETURN_NOT_OK(CheckPlanQuery(query));
  ExecutablePlanResult out;
  out.dom_predicate = interner->Fresh("dom");
  std::vector<Value> facts = DomFactConstants(query, views.Constants());
  std::vector<Rule>& rules = out.program.rules;
  rules.reserve(query.rules.size() + plan.entries().size() + facts.size());
  rules = query.rules;
  for (const ExecutablePlanTemplate::Entry& e : plan.entries()) {
    const std::vector<SymbolId>& vars = plan.HeadVariables(e.view);
    Rule rule;
    rule.head = e.inverse >= 0
                    ? views.inverse_rules().rules[e.inverse].head
                    : Atom(out.dom_predicate, {Term::Var(vars[e.output])});
    rule.body.reserve(e.guards.size() + 1);
    for (int32_t g : e.guards) {
      rule.body.emplace_back(out.dom_predicate,
                             std::vector<Term>{Term::Var(vars[g])});
    }
    rule.body.push_back(views.views()[e.view].rule.head);
    rules.push_back(std::move(rule));
  }
  for (const Value& c : facts) {
    rules.emplace_back(Atom(out.dom_predicate, {Term::Constant(c)}),
                       std::vector<Atom>{});
  }
  return out;
}

Result<ExecutablePlanResult> ExecutablePlan(const Program& query,
                                            const ViewSet& views,
                                            const BindingPatterns& patterns,
                                            Interner* interner) {
  RELCONT_ASSIGN_OR_RETURN(
      ExecutablePlanTemplate plan,
      ExecutablePlanTemplate::CompileRules(views, patterns));
  return ExecutablePlan(query, views, plan, interner);
}

Result<ExpandedExecutablePlan> ExpandExecutablePlan(
    const Program& query, SymbolId goal, const ViewSet& views,
    const ExecutablePlanTemplate* plan, Interner* interner) {
  RELCONT_TRACE_SPAN("plan_executable");
  RELCONT_RETURN_NOT_OK(CheckPlanQuery(query));
  ExpandedExecutablePlan out;
  out.plan = plan;
  if (plan != nullptr) out.dom = interner->Fresh("dom");
  // 1. The query's rules with their predicates primed apart from the
  //    stored relations of the same name (the goal and the sources keep
  //    theirs), then their source subgoals replaced by view bodies. A
  //    mediated predicate takes the catalog's primed copy, so the query's
  //    rules for it join the inverse rules'.
  const std::set<SymbolId>& sources = views.SourcePredicates();
  std::unordered_set<SymbolId> local;  // primed names no catalog rule defines
  auto primed = [&](SymbolId pred) {
    if (pred == goal || sources.count(pred) > 0) return pred;
    SymbolId p = views.Primed(pred);
    if (p != kInvalidSymbol) return p;
    p = interner->Intern(PrimedName(interner->NameOf(pred)));
    local.insert(p);
    return p;
  };
  Program renamed;
  renamed.rules.reserve(query.rules.size());
  for (const Rule& r : query.rules) {
    Rule copy = r;
    copy.head.predicate = primed(copy.head.predicate);
    for (Atom& a : copy.body) a.predicate = primed(a.predicate);
    renamed.rules.push_back(std::move(copy));
  }
  RELCONT_ASSIGN_OR_RETURN(Program expanded,
                           ExpandPlanProgram(renamed, views, interner));
  // 2. Drop rules depending on primed predicates nothing defines (mediated
  //    relations no source covers), cascading. Every catalog copy has
  //    inverse rules, so only the query's own primed names can be empty.
  std::vector<Rule>& rules = out.program.rules;
  rules = std::move(expanded.rules);
  for (bool dropped = true; dropped;) {
    std::unordered_set<SymbolId> defined;
    for (const Rule& r : rules) defined.insert(r.head.predicate);
    size_t before = rules.size();
    std::erase_if(rules, [&](const Rule& r) {
      return std::ranges::any_of(r.body, [&](const Atom& a) {
        return local.count(a.predicate) > 0 &&
               defined.count(a.predicate) == 0;
      });
    });
    dropped = rules.size() != before;
  }
  // 3. The catalog's rules on one block of fresh ids, each entry renaming
  //    its view apart: the inverse rules, then the dom rules.
  //    The goal keeps its name when it is a mediated predicate.
  SymbolId primed_goal = views.Primed(goal);
  auto inverse = [&](size_t i, SymbolId first) {
    Rule rule = views.ExpandedInverseRule(i, first);
    if (rule.head.predicate == primed_goal) rule.head.predicate = goal;
    return rule;
  };
  auto block_of = [&](size_t i) {
    return views.NumberedView(views.ViewOfInverseRule(i)).num_vars();
  };
  if (plan == nullptr) {
    const size_t n = views.inverse_rules().rules.size();
    int32_t block = 0;
    for (size_t i = 0; i < n; ++i) block += block_of(i);
    SymbolId first = interner->FreshBlock("_R", block);
    for (size_t i = 0; i < n; ++i) {
      rules.push_back(inverse(i, first));
      first += block_of(i);
    }
    out.num_rest = rules.size();
    return out;
  }
  SymbolId first = interner->FreshBlock("_R", plan->num_fresh());
  std::vector<Rule> dom_rules;
  for (const ExecutablePlanTemplate::Entry& e : plan->entries()) {
    std::vector<Atom> guards;
    for (int32_t g : e.guards) {
      guards.emplace_back(out.dom, std::vector<Term>{Term::Var(first + g)});
    }
    if (e.inverse >= 0) {
      Rule rule = inverse(e.inverse, first);
      rule.body.insert(rule.body.begin(), guards.begin(), guards.end());
      rules.push_back(std::move(rule));
    } else {
      Rule rule(Atom(out.dom, {Term::Var(first + e.output)}),
                std::move(guards));
      for (const Atom& a : views.NumberedView(e.view).body()) {
        rule.body.push_back(InstantiateNumbered(a, first));
      }
      dom_rules.push_back(std::move(rule));
    }
    first += views.NumberedView(e.view).num_vars();
  }
  out.num_rest = rules.size();
  std::ranges::move(dom_rules, std::back_inserter(rules));
  out.facts = DomFactConstants(query, views.Constants());
  for (const Value& c : out.facts) {
    rules.emplace_back(Atom(out.dom, {Term::Constant(c)}),
                       std::vector<Atom>{});
  }
  return out;
}

DomProgram ExpandedExecutablePlan::Split() const {
  DomProgram split;
  split.rest = std::span<const Rule>(program.rules).first(num_rest);
  split.nodes = plan->nodes();
  split.facts = facts;
  // The program's constants are those of Q ∪ V: the facts, in order.
  split.constants = facts;
  return split;
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

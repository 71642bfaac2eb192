// An interactive shell (also scriptable via stdin) for exploring a data
// integration system: declare views, binding patterns, queries and source
// instances, then ask for certain answers and relative containment.
//
//   $ ./build/examples/relcont_shell
//   > view redcars(C, M, Y) :- cardesc(C, M, red, Y).
//   > query q1(C) :- cardesc(C, M, Col, Y).
//   > query q2(C) :- cardesc(C, M, red, Y).
//   > contained q1 q2
//   yes (relative to the declared sources)
//
// Commands:
//   view <rule>            declare a source as a view over the mediated schema
//   pattern <source> <adornment>   set an access pattern (e.g. bf)
//   query <rule(s)>        declare (or extend) a named query
//   fact <atom>.           add a source fact to the current instance
//   certain <query>        certain answers on the current instance
//   reachable <query>      reachable certain answers (uses patterns)
//   contained <q1> <q2>    relative containment (dispatches on patterns)
//   classical <q1> <q2>    traditional containment
//   plan <query>           show the unfolded maximally-contained plan
//   rewrite <q1> <q2>      plan-level containment P1^exp ⊑ Q2
//   explain <query>        certain answers with source provenance
//   relevant <query>       sources the query's answers depend on
//   lossless <query>       are the sources lossless for the query?
//   minimize <query>       show the query's core
//   show                   print the declared system
//   :explain on|off        print the decision trace after each 'contained'
//   help, quit

#include <cstdio>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>

#include "binding/dom_plan.h"
#include "containment/comparison_containment.h"
#include "containment/minimize.h"
#include "datalog/parser.h"
#include "relcont/binding_containment.h"
#include "relcont/certain_answers.h"
#include "relcont/decide.h"
#include "relcont/relative_containment.h"
#include "rewriting/comparison_plans.h"
#include "rewriting/losslessness.h"
#include "trace/trace.h"

using namespace relcont;

namespace {

class Shell {
 public:
  int Run() {
    std::string line;
    if (interactive_) std::printf("relcont shell — 'help' for commands\n> ");
    while (std::getline(std::cin, line)) {
      if (!Dispatch(line)) break;
      if (interactive_) std::printf("> ");
    }
    return 0;
  }

  explicit Shell(bool interactive) : interactive_(interactive) {}

 private:
  bool Dispatch(const std::string& line) {
    std::istringstream in(line);
    std::string command;
    in >> command;
    std::string rest;
    std::getline(in, rest);
    if (command.empty() || command[0] == '%') return true;
    if (command == "quit" || command == "exit") return false;
    if (command == "help") {
      Help();
    } else if (command == "view") {
      AddView(rest);
    } else if (command == "pattern") {
      AddPattern(rest);
    } else if (command == "query") {
      AddQuery(rest);
    } else if (command == "fact") {
      AddFact(rest);
    } else if (command == "certain") {
      Certain(rest, /*reachable=*/false);
    } else if (command == "reachable") {
      Certain(rest, /*reachable=*/true);
    } else if (command == "contained") {
      Contained(rest);
    } else if (command == "classical") {
      Classical(rest);
    } else if (command == "plan") {
      ShowPlan(rest);
    } else if (command == "rewrite") {
      Rewrite(rest);
    } else if (command == "explain") {
      Explain(rest);
    } else if (command == "relevant") {
      Relevant(rest);
    } else if (command == "lossless") {
      Lossless(rest);
    } else if (command == "minimize") {
      Minimize(rest);
    } else if (command == "show") {
      Show();
    } else if (command == ":explain") {
      ToggleExplain(rest);
    } else {
      std::printf("unknown command '%s' — try 'help'\n", command.c_str());
    }
    return true;
  }

  void Help() {
    std::printf(
        "  view <rule>           declare a source view\n"
        "  pattern <src> <adr>   set an access pattern (b/f string)\n"
        "  query <rule>          declare or extend a named query\n"
        "  fact <atom>.          add a source fact\n"
        "  certain <query>       certain answers on the instance\n"
        "  reachable <query>     reachable certain answers (patterns)\n"
        "  contained <q1> <q2>   relative containment\n"
        "  classical <q1> <q2>   traditional containment\n"
        "  plan <query>          show the maximally-contained plan\n"
        "  rewrite <q1> <q2>     plan-level containment P1^exp ⊑ Q2\n"
        "  relevant <query>      sources the query's answers depend on\n"
        "  explain <query>       certain answers with source provenance\n"
        "  lossless <query>      are the sources lossless for the query?\n"
        "  minimize <query>      show the query's core\n"
        "  show                  print the declared system\n"
        "  :explain on|off       print the decision trace after each "
        "'contained'\n");
  }

  void AddView(const std::string& text) {
    Result<Rule> rule = ParseRule(text, &interner_);
    if (!rule.ok()) {
      std::printf("parse error: %s\n", rule.status().ToString().c_str());
      return;
    }
    std::vector<ViewDefinition> defs = views_.views();
    defs.push_back({*rule, false});
    Result<ViewSet> next = ViewSet::Make(std::move(defs), &interner_);
    if (!next.ok()) {
      std::printf("error: %s\n", next.status().ToString().c_str());
      return;
    }
    views_ = std::move(*next);
  }

  void AddPattern(const std::string& text) {
    std::istringstream in(text);
    std::string source, adornment;
    in >> source >> adornment;
    SymbolId pred = interner_.Lookup(source);
    if (pred == kInvalidSymbol || views_.Find(pred) == nullptr) {
      std::printf("error: unknown source '%s'\n", source.c_str());
      return;
    }
    Result<Adornment> a = Adornment::Parse(adornment);
    if (!a.ok()) {
      std::printf("error: %s\n", a.status().ToString().c_str());
      return;
    }
    patterns_.Set(pred, *a);
    has_patterns_ = true;
  }

  void AddQuery(const std::string& text) {
    Result<Rule> rule = ParseRule(text, &interner_);
    if (!rule.ok()) {
      std::printf("parse error: %s\n", rule.status().ToString().c_str());
      return;
    }
    std::string name = interner_.NameOf(rule->head.predicate);
    queries_[name].program.rules.push_back(*rule);
    queries_[name].goal = rule->head.predicate;
  }

  void AddFact(const std::string& text) {
    Result<Database> db = ParseDatabase(text, &interner_);
    if (!db.ok()) {
      std::printf("parse error: %s\n", db.status().ToString().c_str());
      return;
    }
    instance_.UnionWith(*db);
  }

  const GoalQuery* FindQuery(const std::string& name) {
    auto it = queries_.find(name);
    if (it == queries_.end()) {
      std::printf("error: unknown query '%s'\n", name.c_str());
      return nullptr;
    }
    return &it->second;
  }

  void Certain(const std::string& text, bool reachable) {
    std::istringstream in(text);
    std::string name;
    in >> name;
    const GoalQuery* q = FindQuery(name);
    if (q == nullptr) return;
    Result<std::vector<Tuple>> answers =
        reachable ? ReachableCertainAnswers(q->program, q->goal, views_,
                                            patterns_, instance_, &interner_)
                  : CertainAnswers(q->program, q->goal, views_, instance_,
                                   &interner_);
    if (!answers.ok()) {
      std::printf("error: %s\n", answers.status().ToString().c_str());
      return;
    }
    if (answers->empty()) std::printf("  (no certain answers)\n");
    for (const Tuple& t : *answers) {
      std::printf("  %s(", name.c_str());
      for (size_t i = 0; i < t.size(); ++i) {
        std::printf("%s%s", i ? ", " : "", t[i].ToString(interner_).c_str());
      }
      std::printf(")\n");
    }
  }

  void ToggleExplain(const std::string& text) {
    std::istringstream in(text);
    std::string mode;
    in >> mode;
    if (mode == "on") {
      explain_ = true;
      if (!trace::kCompiledIn) {
        std::printf(
            "note: trace hooks are compiled out (RELCONT_TRACE=0); traces "
            "will be empty\n");
      }
    } else if (mode == "off") {
      explain_ = false;
    } else {
      std::printf("usage: :explain on|off\n");
      return;
    }
    std::printf("explain %s\n", explain_ ? "on" : "off");
  }

  void Contained(const std::string& text) {
    std::istringstream in(text);
    std::string n1, n2;
    in >> n1 >> n2;
    const GoalQuery* q1 = FindQuery(n1);
    const GoalQuery* q2 = FindQuery(n2);
    if (q1 == nullptr || q2 == nullptr) return;
    trace::TraceContext trace_ctx;
    std::optional<trace::TraceScope> scope;
    if (explain_) scope.emplace(&trace_ctx);
    Result<Decision> d =
        DecideRelativeContainment(*q1, *q2, views_, patterns_, &interner_);
    scope.reset();
    if (!d.ok()) {
      std::printf("error: %s\n", d.status().ToString().c_str());
      return;
    }
    std::printf("%s (relative to the declared sources; decided by %.*s)\n",
                d->contained ? "yes" : "no",
                static_cast<int>(d->regime_name().size()),
                d->regime_name().data());
    if (!d->contained && d->witness.has_value()) {
      std::printf("  witness: %s\n", d->witness->ToString(interner_).c_str());
    }
    if (explain_) std::printf("%s", trace_ctx.ToText().c_str());
  }

  void Classical(const std::string& text) {
    std::istringstream in(text);
    std::string n1, n2;
    in >> n1 >> n2;
    const GoalQuery* q1 = FindQuery(n1);
    const GoalQuery* q2 = FindQuery(n2);
    if (q1 == nullptr || q2 == nullptr) return;
    if (q1->program.rules.size() != 1 || q2->program.rules.size() != 1) {
      std::printf("error: classical check expects single-rule queries\n");
      return;
    }
    Report(CqContainedComplete(q1->program.rules[0], q2->program.rules[0]),
           "on every database");
  }

  void ShowPlan(const std::string& text) {
    std::istringstream in(text);
    std::string name;
    in >> name;
    const GoalQuery* q = FindQuery(name);
    if (q == nullptr) return;
    if (has_patterns_) {
      Result<ExecutablePlanResult> plan =
          ExecutablePlan(q->program, views_, patterns_, &interner_);
      if (!plan.ok()) {
        std::printf("error: %s\n", plan.status().ToString().c_str());
        return;
      }
      std::printf("%s", plan->program.ToString(interner_).c_str());
      return;
    }
    Result<UnionQuery> plan =
        ComparisonAwarePlan(q->program, q->goal, views_, &interner_);
    if (!plan.ok()) {
      std::printf("error: %s\n", plan.status().ToString().c_str());
      return;
    }
    if (plan->disjuncts.empty()) std::printf("  (empty plan)\n");
    std::printf("%s", plan->ToString(interner_).c_str());
  }

  void Rewrite(const std::string& text) {
    std::istringstream in(text);
    std::string n1, n2;
    in >> n1 >> n2;
    const GoalQuery* q1 = FindQuery(n1);
    const GoalQuery* q2 = FindQuery(n2);
    if (q1 == nullptr || q2 == nullptr) return;
    if (has_patterns_) {
      Result<BindingRelativeResult> r = RelativelyContainedWithBindingPatterns(
          *q1, *q2, views_, patterns_, &interner_);
      if (!r.ok()) {
        std::printf("error: %s\n", r.status().ToString().c_str());
        return;
      }
      std::printf("%s (executable-plan containment under binding "
                  "patterns)\n",
                  r->contained ? "yes" : "no");
      if (!r->contained && r->counterexample.has_value()) {
        std::printf("  witness: %s\n",
                    r->counterexample->ToString(interner_).c_str());
      }
      return;
    }
    Rule witness;
    Result<bool> r = RelativelyContainedViaExpansion(*q1, *q2, views_,
                                                     &interner_, {}, &witness);
    if (!r.ok()) {
      std::printf("error: %s\n", r.status().ToString().c_str());
      return;
    }
    std::printf("%s (plan-level containment P1^exp ⊑ Q2)\n",
                *r ? "yes" : "no");
    if (!*r) {
      std::printf("  witness: %s\n", witness.ToString(interner_).c_str());
    }
  }

  void Explain(const std::string& text) {
    std::istringstream in(text);
    std::string name;
    in >> name;
    const GoalQuery* q = FindQuery(name);
    if (q == nullptr) return;
    Result<ProvenanceResult> r = CertainAnswersWithProvenance(
        q->program, q->goal, views_, instance_, &interner_);
    if (!r.ok()) {
      std::printf("error: %s\n", r.status().ToString().c_str());
      return;
    }
    if (r->answers.empty()) std::printf("  (no certain answers)\n");
    for (const ProvenancedAnswer& a : r->answers) {
      std::printf("  %s(", name.c_str());
      for (size_t i = 0; i < a.tuple.size(); ++i) {
        std::printf("%s%s", i ? ", " : "",
                    a.tuple[i].ToString(interner_).c_str());
      }
      std::printf(")  via");
      for (SymbolId s : a.sources) {
        std::printf(" %s", interner_.NameOf(s).c_str());
      }
      std::printf("\n");
    }
  }

  void Relevant(const std::string& text) {
    std::istringstream in(text);
    std::string name;
    in >> name;
    const GoalQuery* q = FindQuery(name);
    if (q == nullptr) return;
    Result<std::set<SymbolId>> r = RelevantSources(*q, views_, &interner_);
    if (!r.ok()) {
      std::printf("error: %s\n", r.status().ToString().c_str());
      return;
    }
    if (r->empty()) {
      std::printf("  (no source affects this query's certain answers)\n");
      return;
    }
    std::printf(" ");
    for (SymbolId s : *r) std::printf(" %s", interner_.NameOf(s).c_str());
    std::printf("\n");
  }

  void Lossless(const std::string& text) {
    std::istringstream in(text);
    std::string name;
    in >> name;
    const GoalQuery* q = FindQuery(name);
    if (q == nullptr) return;
    Result<LosslessnessResult> r =
        CheckLossless(q->program, q->goal, views_, &interner_);
    if (!r.ok()) {
      std::printf("error: %s\n", r.status().ToString().c_str());
      return;
    }
    std::printf(r->lossless
                    ? "yes — the plan is an equivalent rewriting\n"
                    : "no — certain answers can miss real answers\n");
  }

  void Minimize(const std::string& text) {
    std::istringstream in(text);
    std::string name;
    in >> name;
    const GoalQuery* q = FindQuery(name);
    if (q == nullptr) return;
    for (const Rule& rule : q->program.rules) {
      Result<Rule> core = MinimizeQuery(rule);
      if (!core.ok()) {
        std::printf("error: %s\n", core.status().ToString().c_str());
        return;
      }
      std::printf("  %s\n", core->ToString(interner_).c_str());
    }
  }

  void Show() {
    std::printf("views:\n%s", views_.ToString(interner_).c_str());
    for (const auto& [name, q] : queries_) {
      std::printf("query %s:\n%s", name.c_str(),
                  q.program.ToString(interner_).c_str());
    }
    if (instance_.TotalFacts() > 0) {
      std::printf("instance:\n%s", instance_.ToString(interner_).c_str());
    }
  }

  void Report(const Result<bool>& r, const char* qualifier) {
    if (!r.ok()) {
      std::printf("error: %s\n", r.status().ToString().c_str());
    } else {
      std::printf("%s (%s)\n", *r ? "yes" : "no", qualifier);
    }
  }

  bool interactive_;
  bool explain_ = false;
  Interner interner_;
  ViewSet views_;
  BindingPatterns patterns_;
  bool has_patterns_ = false;
  std::map<std::string, GoalQuery> queries_;
  Database instance_;
};

}  // namespace

int main(int argc, char** argv) {
  bool interactive = argc <= 1 || std::string(argv[1]) != "--batch";
  return Shell(interactive).Run();
}

#include "support/reference_unfold.h"

#include <utility>
#include <vector>

#include "common/budget.h"

namespace relcont {

namespace {

// A numbered term renamed by `first`, then resolved through `store`.
Term Resolved(const Term& t, SymbolId first, const Substitution& store) {
  return store.Apply(InstantiateNumbered(t, first));
}

Atom Resolved(const Atom& a, SymbolId first, const Substitution& store) {
  return store.Apply(InstantiateNumbered(a, first));
}

// Index of the first body atom of `rule` that some rule defines, or -1.
int FirstIdbSubgoal(Resolver& resolver, const Rule& rule) {
  for (size_t i = 0; i < rule.body.size(); ++i) {
    if (resolver.DefinitionsOf(rule.body[i].predicate).size() > 0) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

class ReferenceDriver {
 public:
  ReferenceDriver(Resolver& resolver, Interner* interner,
                  const UnfoldLimits& limits, const ReferenceVisitor& visit)
      : resolver_(resolver),
        interner_(interner),
        limits_(limits),
        visit_(visit) {}

  void Run(Rule root, int applications) {
    Enter(std::move(root), applications);
    Rule resolved, last;
    while (!frames_.empty() && !stopped_) {
      Frame& top = frames_.back();
      const NumberedRule& def = top.defs[top.next++];
      const int subgoal = top.subgoal;
      const int depth = top.applications + 1;
      const Rule* rule = &top.rule;
      if (top.next == top.defs.size()) {
        last = std::move(top.rule);
        rule = &last;
        frames_.pop_back();
      }
      if (ReferenceResolve(def, *rule, subgoal, interner_, &store_,
                           &resolved)) {
        ++run_.resolutions;
        Enter(std::move(resolved), depth);
      }
    }
  }

  bool stopped() const { return stopped_; }
  const UnfoldRun& run() const { return run_; }

 private:
  struct Frame {
    Rule rule;
    int subgoal;
    Resolver::Definitions defs;
    size_t next;
    int applications;
  };

  void Enter(Rule rule, int applications) {
    if (limits_.charge_budget && !BudgetCharge(1)) return Stop();
    int subgoal = FirstIdbSubgoal(resolver_, rule);
    if (subgoal < 0) {
      if (!visit_(std::move(rule))) Stop();
    } else if (applications >= limits_.max_rule_applications) {
      run_.complete = false;
    } else {
      Resolver::Definitions defs =
          resolver_.DefinitionsOf(rule.body[subgoal].predicate);
      frames_.push_back({std::move(rule), subgoal, defs, 0, applications});
    }
  }

  void Stop() {
    run_.complete = false;
    stopped_ = true;
  }

  Resolver& resolver_;
  Interner* interner_;
  const UnfoldLimits& limits_;
  const ReferenceVisitor& visit_;
  std::vector<Frame> frames_;
  Substitution store_;
  UnfoldRun run_;
  bool stopped_ = false;
};

}  // namespace

bool ReferenceResolve(const NumberedRule& def, const Rule& rule, size_t index,
                      Interner* interner, Substitution* store, Rule* out) {
  const SymbolId first = interner->FreshBlock("_R", def.num_vars());
  const Atom& subgoal = rule.body[index];
  const Atom& head = def.head();
  const size_t mark = store->Mark();
  bool unified = subgoal.predicate == head.predicate &&
                 subgoal.args.size() == head.args.size();
  for (size_t i = 0; unified && i < subgoal.args.size(); ++i) {
    unified = UnifyTerms(subgoal.args[i],
                         InstantiateNumbered(head.args[i], first), store);
  }
  if (unified) {
    out->head = store->Apply(rule.head);
    out->body.clear();
    for (size_t i = 0; i < rule.body.size(); ++i) {
      if (i != index) {
        out->body.push_back(store->Apply(rule.body[i]));
        continue;
      }
      for (const Atom& a : def.body()) {
        out->body.push_back(Resolved(a, first, *store));
      }
    }
    out->comparisons.clear();
    for (const Comparison& c : rule.comparisons) {
      out->comparisons.push_back(store->Apply(c));
    }
    for (const Comparison& c : def.comparisons()) {
      out->comparisons.emplace_back(Resolved(c.lhs, first, *store), c.op,
                                    Resolved(c.rhs, first, *store));
    }
  }
  store->Undo(mark);
  return unified;
}

UnfoldRun ReferenceUnfold(Resolver& resolver, SymbolId goal,
                          Interner* interner, const UnfoldLimits& limits,
                          const ReferenceVisitor& visit) {
  ReferenceDriver driver(resolver, interner, limits, visit);
  Resolver::Definitions roots = resolver.DefinitionsOf(goal);
  for (size_t i = 0; i < roots.size() && !driver.stopped(); ++i) {
    driver.Run(roots[i].RenameApart(interner), 1);
  }
  return driver.run();
}

UnfoldRun ReferenceUnfoldRules(Resolver& resolver, std::span<const Rule> roots,
                               Interner* interner, const UnfoldLimits& limits,
                               const ReferenceVisitor& visit) {
  ReferenceDriver driver(resolver, interner, limits, visit);
  for (size_t i = 0; i < roots.size() && !driver.stopped(); ++i) {
    driver.Run(roots[i], 0);
  }
  return driver.run();
}

}  // namespace relcont

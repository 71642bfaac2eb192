#include "datalog/unfold.h"

#include <algorithm>
#include <unordered_map>

#include "common/budget.h"
#include "trace/trace.h"

namespace relcont {

Resolver::Resolver(std::span<const Rule> own, StoredRules stored)
    : stored_(std::move(stored)) {
  std::vector<const Rule*> sorted;
  for (const Rule& rule : own) sorted.push_back(&rule);
  std::ranges::stable_sort(sorted, {},
                           [](const Rule* r) { return r->head.predicate; });
  for (const Rule* rule : sorted) {
    if (groups_.empty() || groups_.back().predicate != rule->head.predicate) {
      groups_.push_back(Group{rule->head.predicate, {}, {}});
    }
    groups_.back().rules.push_back(rule);
  }
}

Resolver::Group* Resolver::Find(SymbolId predicate) {
  auto it = std::ranges::lower_bound(groups_, predicate, {}, &Group::predicate);
  return it == groups_.end() || it->predicate != predicate ? nullptr : &*it;
}

bool Resolver::Defines(SymbolId predicate) {
  return Find(predicate) != nullptr ||
         (stored_ && !stored_(predicate).empty());
}

Resolver::Definitions Resolver::DefinitionsOf(SymbolId predicate) {
  Definitions out;
  if (Group* group = Find(predicate)) {
    if (group->numbered.empty()) {
      for (const Rule* rule : group->rules) group->numbered.emplace_back(*rule);
    }
    out.own = group->numbered;
  }
  if (stored_) out.stored = stored_(predicate);
  return out;
}

int Resolver::FirstIdbSubgoal(const Rule& rule) {
  for (size_t i = 0; i < rule.body.size(); ++i) {
    if (Defines(rule.body[i].predicate)) return static_cast<int>(i);
  }
  return -1;
}

bool Resolver::IsRecursive() {
  // One three-colour DFS from every own predicate (the stored rules alone
  // are acyclic); absent means white. An edge to a grey predicate, one
  // still on the stack, closes a cycle.
  enum Colour : char { kGrey, kBlack };
  std::unordered_map<SymbolId, Colour> colour;
  struct Node {
    SymbolId predicate;
    const Group* own;
    std::span<const NumberedRule> stored;
    size_t rule = 0, atom = 0;  // the next body atom to follow
  };
  auto node = [this](SymbolId p) {
    Node out{p, Find(p), {}};
    if (stored_) out.stored = stored_(p);
    return out;
  };
  std::vector<Node> stack;
  for (const Group& root : groups_) {
    if (!colour.try_emplace(root.predicate, kGrey).second) continue;
    stack.push_back(node(root.predicate));
    while (!stack.empty()) {
      Node& top = stack.back();
      const size_t own = top.own == nullptr ? 0 : top.own->rules.size();
      if (top.rule == own + top.stored.size()) {
        colour[top.predicate] = kBlack;
        stack.pop_back();
        continue;
      }
      const std::vector<Atom>& body = top.rule < own
                                          ? top.own->rules[top.rule]->body
                                          : top.stored[top.rule - own].body();
      if (top.atom == body.size()) {
        ++top.rule;
        top.atom = 0;
        continue;
      }
      SymbolId next = body[top.atom++].predicate;
      if (!Defines(next)) continue;
      auto [it, white] = colour.try_emplace(next, kGrey);
      if (white) {
        stack.push_back(node(next));
      } else if (it->second == kGrey) {
        return true;
      }
    }
  }
  return false;
}

namespace {

class Driver {
 public:
  Driver(Resolver& resolver, Interner* interner, const UnfoldLimits& limits,
         const UnfoldVisitor& visit)
      : resolver_(resolver),
        interner_(interner),
        limits_(limits),
        visit_(visit) {}

  // Searches the derivations of `root`, depth first.
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
        // Its last definition: pop the frame now, so a chain of single
        // definitions holds one resolvent, not one per step.
        last = std::move(top.rule);
        rule = &last;
        frames_.pop_back();
      }
      if (def.Resolve(*rule, subgoal, interner_, &store_, &resolved)) {
        ++run_.resolutions;
        Enter(std::move(resolved), depth);
      }
    }
  }

  bool stopped() const { return stopped_; }
  const UnfoldRun& run() const { return run_; }

 private:
  // Resolves subgoal `subgoal` of `rule` against each of `defs` (never
  // empty) in turn; `next` is the one to try next.
  struct Frame {
    Rule rule;
    int subgoal;
    Resolver::Definitions defs;
    size_t next;
    int applications;
  };

  // A new search node: a leaf goes to the visitor, an inner node becomes
  // a frame.
  void Enter(Rule rule, int applications) {
    if (limits_.charge_budget && !BudgetCharge(1)) return Stop();
    int subgoal = resolver_.FirstIdbSubgoal(rule);
    if (subgoal < 0) {
      if (!visit_(std::move(rule))) Stop();
    } else if (applications >= limits_.max_rule_applications) {
      run_.complete = false;  // derivation cut off
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
  const UnfoldVisitor& visit_;
  std::vector<Frame> frames_;
  Substitution store_;
  UnfoldRun run_;
  bool stopped_ = false;
};

}  // namespace

UnfoldRun Unfold(Resolver& resolver, SymbolId goal, Interner* interner,
                 const UnfoldLimits& limits, const UnfoldVisitor& visit) {
  Driver driver(resolver, interner, limits, visit);
  // Each root is renamed apart only once the one before is exhausted.
  Resolver::Definitions roots = resolver.DefinitionsOf(goal);
  for (size_t i = 0; i < roots.size() && !driver.stopped(); ++i) {
    driver.Run(roots[i].RenameApart(interner), 1);
  }
  return driver.run();
}

UnfoldRun UnfoldRules(Resolver& resolver, std::span<const Rule> roots,
                      Interner* interner, const UnfoldLimits& limits,
                      const UnfoldVisitor& visit) {
  Driver driver(resolver, interner, limits, visit);
  for (size_t i = 0; i < roots.size() && !driver.stopped(); ++i) {
    driver.Run(roots[i], 0);
  }
  return driver.run();
}

Result<UnionQuery> UnfoldToUnion(Resolver& resolver, SymbolId goal,
                                 Interner* interner) {
  if (resolver.IsRecursive()) {
    return Status::Unsupported("cannot unfold a recursive program");
  }
  RELCONT_TRACE_SPAN("unfold");
  UnionQuery out;
  UnfoldRun run = Unfold(resolver, goal, interner, {}, [&out](Rule&& d) {
    RELCONT_TRACE_COUNT(kUnfoldDisjuncts, 1);
    out.disjuncts.push_back(std::move(d));
    return true;
  });
  if (run.resolutions > 0) {
    RELCONT_TRACE_COUNT(kUnfoldResolutions, run.resolutions);
  }
  // Unbounded and never stopped: only the budget leaves it incomplete.
  if (!run.complete) RELCONT_RETURN_NOT_OK(BudgetOkOrBound("unfold"));
  return out;
}

Result<UnionQuery> UnfoldToUnion(const Program& program, SymbolId goal,
                                 Interner* interner) {
  Resolver resolver(program.rules);
  return UnfoldToUnion(resolver, goal, interner);
}

}  // namespace relcont

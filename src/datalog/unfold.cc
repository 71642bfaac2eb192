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

using PlacedAtom = UnfoldLeaf::Placed<Atom>;
using PlacedComparison = UnfoldLeaf::Placed<Comparison>;

// A placed term (variable i renamed to `first` + i) resolved through
// `store`.
Term Resolved(const Term& t, SymbolId first, const Substitution& store) {
  switch (t.kind()) {
    case Term::Kind::kVariable:
      return store.Apply(Term::Var(first + t.symbol()));
    case Term::Kind::kConstant:
      return t;
    case Term::Kind::kFunction: {
      std::vector<Term> args;
      args.reserve(t.args().size());
      for (const Term& a : t.args()) args.push_back(Resolved(a, first, store));
      return Term::Function(t.symbol(), std::move(args));
    }
  }
  return t;
}

Atom Resolved(const PlacedAtom& a, const Substitution& store) {
  Atom out;
  out.predicate = a.item->predicate;
  out.args.reserve(a.item->args.size());
  for (const Term& t : a.item->args) {
    out.args.push_back(Resolved(t, a.first, store));
  }
  return out;
}

// True iff the placed term, resolved through `store`, holds a function
// term. Walks the bindings; allocates nothing.
bool HoldsFunction(const Term& t, SymbolId first, const Substitution& store) {
  if (!t.is_variable()) return t.is_function();
  const Term* bound = store.Find(first + t.symbol());
  while (bound != nullptr && bound->is_variable()) {
    bound = store.Find(bound->symbol());
  }
  return bound != nullptr && bound->is_function();
}

bool HoldsFunction(const PlacedAtom& a, const Substitution& store) {
  return std::ranges::any_of(a.item->args, [&](const Term& t) {
    return HoldsFunction(t, a.first, store);
  });
}

}  // namespace

bool UnfoldLeaf::AtomsHaveFunctionTerm() const {
  return HoldsFunction(head_, store_) ||
         std::ranges::any_of(body_, [this](const PlacedAtom& a) {
           return HoldsFunction(a, store_);
         });
}

bool UnfoldLeaf::HasFunctionTerm() const {
  return AtomsHaveFunctionTerm() ||
         std::ranges::any_of(comparisons_, [this](const PlacedComparison& c) {
           return HoldsFunction(c.item->lhs, c.first, store_) ||
                  HoldsFunction(c.item->rhs, c.first, store_);
         });
}

Rule UnfoldLeaf::Build() const {
  Rule out;
  out.head = Resolved(head_, store_);
  out.body.reserve(body_.size());
  for (const PlacedAtom& a : body_) out.body.push_back(Resolved(a, store_));
  out.comparisons.reserve(comparisons_.size());
  for (const PlacedComparison& c : comparisons_) {
    out.comparisons.emplace_back(Resolved(c.item->lhs, c.first, store_),
                                 c.item->op,
                                 Resolved(c.item->rhs, c.first, store_));
  }
  return out;
}

class UnfoldDriver {
 public:
  UnfoldDriver(Resolver& resolver, Interner* interner,
               const UnfoldLimits& limits, const UnfoldVisitor& visit)
      : resolver_(resolver),
        interner_(interner),
        limits_(limits),
        visit_(visit) {}

  // Searches the derivations of `root` with its variable i renamed to
  // `first` + i, depth first.
  void Run(const Atom& head, std::span<const Atom> body,
           std::span<const Comparison> comparisons, SymbolId first,
           int applications) {
    store_.Undo(0);
    body_.clear();
    comparisons_.clear();
    segments_.clear();
    head_ = {&head, first};
    for (const Comparison& c : comparisons) comparisons_.push_back({&c, first});
    segments_.push_back({body.data() + body.size(), first, -1, nullptr});
    Enter(0, body.data(), applications);
    while (!frames_.empty() && !stopped_) {
      Frame& top = frames_.back();
      store_.Undo(top.trail);
      body_.resize(top.body);
      comparisons_.resize(top.comparisons);
      segments_.resize(top.segments);
      const NumberedRule& def = top.defs[top.next++];
      const int32_t segment = top.segment;
      const Atom* subgoal = top.subgoal;
      const int depth = top.applications + 1;
      // Its last definition: pop the frame now, so a chain of single
      // definitions holds one frame, not one per step.
      if (top.next == top.defs.size()) frames_.pop_back();
      const SymbolId def_first = interner_->FreshBlock("_R", def.num_vars());
      if (Unify(*subgoal, segments_[segment].first, def.head(), def_first)) {
        ++run_.resolutions;
        for (const Comparison& c : def.comparisons()) {
          comparisons_.push_back({&c, def_first});
        }
        const std::vector<Atom>& def_body = def.body();
        segments_.push_back({def_body.data() + def_body.size(), def_first,
                             segment, subgoal + 1});
        Enter(static_cast<int32_t>(segments_.size() - 1), def_body.data(),
              depth);
      }
    }
  }

  bool stopped() const { return stopped_; }
  const UnfoldRun& run() const { return run_; }

 private:
  // The goals still to resolve: a run of body atoms, from the atom a scan
  // reads next to `end`, whose variable i is `first` + i. Once `end` is
  // reached the scan resumes at `resume` in segment `parent`.
  struct Segment {
    const Atom* end;
    SymbolId first;
    int32_t parent;
    const Atom* resume;
  };

  // Resolves `subgoal` (in `segment`) against each of `defs` (never empty)
  // in turn; `next` is the one to try next. The marks are the sizes of the
  // trail, body, comparisons and segments when the frame was entered.
  struct Frame {
    Resolver::Definitions defs;
    size_t next;
    int32_t segment;
    const Atom* subgoal;
    int applications;
    size_t trail, body, comparisons, segments;
  };

  bool Unify(const Atom& goal, SymbolId goal_first, const Atom& head,
             SymbolId head_first) {
    if (goal.predicate != head.predicate ||
        goal.args.size() != head.args.size()) {
      return false;
    }
    for (size_t i = 0; i < goal.args.size(); ++i) {
      if (!UnifyTerms(InstantiateNumbered(goal.args[i], goal_first),
                      InstantiateNumbered(head.args[i], head_first),
                      &store_)) {
        return false;
      }
    }
    return true;
  }

  // A new search node whose goals start at `next` in `segment`: the atoms
  // up to its first IDB subgoal join the body; with none left it is a leaf
  // for the visitor, otherwise it becomes a frame.
  void Enter(int32_t segment, const Atom* next, int applications) {
    if (limits_.charge_budget && !BudgetCharge(1)) return Stop();
    Resolver::Definitions defs;
    while (segment >= 0) {
      const Segment& s = segments_[segment];
      for (; next != s.end; ++next) {
        defs = resolver_.DefinitionsOf(next->predicate);
        if (defs.size() > 0) break;
        body_.push_back({next, s.first});
      }
      if (next != s.end) break;
      next = s.resume;
      segment = s.parent;
    }
    if (segment < 0) {
      if (!visit_(UnfoldLeaf(head_, body_, comparisons_, store_))) Stop();
    } else if (applications >= limits_.max_rule_applications) {
      run_.complete = false;  // derivation cut off
    } else {
      frames_.push_back({defs, 0, segment, next, applications, store_.Mark(),
                         body_.size(), comparisons_.size(), segments_.size()});
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
  // The derivation under construction.
  Substitution store_;
  PlacedAtom head_{};
  std::vector<PlacedAtom> body_;
  std::vector<PlacedComparison> comparisons_;
  std::vector<Segment> segments_;
  std::vector<Frame> frames_;
  UnfoldRun run_;
  bool stopped_ = false;
};

UnfoldRun Unfold(Resolver& resolver, SymbolId goal, Interner* interner,
                 const UnfoldLimits& limits, const UnfoldVisitor& visit) {
  UnfoldDriver driver(resolver, interner, limits, visit);
  // Each root is renamed apart only once the one before is exhausted.
  Resolver::Definitions roots = resolver.DefinitionsOf(goal);
  for (size_t i = 0; i < roots.size() && !driver.stopped(); ++i) {
    const NumberedRule& root = roots[i];
    driver.Run(root.head(), root.body(), root.comparisons(),
               interner->FreshBlock("_R", root.num_vars()), 1);
  }
  return driver.run();
}

UnfoldRun UnfoldRules(Resolver& resolver, std::span<const Rule> roots,
                      Interner* interner, const UnfoldLimits& limits,
                      const UnfoldVisitor& visit) {
  UnfoldDriver driver(resolver, interner, limits, visit);
  for (size_t i = 0; i < roots.size() && !driver.stopped(); ++i) {
    driver.Run(roots[i].head, roots[i].body, roots[i].comparisons, 0, 0);
  }
  return driver.run();
}

Result<UnionQuery> UnfoldToUnion(Resolver& resolver, SymbolId goal,
                                 Interner* interner) {
  return UnfoldToUnion(resolver, goal, interner,
                       [](const UnfoldLeaf&) { return true; });
}

Result<UnionQuery> UnfoldToUnion(
    Resolver& resolver, SymbolId goal, Interner* interner,
    const std::function<bool(const UnfoldLeaf&)>& keep) {
  if (resolver.IsRecursive()) {
    return Status::Unsupported("cannot unfold a recursive program");
  }
  RELCONT_TRACE_SPAN("unfold");
  UnionQuery out;
  UnfoldRun run =
      Unfold(resolver, goal, interner, {}, [&](const UnfoldLeaf& leaf) {
        RELCONT_TRACE_COUNT(kUnfoldDisjuncts, 1);
        if (keep(leaf)) out.disjuncts.push_back(leaf.Build());
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

#include "datalog/unfold.h"

#include <algorithm>

#include "common/budget.h"
#include "datalog/substitution.h"
#include "trace/trace.h"

namespace relcont {

ProgramResolver::ProgramResolver(const Program& program) {
  for (const Rule& rule : program.rules) {
    SymbolId pred = rule.head.predicate;
    auto it = std::lower_bound(
        groups_.begin(), groups_.end(), pred,
        [](const Group& g, SymbolId p) { return g.predicate < p; });
    if (it == groups_.end() || it->predicate != pred) {
      it = groups_.insert(it, Group{pred, {}, {}});
    }
    it->rules.push_back(&rule);
  }
}

ProgramResolver::Group* ProgramResolver::Find(SymbolId predicate) {
  auto it = std::lower_bound(
      groups_.begin(), groups_.end(), predicate,
      [](const Group& g, SymbolId p) { return g.predicate < p; });
  return it == groups_.end() || it->predicate != predicate ? nullptr : &*it;
}

int ProgramResolver::FirstIdbSubgoal(const Rule& rule) {
  for (size_t i = 0; i < rule.body.size(); ++i) {
    if (Find(rule.body[i].predicate) != nullptr) return static_cast<int>(i);
  }
  return -1;
}

const std::vector<NumberedRule>& ProgramResolver::Definitions(
    SymbolId predicate) {
  static const std::vector<NumberedRule> kNone;
  Group* group = Find(predicate);
  if (group == nullptr) return kNone;
  if (group->numbered.empty()) {
    group->numbered.reserve(group->rules.size());
    for (const Rule* rule : group->rules) group->numbered.emplace_back(*rule);
  }
  return group->numbered;
}

namespace {

class Unfolder {
 public:
  Unfolder(const Program& program, Interner* interner)
      : interner_(interner), resolver_(program) {}

  Result<UnionQuery> Run(SymbolId goal) {
    UnionQuery out;
    for (const NumberedRule& rule : resolver_.Definitions(goal)) {
      RELCONT_RETURN_NOT_OK(Expand(rule.RenameApart(interner_), &out));
    }
    return out;
  }

 private:
  // Finds the first IDB subgoal of `rule`; if none, `rule` is fully
  // unfolded. Otherwise resolves it against every defining rule.
  Status Expand(Rule rule, UnionQuery* out) {
    RELCONT_RETURN_NOT_OK(BudgetChargeOr("unfold"));
    int idb_index = resolver_.FirstIdbSubgoal(rule);
    if (idb_index < 0) {
      RELCONT_TRACE_COUNT(kUnfoldDisjuncts, 1);
      out->disjuncts.push_back(std::move(rule));
      return Status::OK();
    }
    Rule resolved;
    for (const NumberedRule& def :
         resolver_.Definitions(rule.body[idb_index].predicate)) {
      if (!def.Resolve(rule, idb_index, interner_, &store_, &resolved)) {
        continue;
      }
      RELCONT_TRACE_COUNT(kUnfoldResolutions, 1);
      RELCONT_RETURN_NOT_OK(Expand(std::move(resolved), out));
    }
    return Status::OK();
  }

  Interner* interner_;
  ProgramResolver resolver_;
  Substitution store_;
};

}  // namespace

Result<UnionQuery> UnfoldToUnion(const Program& program, SymbolId goal,
                                 Interner* interner) {
  if (program.IsRecursive()) {
    return Status::Unsupported("cannot unfold a recursive program");
  }
  RELCONT_TRACE_SPAN("unfold");
  return Unfolder(program, interner).Run(goal);
}

}  // namespace relcont

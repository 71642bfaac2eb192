#include "datalog/unfold.h"

#include <vector>

#include "common/budget.h"
#include "datalog/substitution.h"
#include "trace/trace.h"

namespace relcont {

namespace {

class Unfolder {
 public:
  Unfolder(const Program& program, Interner* interner)
      : program_(program),
        interner_(interner),
        idb_(program.IdbPredicates()) {}

  Result<UnionQuery> Run(SymbolId goal) {
    UnionQuery out;
    for (const Rule* rule : program_.RulesFor(goal)) {
      RELCONT_RETURN_NOT_OK(Expand(RenameApart(*rule, interner_), &out));
    }
    return out;
  }

 private:
  // Finds the first IDB subgoal of `rule`; if none, `rule` is fully
  // unfolded. Otherwise resolves it against every defining rule.
  Status Expand(const Rule& rule, UnionQuery* out) {
    RELCONT_RETURN_NOT_OK(BudgetChargeOr("unfold"));
    int idb_index = -1;
    for (size_t i = 0; i < rule.body.size(); ++i) {
      if (idb_.count(rule.body[i].predicate) > 0) {
        idb_index = static_cast<int>(i);
        break;
      }
    }
    if (idb_index < 0) {
      RELCONT_TRACE_COUNT(kUnfoldDisjuncts, 1);
      out->disjuncts.push_back(rule);
      return Status::OK();
    }
    const Atom& subgoal = rule.body[idb_index];
    for (const Rule* def : program_.RulesFor(subgoal.predicate)) {
      Rule fresh = RenameApart(*def, interner_);
      Substitution mgu;
      if (!UnifyAtoms(subgoal, fresh.head, &mgu)) continue;
      RELCONT_TRACE_COUNT(kUnfoldResolutions, 1);
      Rule resolved;
      resolved.head = mgu.Apply(rule.head);
      for (size_t i = 0; i < rule.body.size(); ++i) {
        if (static_cast<int>(i) == idb_index) {
          for (const Atom& a : fresh.body) resolved.body.push_back(mgu.Apply(a));
        } else {
          resolved.body.push_back(mgu.Apply(rule.body[i]));
        }
      }
      for (const Comparison& c : rule.comparisons) {
        resolved.comparisons.push_back(mgu.Apply(c));
      }
      for (const Comparison& c : fresh.comparisons) {
        resolved.comparisons.push_back(mgu.Apply(c));
      }
      RELCONT_RETURN_NOT_OK(Expand(resolved, out));
    }
    return Status::OK();
  }

  const Program& program_;
  Interner* interner_;
  std::set<SymbolId> idb_;
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

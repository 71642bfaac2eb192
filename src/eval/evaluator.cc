#include "eval/evaluator.h"

#include <unordered_set>

#include "common/budget.h"
#include "datalog/substitution.h"

namespace relcont {

namespace {

int TermDepth(const Term& t) {
  if (!t.is_function()) return 0;
  int max_child = 0;
  for (const Term& a : t.args()) {
    int d = TermDepth(a);
    if (d > max_child) max_child = d;
  }
  return 1 + max_child;
}

// Semi-naive evaluation state.
class SemiNaive {
 public:
  SemiNaive(const Program& program, const Database& edb,
            const EvalOptions& options)
      : program_(program), options_(options) {
    idb_ = program.IdbPredicates();
    full_ = edb;
  }

  Result<EvalResult> Run() {
    // Round 0: every rule evaluated against the EDB (delta = everything).
    Database delta;
    for (const Rule& rule : program_.rules) {
      RELCONT_RETURN_NOT_OK(EvalRuleAllFull(rule, &delta));
    }
    int iterations = 0;
    while (delta.TotalFacts() > 0) {
      ++iterations;
      full_.UnionWith(delta);
      Database next_delta;
      for (const Rule& rule : program_.rules) {
        RELCONT_RETURN_NOT_OK(EvalRuleWithDelta(rule, delta, &next_delta));
      }
      delta = std::move(next_delta);
    }
    EvalResult result;
    result.database = std::move(full_);
    result.depth_truncated = depth_truncated_;
    result.iterations = iterations;
    return result;
  }

 private:
  // Evaluates `rule` with every body atom ranging over full_, emitting
  // genuinely new facts (not already in full_) into `out`.
  Status EvalRuleAllFull(const Rule& rule, Database* out) {
    Substitution subst;
    return JoinFrom(rule, 0, -1, Database(), &subst, out);
  }

  // Semi-naive step: for each body position i holding an IDB predicate,
  // evaluate with atom i ranging over `delta` and the others over full_.
  Status EvalRuleWithDelta(const Rule& rule, const Database& delta,
                           Database* out) {
    for (size_t i = 0; i < rule.body.size(); ++i) {
      if (idb_.count(rule.body[i].predicate) == 0) continue;
      Substitution subst;
      RELCONT_RETURN_NOT_OK(
          JoinFrom(rule, 0, static_cast<int>(i), delta, &subst, out));
    }
    return Status::OK();
  }

  // Recursive nested-loop join over body atoms starting at `index`. The
  // atom at `delta_index` (if >= 0) ranges over `delta`; all others over
  // full_.
  Status JoinFrom(const Rule& rule, size_t index, int delta_index,
                  const Database& delta, Substitution* subst, Database* out) {
    if (index == rule.body.size()) {
      return EmitHead(rule, *subst, out);
    }
    const Atom& atom = rule.body[index];
    const Database& source =
        (static_cast<int>(index) == delta_index) ? delta : full_;
    const std::vector<Tuple>& tuples = source.Tuples(atom.predicate);
    // Join pruning: if some argument is ground under the current bindings,
    // scan only the tuples matching it in that column.
    const std::vector<int32_t>* candidates = nullptr;
    if (options_.use_index) {
      for (int i = 0; i < atom.arity(); ++i) {
        Term bound = subst->Apply(atom.args[i]);
        if (bound.IsGround()) {
          candidates = source.MatchingTuples(atom.predicate, i, bound);
          break;
        }
      }
    }
    auto join = [&](const Tuple& tuple) -> Status {
      const size_t mark = subst->Mark();
      Status status = Status::OK();
      if (MatchAtomAgainstGround(atom, tuple, subst)) {
        status = JoinFrom(rule, index + 1, delta_index, delta, subst, out);
      }
      subst->Undo(mark);
      return status;
    };
    if (candidates != nullptr) {
      for (int32_t position : *candidates) {
        RELCONT_RETURN_NOT_OK(join(tuples[position]));
      }
      return Status::OK();
    }
    for (const Tuple& tuple : tuples) RELCONT_RETURN_NOT_OK(join(tuple));
    return Status::OK();
  }

  Status EmitHead(const Rule& rule, const Substitution& subst, Database* out) {
    // One budget step per complete join result: the tightest loop the
    // evaluator has, so deadlines land mid-round instead of at round
    // boundaries.
    RELCONT_RETURN_NOT_OK(BudgetChargeOr("eval"));
    // Comparisons must evaluate to true under the (now total) assignment.
    for (const Comparison& c : rule.comparisons) {
      Comparison ground = subst.Apply(c);
      if (!ground.lhs.IsGround() || !ground.rhs.IsGround()) return Status::OK();
      if (!ground.EvaluateGround()) return Status::OK();
    }
    Atom head = subst.Apply(rule.head);
    if (!head.IsGround()) {
      return Status::Internal("unsafe rule reached evaluation: " +
                              std::to_string(rule.head.predicate));
    }
    for (const Term& t : head.args) {
      if (TermDepth(t) > options_.max_term_depth) {
        depth_truncated_ = true;
        return Status::OK();
      }
    }
    if (!full_.Contains(head)) out->Add(head);
    return Status::OK();
  }

  const Program& program_;
  const EvalOptions& options_;
  std::set<SymbolId> idb_;
  Database full_;
  bool depth_truncated_ = false;
};

}  // namespace

Result<EvalResult> Evaluate(const Program& program, const Database& edb,
                            const EvalOptions& options) {
  return SemiNaive(program, edb, options).Run();
}

Result<std::vector<Tuple>> EvaluateGoal(const Program& program, SymbolId goal,
                                        const Database& edb,
                                        const EvalOptions& options) {
  RELCONT_ASSIGN_OR_RETURN(EvalResult result, Evaluate(program, edb, options));
  std::vector<Tuple> out;
  for (const Tuple& t : result.database.Tuples(goal)) {
    bool has_function = false;
    for (const Term& term : t) {
      if (term.is_function()) {
        has_function = true;
        break;
      }
    }
    if (!has_function) out.push_back(t);
  }
  return out;
}

}  // namespace relcont

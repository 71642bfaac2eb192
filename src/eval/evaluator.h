#ifndef RELCONT_EVAL_EVALUATOR_H_
#define RELCONT_EVAL_EVALUATOR_H_

#include "eval/database.h"

namespace relcont {

/// Semantic bounds and tuning knobs for bottom-up evaluation.
struct EvalOptions {
  /// Semantic: facts whose terms nest Skolem functions deeper than this are
  /// not derived (EvalResult::depth_truncated reports it). Inverse-rule
  /// plans never nest Skolems, so the default is generous; the bound makes
  /// the fixpoint finite on arbitrary recursive programs with function
  /// terms.
  int max_term_depth = 8;
  /// Use per-column hash indexes for join pruning (ablation switch; the
  /// bench_ablation harness measures the difference).
  bool use_index = true;
};

/// The outcome of evaluating a program.
struct EvalResult {
  /// EDB facts plus every derived IDB fact.
  Database database;
  /// True if max_term_depth suppressed any derivation (the result is then a
  /// sound under-approximation of the fixpoint).
  bool depth_truncated = false;
  /// Number of semi-naive iterations executed.
  int iterations = 0;
};

/// Computes the minimal model of `program` over `edb` by semi-naive
/// bottom-up evaluation. Comparison subgoals are evaluated over the dense
/// numeric order; Skolem function terms in rule heads are constructed as
/// syntactic values. Every join result charges the installed WorkBudget at
/// site "eval" (kBoundReached on exhaustion); with no budget installed the
/// evaluation runs to its fixpoint.
Result<EvalResult> Evaluate(const Program& program, const Database& edb,
                            const EvalOptions& options = {});

/// Evaluates `program` and returns the derived tuples of `goal`, excluding
/// tuples that contain Skolem function terms (which do not denote ground
/// certain answers — see Duschka–Genesereth–Levy).
Result<std::vector<Tuple>> EvaluateGoal(const Program& program, SymbolId goal,
                                        const Database& edb,
                                        const EvalOptions& options = {});

}  // namespace relcont

#endif  // RELCONT_EVAL_EVALUATOR_H_

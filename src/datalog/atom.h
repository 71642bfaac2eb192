#ifndef RELCONT_DATALOG_ATOM_H_
#define RELCONT_DATALOG_ATOM_H_

#include <string>
#include <vector>

#include "datalog/term.h"

namespace relcont {

/// A relational atom p(t1, ..., tn).
struct Atom {
  SymbolId predicate = kInvalidSymbol;
  std::vector<Term> args;

  Atom() = default;
  Atom(SymbolId predicate_in, std::vector<Term> args_in)
      : predicate(predicate_in), args(std::move(args_in)) {}

  int arity() const { return static_cast<int>(args.size()); }
  bool IsGround() const;
  /// True iff a function (Skolem) term is an argument.
  bool HasFunctionTerm() const;
  /// Appends all variables occurring in the atom to `out` (with repeats).
  void CollectVars(std::vector<SymbolId>* out) const;

  std::string ToString(const Interner& interner) const;

  friend bool operator==(const Atom& a, const Atom& b) {
    return a.predicate == b.predicate && a.args == b.args;
  }
  friend bool operator!=(const Atom& a, const Atom& b) { return !(a == b); }
  friend bool operator<(const Atom& a, const Atom& b) {
    if (a.predicate != b.predicate) return a.predicate < b.predicate;
    return a.args < b.args;
  }

  size_t Hash() const {
    return static_cast<size_t>(predicate) * 0x9e3779b97f4a7c15ull ^
           TermVecHash()(args);
  }
};

struct AtomHash {
  size_t operator()(const Atom& a) const { return a.Hash(); }
};

/// The comparison predicates of Section 5, interpreted over a dense order.
enum class ComparisonOp { kEq, kNe, kLt, kLe, kGt, kGe };

/// Returns the textual operator ("=", "!=", "<", "<=", ">", ">=").
const char* ComparisonOpToString(ComparisonOp op);
/// Returns the operator with sides swapped (< becomes >, etc.).
ComparisonOp FlipComparisonOp(ComparisonOp op);
/// Returns the negation over a total order (< becomes >=, = becomes !=...).
ComparisonOp NegateComparisonOp(ComparisonOp op);

/// A comparison subgoal `lhs op rhs`. Both sides are variables or numeric
/// constants; the paper requires every compared variable to also appear in
/// an ordinary subgoal (checked by safety analysis).
struct Comparison {
  ComparisonOp op = ComparisonOp::kEq;
  Term lhs;
  Term rhs;

  Comparison() = default;
  Comparison(Term lhs_in, ComparisonOp op_in, Term rhs_in)
      : op(op_in), lhs(std::move(lhs_in)), rhs(std::move(rhs_in)) {}

  /// True iff of the semi-interval form `x θ c` or `c θ x` with θ in
  /// {<, <=} or {>, >=} (Section 5.1 of the paper).
  bool IsSemiInterval() const;

  /// Evaluates the comparison on ground numeric terms. Returns false for
  /// non-ground or non-numeric operands.
  bool EvaluateGround() const;

  void CollectVars(std::vector<SymbolId>* out) const;

  std::string ToString(const Interner& interner) const;

  friend bool operator==(const Comparison& a, const Comparison& b) {
    return a.op == b.op && a.lhs == b.lhs && a.rhs == b.rhs;
  }
  friend bool operator<(const Comparison& a, const Comparison& b) {
    if (a.op != b.op) return a.op < b.op;
    if (a.lhs != b.lhs) return a.lhs < b.lhs;
    return a.rhs < b.rhs;
  }
};

}  // namespace relcont

#endif  // RELCONT_DATALOG_ATOM_H_

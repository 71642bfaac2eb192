#include "datalog/atom.h"

namespace relcont {

bool Atom::IsGround() const {
  for (const Term& t : args) {
    if (!t.IsGround()) return false;
  }
  return true;
}

bool Atom::HasFunctionTerm() const {
  for (const Term& t : args) {
    if (t.is_function()) return true;
  }
  return false;
}

void Atom::CollectVars(std::vector<SymbolId>* out) const {
  for (const Term& t : args) t.CollectVars(out);
}

std::string Atom::ToString(const Interner& interner) const {
  std::string out = interner.NameOf(predicate);
  out += '(';
  for (size_t i = 0; i < args.size(); ++i) {
    if (i > 0) out += ", ";
    out += args[i].ToString(interner);
  }
  out += ')';
  return out;
}

const char* ComparisonOpToString(ComparisonOp op) {
  switch (op) {
    case ComparisonOp::kEq:
      return "=";
    case ComparisonOp::kNe:
      return "!=";
    case ComparisonOp::kLt:
      return "<";
    case ComparisonOp::kLe:
      return "<=";
    case ComparisonOp::kGt:
      return ">";
    case ComparisonOp::kGe:
      return ">=";
  }
  return "?";
}

ComparisonOp FlipComparisonOp(ComparisonOp op) {
  switch (op) {
    case ComparisonOp::kEq:
      return ComparisonOp::kEq;
    case ComparisonOp::kNe:
      return ComparisonOp::kNe;
    case ComparisonOp::kLt:
      return ComparisonOp::kGt;
    case ComparisonOp::kLe:
      return ComparisonOp::kGe;
    case ComparisonOp::kGt:
      return ComparisonOp::kLt;
    case ComparisonOp::kGe:
      return ComparisonOp::kLe;
  }
  return op;
}

ComparisonOp NegateComparisonOp(ComparisonOp op) {
  switch (op) {
    case ComparisonOp::kEq:
      return ComparisonOp::kNe;
    case ComparisonOp::kNe:
      return ComparisonOp::kEq;
    case ComparisonOp::kLt:
      return ComparisonOp::kGe;
    case ComparisonOp::kLe:
      return ComparisonOp::kGt;
    case ComparisonOp::kGt:
      return ComparisonOp::kLe;
    case ComparisonOp::kGe:
      return ComparisonOp::kLt;
  }
  return op;
}

bool Comparison::IsSemiInterval() const {
  if (op == ComparisonOp::kEq || op == ComparisonOp::kNe) return false;
  bool lhs_var = lhs.is_variable();
  bool rhs_var = rhs.is_variable();
  bool lhs_num = lhs.is_constant() && lhs.value().is_number();
  bool rhs_num = rhs.is_constant() && rhs.value().is_number();
  return (lhs_var && rhs_num) || (lhs_num && rhs_var);
}

bool Comparison::EvaluateGround() const {
  if (!lhs.is_constant() || !rhs.is_constant()) return false;
  const Value& a = lhs.value();
  const Value& b = rhs.value();
  // Symbolic constants support only (in)equality.
  if (a.is_symbol() || b.is_symbol()) {
    if (op == ComparisonOp::kEq) return a == b;
    if (op == ComparisonOp::kNe) return a != b;
    return false;
  }
  const Rational& x = a.number();
  const Rational& y = b.number();
  switch (op) {
    case ComparisonOp::kEq:
      return x == y;
    case ComparisonOp::kNe:
      return x != y;
    case ComparisonOp::kLt:
      return x < y;
    case ComparisonOp::kLe:
      return x <= y;
    case ComparisonOp::kGt:
      return x > y;
    case ComparisonOp::kGe:
      return x >= y;
  }
  return false;
}

void Comparison::CollectVars(std::vector<SymbolId>* out) const {
  lhs.CollectVars(out);
  rhs.CollectVars(out);
}

std::string Comparison::ToString(const Interner& interner) const {
  return lhs.ToString(interner) + " " + ComparisonOpToString(op) + " " +
         rhs.ToString(interner);
}

}  // namespace relcont

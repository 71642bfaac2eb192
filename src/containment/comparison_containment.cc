#include "containment/comparison_containment.h"

#include <map>

#include "common/budget.h"
#include "constraints/order_constraints.h"
#include "containment/homomorphism.h"
#include "trace/trace.h"

namespace relcont {

namespace {

bool IsNumeric(const Term& t) {
  return t.is_constant() && t.value().is_number();
}
bool IsSymbolic(const Term& t) {
  return t.is_constant() && t.value().is_symbol();
}

// Collects the numeric constants of `q` as terms.
void CollectNumericConstants(const Rule& q, std::vector<Term>* out) {
  for (const Value& v : q.Constants()) {
    if (v.is_number()) out->push_back(Term::Constant(v));
  }
}

// Builds the order constraints of q1's comparisons over the point set
// vars(q1) ∪ numeric-consts(q1) ∪ numeric-consts(q2).
Result<OrderConstraints> BuildConstraints(const Rule& q1, const Rule* q2) {
  OrderConstraints c;
  for (SymbolId v : q1.Variables()) {
    RELCONT_RETURN_NOT_OK(c.AddPoint(Term::Var(v)));
  }
  std::vector<Term> consts;
  CollectNumericConstants(q1, &consts);
  if (q2 != nullptr) CollectNumericConstants(*q2, &consts);
  for (const Term& t : consts) {
    RELCONT_RETURN_NOT_OK(c.AddPoint(t));
  }
  RELCONT_RETURN_NOT_OK(c.AddAll(q1.comparisons));
  return c;
}

// Evaluates a ground-under-σ comparison: every term must be a key of σ.
bool ComparisonHoldsUnder(const Comparison& c,
                          const std::map<Term, Rational>& sigma) {
  auto lookup = [&](const Term& t, Rational* out) {
    if (IsNumeric(t)) {
      *out = t.value().number();
      return true;
    }
    auto it = sigma.find(t);
    if (it == sigma.end()) return false;
    *out = it->second;
    return true;
  };
  Rational a, b;
  if (!lookup(c.lhs, &a) || !lookup(c.rhs, &b)) return false;
  switch (c.op) {
    case ComparisonOp::kEq:
      return a == b;
    case ComparisonOp::kNe:
      return a != b;
    case ComparisonOp::kLt:
      return a < b;
    case ComparisonOp::kLe:
      return a <= b;
    case ComparisonOp::kGt:
      return a > b;
    case ComparisonOp::kGe:
      return a >= b;
  }
  return false;
}

}  // namespace

Result<std::optional<Rule>> NormalizeComparisons(const Rule& q) {
  Rule cur = q;
  // Phase 1: eliminate equalities by substitution.
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t i = 0; i < cur.comparisons.size(); ++i) {
      const Comparison& c = cur.comparisons[i];
      if (c.op != ComparisonOp::kEq) continue;
      if (c.lhs == c.rhs) {
        cur.comparisons.erase(cur.comparisons.begin() + i);
        changed = true;
        break;
      }
      if (c.lhs.is_variable() || c.rhs.is_variable()) {
        const Term& var = c.lhs.is_variable() ? c.lhs : c.rhs;
        const Term& other = c.lhs.is_variable() ? c.rhs : c.lhs;
        if (other.ContainsVar(var.symbol())) {
          return Status::Unsupported("cyclic equality through function term");
        }
        Substitution s;
        s.Bind(var.symbol(), other);
        Rule next = s.Apply(cur);
        next.comparisons.erase(next.comparisons.begin() + i);
        cur = std::move(next);
        changed = true;
        break;
      }
      // Both sides constant (or function): ground-evaluate.
      Comparison ground = c;
      if (!ground.lhs.IsGround() || !ground.rhs.IsGround()) {
        return Status::Unsupported("equality over function terms");
      }
      if (!ground.EvaluateGround()) return std::optional<Rule>(std::nullopt);
      cur.comparisons.erase(cur.comparisons.begin() + i);
      changed = true;
      break;
    }
  }
  // Phase 2: evaluate ground comparisons, validate the rest.
  std::vector<Comparison> kept;
  for (const Comparison& c : cur.comparisons) {
    if (c.lhs.is_function() || c.rhs.is_function()) {
      return Status::Unsupported("comparison over function terms");
    }
    if (c.lhs.is_constant() && c.rhs.is_constant()) {
      if (!c.EvaluateGround()) return std::optional<Rule>(std::nullopt);
      continue;
    }
    // One side (at least) is a variable.
    if (IsSymbolic(c.lhs) || IsSymbolic(c.rhs)) {
      if (c.op == ComparisonOp::kNe) {
        return Status::Unsupported(
            "disequality between a variable and a symbolic constant");
      }
      // Order comparison against a symbol: no numeric value can satisfy
      // it, so the query is empty.
      return std::optional<Rule>(std::nullopt);
    }
    kept.push_back(c);
  }
  cur.comparisons = std::move(kept);
  // Check joint satisfiability of what remains.
  OrderConstraints c;
  RELCONT_RETURN_NOT_OK(c.AddAll(cur.comparisons));
  if (!c.IsSatisfiable()) return std::optional<Rule>(std::nullopt);
  return std::optional<Rule>(std::move(cur));
}

bool AllComparisonsSemiInterval(const Rule& q) {
  Result<std::optional<Rule>> norm = NormalizeComparisons(q);
  if (!norm.ok()) return false;
  if (!norm->has_value()) return true;  // empty query: vacuously
  for (const Comparison& c : (*norm)->comparisons) {
    if (!c.IsSemiInterval()) return false;
  }
  return true;
}

Result<bool> CqContainedViaEntailment(const Rule& q1_in, const Rule& q2_in) {
  RELCONT_ASSIGN_OR_RETURN(std::optional<Rule> q1n,
                           NormalizeComparisons(q1_in));
  if (!q1n.has_value()) return true;  // empty query contained in anything
  RELCONT_ASSIGN_OR_RETURN(std::optional<Rule> q2n,
                           NormalizeComparisons(q2_in));
  if (!q2n.has_value()) return false;  // nonempty q1 vs empty q2
  const Rule& q1 = *q1n;
  const Rule& q2 = *q2n;
  if (q1.head.arity() != q2.head.arity()) {
    return Status::InvalidArgument("containment requires equal head arity");
  }
  RELCONT_ASSIGN_OR_RETURN(OrderConstraints c1, BuildConstraints(q1, &q2));
  if (!c1.IsSatisfiable()) return true;
  RELCONT_TRACE_SPAN("comparison_entailment");
  bool found = ForEachContainmentMapping(q2, q1, [&](const Substitution& h) {
    for (const Comparison& c : q2.comparisons) {
      RELCONT_TRACE_COUNT(kEntailmentChecks, 1);
      if (!c1.Entails(h.ApplyOnce(c))) return false;
    }
    return true;
  });
  if (found) return true;
  RELCONT_RETURN_NOT_OK(BudgetOkOrBound("comparison_entailment"));
  return false;
}

namespace {

// Shared worker: q1 ⊑ ∪(q2) via the linearization test. `q2` disjuncts are
// already normalized and satisfiable.
Result<bool> ContainedInUnionLinearized(const Rule& q1,
                                        const std::vector<Rule>& q2) {
  // Point set: all of q1's variables plus the numeric constants of both
  // sides.
  OrderConstraints c1;
  for (SymbolId v : q1.Variables()) {
    RELCONT_RETURN_NOT_OK(c1.AddPoint(Term::Var(v)));
  }
  std::vector<Term> consts;
  CollectNumericConstants(q1, &consts);
  for (const Rule& d : q2) CollectNumericConstants(d, &consts);
  for (const Term& t : consts) {
    RELCONT_RETURN_NOT_OK(c1.AddPoint(t));
  }
  RELCONT_RETURN_NOT_OK(c1.AddAll(q1.comparisons));
  if (!c1.IsSatisfiable()) return true;

  // Stream the linearizations out of the pruned matrix DFS: nothing is
  // materialized, the first uncovered linearization stops the walk, and
  // there is no structural cap on the point count — only the budget
  // bounds the search, surfacing as kBoundReached.
  RELCONT_TRACE_SPAN("comparison_linearizations");
  bool all_covered = true;
  Status truncated_search = Status::OK();
  Status enumeration =
      c1.ForEachLinearization([&](const Linearization& lin) {
        RELCONT_TRACE_COUNT(kLinearizations, 1);
        std::map<Term, Rational> sigma = c1.Realize(lin);
        // Collapse q1 by the linearization: variables in a class with a
        // constant become that constant; variables sharing a class
        // collapse to one representative.
        Substitution rho;
        for (const std::vector<int>& cls : lin) {
          // Pick a constant representative if present, else the first
          // variable.
          Term rep = c1.points()[cls[0]];
          for (int p : cls) {
            if (IsNumeric(c1.points()[p])) rep = c1.points()[p];
          }
          for (int p : cls) {
            const Term& t = c1.points()[p];
            if (t.is_variable() && !(t == rep)) rho.Bind(t.symbol(), rep);
          }
        }
        Rule q1_collapsed = rho.Apply(q1);

        bool covered = false;
        for (const Rule& d : q2) {
          if (d.head.arity() != q1.head.arity()) continue;
          RELCONT_TRACE_COUNT(kDisjunctChecks, 1);
          bool found = ForEachContainmentMapping(
              d, q1_collapsed, [&](const Substitution& h) {
                for (const Comparison& c : d.comparisons) {
                  if (!ComparisonHoldsUnder(h.ApplyOnce(c), sigma)) {
                    return false;
                  }
                }
                return true;
              });
          if (found) {
            covered = true;
            break;
          }
        }
        if (!covered) {
          // An uncovered linearization is a counterexample only when
          // every disjunct search ran to completion.
          truncated_search = BudgetOkOrBound("linearization");
          all_covered = false;
          return false;  // stop streaming either way
        }
        return true;
      });
  RELCONT_RETURN_NOT_OK(truncated_search);
  if (!all_covered) return false;
  // A "covered in every linearization" verdict is only sound when the
  // stream ran to completion.
  RELCONT_RETURN_NOT_OK(enumeration);
  return true;
}

}  // namespace

Result<bool> CqContainedInUnionComplete(const Rule& q1_in,
                                        const UnionQuery& q2_in) {
  RELCONT_ASSIGN_OR_RETURN(std::optional<Rule> q1n,
                           NormalizeComparisons(q1_in));
  if (!q1n.has_value()) return true;
  std::vector<Rule> q2;
  for (const Rule& d : q2_in.disjuncts) {
    RELCONT_ASSIGN_OR_RETURN(std::optional<Rule> dn, NormalizeComparisons(d));
    if (dn.has_value()) q2.push_back(std::move(*dn));
  }
  if (q2.empty()) return false;
  // Fast path: the sound homomorphism-entailment test against any single
  // disjunct (complete on its own for semi-interval disjuncts).
  for (const Rule& d : q2) {
    RELCONT_ASSIGN_OR_RETURN(bool fast, CqContainedViaEntailment(*q1n, d));
    if (fast) return true;
  }
  return ContainedInUnionLinearized(*q1n, q2);
}

Result<bool> CqContainedComplete(const Rule& q1, const Rule& q2) {
  UnionQuery u;
  u.disjuncts.push_back(q2);
  return CqContainedInUnionComplete(q1, u);
}

Result<bool> UnionContainedInUnionComplete(const UnionQuery& q1,
                                           const UnionQuery& q2) {
  for (const Rule& d : q1.disjuncts) {
    RELCONT_ASSIGN_OR_RETURN(bool contained,
                             CqContainedInUnionComplete(d, q2));
    if (!contained) return false;
  }
  return true;
}

}  // namespace relcont

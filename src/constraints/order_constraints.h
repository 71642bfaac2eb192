#ifndef RELCONT_CONSTRAINTS_ORDER_CONSTRAINTS_H_
#define RELCONT_CONSTRAINTS_ORDER_CONSTRAINTS_H_

#include <functional>
#include <map>
#include <optional>
#include <tuple>
#include <vector>

#include "common/status.h"
#include "constraints/dense_order.h"
#include "datalog/atom.h"

namespace relcont {

/// A total preorder over a finite point set, represented as an ordered
/// partition: classes[0] < classes[1] < ... with equality inside a class.
/// Entries are indices into the owning OrderConstraints' point list.
using Linearization = std::vector<std::vector<int>>;

/// A conjunction of comparison atoms over a dense linear order (Section 5
/// of the paper; we use the rationals).
///
/// Points are variables and numeric constants. Distinct numeric constants
/// are implicitly ordered by their values. Symbolic constants are not part
/// of the dense domain and are rejected; callers resolve =/!= on symbols
/// before invoking the solver.
///
/// Satisfiability and entailment are decided by the bitset pair-matrix
/// engine (constraints/dense_order.h): polynomial closure, no enumeration,
/// no cap on the point count. The linearization surface — needed by the
/// complete containment test for CQs with comparisons (Klug; van der
/// Meyden) — is streamed by ForEachLinearization, a DFS over the closed
/// matrix that only explores class placements the matrix allows.
class OrderConstraints {
 public:
  OrderConstraints() = default;

  /// Registers a point (variable or numeric constant) without constraining
  /// it. Idempotent. Fails on symbolic constants and function terms.
  Status AddPoint(const Term& t);

  /// Adds `lhs op rhs`; both sides must be variables or numeric constants
  /// (they are registered as points automatically).
  Status Add(const Comparison& c);
  /// Adds every comparison in `cs`.
  Status AddAll(const std::vector<Comparison>& cs);

  /// True iff some assignment of rationals to the variables satisfies all
  /// constraints (constants keeping their actual values). Decided by
  /// matrix closure — polynomial in the point count, never bounded.
  bool IsSatisfiable() const;

  /// True iff every satisfying assignment also satisfies `c`. Terms of `c`
  /// that are not registered points are treated as unconstrained (so only
  /// trivial facts about them are entailed). Returns false if `c` mentions
  /// a symbolic constant or if this constraint set is unsatisfiable... an
  /// unsatisfiable set entails everything, so that case returns true.
  /// Decided by refutation on the pair matrix — polynomial, never bounded.
  bool Entails(const Comparison& c) const;
  bool EntailsAll(const std::vector<Comparison>& cs) const;

  /// Streams every linearization (total preorder) of the registered points
  /// that (a) satisfies all added constraints and (b) orders numeric
  /// constants by value with distinct constants in distinct classes, in a
  /// pruned DFS: a class of minimal points is only explored when the
  /// closed pair matrix allows the placement, so heavily constrained sets
  /// cost little more than their realizable linearizations. Stops early
  /// when `visit` returns false (still OK — the visitor saw what it
  /// needed). Every DFS node (candidate class placement) charges the
  /// current WorkBudget at site "linearization_dfs"; on exhaustion the
  /// visited prefix is incomplete, "held for every linearization" claims
  /// are unsound, and the call returns kBoundReached. With no budget
  /// installed the enumeration runs to completion. kUnsupported when more
  /// than 63 points are candidates for one class (a representation limit).
  Status ForEachLinearization(
      const std::function<bool(const Linearization&)>& visit) const;

  /// Assigns a concrete rational to every point of `lin`, consistent with
  /// the class order and with the actual values of constant points.
  /// Requires `lin` to be one of the linearizations this instance
  /// generated (constants in value order, one constant value per class).
  std::map<Term, Rational> Realize(const Linearization& lin) const;

  /// The registered points in registration order.
  const std::vector<Term>& points() const { return points_; }
  /// Index of `t` in points(), or -1.
  int PointIndex(const Term& t) const;

  /// The pair matrix over points(), built from the added constraints and
  /// closed (lazily; any Add invalidates the cache).
  const constraints::DenseOrderMatrix& Closed() const;

 private:
  Result<int> InternPoint(const Term& t);
  void AddRaw(int i, int j, constraints::RelSet allowed);

  std::vector<Term> points_;
  std::map<Term, int> index_;
  // Raw constraints as (i, j, allowed-relation-set) triples.
  std::vector<std::tuple<int, int, constraints::RelSet>> raw_;

  // Lazily computed closed matrix.
  mutable std::optional<constraints::DenseOrderMatrix> matrix_;
};

}  // namespace relcont

#endif  // RELCONT_CONSTRAINTS_ORDER_CONSTRAINTS_H_

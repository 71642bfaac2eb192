#ifndef RELCONT_CONSTRAINTS_DENSE_ORDER_H_
#define RELCONT_CONSTRAINTS_DENSE_ORDER_H_

#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

/// relcont::constraints — the bitset dense-order engine (see
/// docs/ALGORITHMS.md, "Dense-order solver").
///
/// The relation between two points of a dense linear order is one of the
/// three primitives {<, =, >}. A constraint is a SET of still-possible
/// primitives, packed into the low three bits of a byte: `x <= y` is
/// {<,=}, `x != y` is {<,>}, "unconstrained" is all three, and the empty
/// set marks an unsatisfiable cell. Composition ("what does x?y and y?z
/// allow for x?z") distributes over set union, so the full 8x8 table is
/// built at compile time from the 3x3 primitive table.
///
/// A DenseOrderMatrix holds the n×n cells (with rel(j,i) always the
/// mirror of rel(i,j)) and closes them by path-consistency propagation:
/// a worklist of narrowed pairs, each popped pair narrowing every
/// triangle it participates in. The closure is polynomial — O(n^3)
/// narrowings, each cell can only shrink 7 -> 0 — and decides
/// satisfiability outright (an emptied cell is the only failure mode).
/// Entailment is decided by REFUTATION: intersect the queried cell with
/// the claim's complement and re-close; the claim is entailed iff the
/// refutation closes to unsatisfiable. (Plain closure is not enough:
/// path consistency leaves non-minimal cells in the presence of `!=`,
/// e.g. {w<=x, w<=y, x<=z, y<=z, x!=y} forces w<z but no single triangle
/// derives it. The refutation network IS inconsistent, and path
/// consistency decides consistency.)
namespace relcont {
namespace constraints {

/// A set of still-possible primitive order relations, one bit each.
using RelSet = uint8_t;

inline constexpr RelSet kRelNone = 0;  ///< empty set: unsatisfiable cell
inline constexpr RelSet kRelLt = 1;
inline constexpr RelSet kRelEq = 2;
inline constexpr RelSet kRelGt = 4;
inline constexpr RelSet kRelLe = kRelLt | kRelEq;
inline constexpr RelSet kRelGe = kRelGt | kRelEq;
inline constexpr RelSet kRelNe = kRelLt | kRelGt;
inline constexpr RelSet kRelAny = kRelLt | kRelEq | kRelGt;

/// The converse relation set: rel(j,i) given rel(i,j) (swap < and >).
constexpr RelSet Invert(RelSet r) {
  return static_cast<RelSet>(((r & kRelLt) != 0 ? kRelGt : 0) |
                             (r & kRelEq) |
                             ((r & kRelGt) != 0 ? kRelLt : 0));
}

/// Composition of two PRIMITIVE relations: the possible x?z given x a y
/// and y b z. `=` is the identity; `<` chains with `<`; opposite strict
/// relations say nothing (the order is dense and unbounded).
constexpr RelSet ComposePrimitive(RelSet a, RelSet b) {
  return a == kRelEq ? b
         : b == kRelEq ? a
         : a == b ? a
                  : kRelAny;
}

namespace internal {

/// The full 8x8 composition table, folded over the primitive table at
/// compile time (composition distributes over union).
struct ComposeTable {
  RelSet cell[8][8];
  constexpr ComposeTable() : cell{} {
    for (int a = 0; a < 8; ++a) {
      for (int b = 0; b < 8; ++b) {
        RelSet out = kRelNone;
        for (RelSet pa = 1; pa < 8; pa = static_cast<RelSet>(pa << 1)) {
          for (RelSet pb = 1; pb < 8; pb = static_cast<RelSet>(pb << 1)) {
            if ((a & pa) != 0 && (b & pb) != 0) {
              out = static_cast<RelSet>(out | ComposePrimitive(pa, pb));
            }
          }
        }
        cell[a][b] = out;
      }
    }
  }
};

inline constexpr ComposeTable kComposeTable{};

}  // namespace internal

/// Set-level composition: the union of pairwise primitive compositions.
constexpr RelSet Compose(RelSet a, RelSet b) {
  return internal::kComposeTable.cell[a][b];
}

/// A cell is consistent while at least one primitive survives.
constexpr bool Consistent(RelSet r) { return r != kRelNone; }

/// A view of the process-wide dense_order_propagations total
/// (trace::ProcessCounts), kept only because servebench reads it by this
/// name. Delete it with the next change to servebench.
struct DenseOrderCountersView {
  std::atomic<uint64_t>& propagations;
};

DenseOrderCountersView& GlobalDenseOrderStats();

/// The n×n pair matrix. Cells start at kRelAny (diagonal kRelEq) and only
/// ever shrink; the mirror invariant rel(j,i) == Invert(rel(i,j)) holds
/// at all times. Copyable: Entails works on a throwaway copy.
class DenseOrderMatrix {
 public:
  explicit DenseOrderMatrix(int n);

  int size() const { return n_; }
  RelSet rel(int i, int j) const {
    return cells_[static_cast<size_t>(i) * n_ + j];
  }

  /// Intersects rel(i,j) with `allowed` (mirroring into rel(j,i)) and
  /// queues the pair for propagation. Returns false once any cell is
  /// empty — the matrix is then permanently inconsistent.
  bool Restrict(int i, int j, RelSet allowed);

  /// Propagates queued restrictions to the path-consistent fixpoint.
  /// Polynomial and always run to completion — a truncated closure could
  /// corrupt verdicts — but charges the current WorkBudget for
  /// accounting, so closure work counts against deadlines. Returns
  /// consistent().
  bool Close();

  /// False once any cell emptied. Only meaningful after Close().
  bool consistent() const { return consistent_; }

  /// True iff rel(i,j) ⊆ `claim` holds in every solution: refutation on
  /// a copy (intersect with the complement, re-close, entailed iff the
  /// copy is inconsistent). Requires a closed, consistent matrix.
  bool Entails(int i, int j, RelSet claim) const;

  /// Cell narrowings this matrix has performed.
  uint64_t propagations() const { return propagations_; }

 private:
  RelSet& cell(int i, int j) {
    return cells_[static_cast<size_t>(i) * n_ + j];
  }

  int n_ = 0;
  bool consistent_ = true;
  uint64_t propagations_ = 0;
  // Watermark of propagations_ already flushed to the
  // dense_order_propagations counter (advanced by Close()).
  uint64_t flushed_ = 0;
  std::vector<RelSet> cells_;
  std::vector<std::pair<int, int>> pending_;
};

}  // namespace constraints
}  // namespace relcont

#endif  // RELCONT_CONSTRAINTS_DENSE_ORDER_H_

#include "constraints/dense_order.h"

#include "common/budget.h"
#include "trace/trace.h"

namespace relcont {
namespace constraints {

DenseOrderCountersView& GlobalDenseOrderStats() {
  static DenseOrderCountersView view{trace::ProcessCounts()[static_cast<size_t>(
      trace::Counter::kDenseOrderPropagations)]};
  return view;
}

DenseOrderMatrix::DenseOrderMatrix(int n)
    : n_(n), cells_(static_cast<size_t>(n) * n, kRelAny) {
  for (int i = 0; i < n; ++i) cell(i, i) = kRelEq;
}

bool DenseOrderMatrix::Restrict(int i, int j, RelSet allowed) {
  RelSet narrowed = static_cast<RelSet>(rel(i, j) & allowed);
  if (narrowed == rel(i, j)) return consistent_;
  cell(i, j) = narrowed;
  cell(j, i) = Invert(narrowed);
  ++propagations_;
  if (!Consistent(narrowed)) {
    consistent_ = false;
    return false;
  }
  pending_.emplace_back(i, j);
  return true;
}

bool DenseOrderMatrix::Close() {
  // Worklist path consistency: every narrowed pair re-checks the
  // triangles it participates in. Each cell shrinks at most 3 times, so
  // the loop pops O(n^2) pairs of O(n) triangles each — polynomial, and
  // therefore run to completion (the budget is charged for accounting
  // only; aborting mid-closure would leave cells wider than derivable
  // and could flip an entailment verdict).
  WorkBudget* budget = CurrentBudget();
  while (!pending_.empty() && consistent_) {
    auto [i, j] = pending_.back();
    pending_.pop_back();
    if (budget != nullptr) budget->Charge(static_cast<uint64_t>(n_));
    RelSet rij = rel(i, j);
    for (int k = 0; k < n_ && consistent_; ++k) {
      if (k == i || k == j) continue;
      // x_i ? x_k through j, and x_k ? x_j through i.
      Restrict(i, k, Compose(rij, rel(j, k)));
      Restrict(k, j, Compose(rel(k, i), rij));
    }
  }
  if (!consistent_) pending_.clear();
  // Flush everything not yet reported — including narrowings applied by
  // Restrict calls between closures (a watermark, not a Close-local
  // delta, so base-constraint restrictions are counted too).
  if (propagations_ != flushed_) {
    RELCONT_TRACE_COUNT(kDenseOrderPropagations, propagations_ - flushed_);
    flushed_ = propagations_;
  }
  return consistent_;
}

bool DenseOrderMatrix::Entails(int i, int j, RelSet claim) const {
  if (!consistent_) return true;  // ex falso quodlibet
  RelSet negated = static_cast<RelSet>(kRelAny & ~claim);
  if (negated == kRelNone) return true;  // claim excludes nothing
  if ((rel(i, j) & negated) == kRelNone) return true;  // already closed in
  DenseOrderMatrix refutation = *this;
  refutation.pending_.clear();
  if (!refutation.Restrict(i, j, negated)) return true;
  return !refutation.Close();
}

}  // namespace constraints
}  // namespace relcont

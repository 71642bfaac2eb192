#include "constraints/order_constraints.h"

#include <algorithm>
#include <string>

#include "common/budget.h"
#include "trace/trace.h"

namespace relcont {

using constraints::DenseOrderMatrix;
using constraints::RelSet;

namespace {

bool IsNumericConstant(const Term& t) {
  return t.is_constant() && t.value().is_number();
}

bool IsOrderPoint(const Term& t) {
  return t.is_variable() || IsNumericConstant(t);
}

}  // namespace

int OrderConstraints::PointIndex(const Term& t) const {
  auto it = index_.find(t);
  return it == index_.end() ? -1 : it->second;
}

Result<int> OrderConstraints::InternPoint(const Term& t) {
  if (!IsOrderPoint(t)) {
    return Status::InvalidArgument(
        "dense-order points must be variables or numeric constants");
  }
  auto it = index_.find(t);
  if (it != index_.end()) return it->second;
  int id = static_cast<int>(points_.size());
  points_.push_back(t);
  index_.emplace(t, id);
  matrix_.reset();
  // Relate the new constant to every existing constant by value.
  if (IsNumericConstant(t)) {
    for (int j = 0; j < id; ++j) {
      if (!IsNumericConstant(points_[j])) continue;
      const Rational& a = t.value().number();
      const Rational& b = points_[j].value().number();
      if (a < b) {
        AddRaw(id, j, constraints::kRelLt);
      } else if (b < a) {
        AddRaw(j, id, constraints::kRelLt);
      }
      // Equal values map to the identical Term, so a == b cannot happen.
    }
  }
  return id;
}

Status OrderConstraints::AddPoint(const Term& t) {
  return InternPoint(t).status();
}

void OrderConstraints::AddRaw(int i, int j, RelSet allowed) {
  raw_.emplace_back(i, j, allowed);
  matrix_.reset();
}

Status OrderConstraints::Add(const Comparison& c) {
  RELCONT_ASSIGN_OR_RETURN(int l, InternPoint(c.lhs));
  RELCONT_ASSIGN_OR_RETURN(int r, InternPoint(c.rhs));
  switch (c.op) {
    case ComparisonOp::kLt:
      AddRaw(l, r, constraints::kRelLt);
      break;
    case ComparisonOp::kLe:
      AddRaw(l, r, constraints::kRelLe);
      break;
    case ComparisonOp::kGt:
      AddRaw(l, r, constraints::kRelGt);
      break;
    case ComparisonOp::kGe:
      AddRaw(l, r, constraints::kRelGe);
      break;
    case ComparisonOp::kEq:
      AddRaw(l, r, constraints::kRelEq);
      break;
    case ComparisonOp::kNe:
      AddRaw(l, r, constraints::kRelNe);
      break;
  }
  return Status::OK();
}

Status OrderConstraints::AddAll(const std::vector<Comparison>& cs) {
  for (const Comparison& c : cs) {
    RELCONT_RETURN_NOT_OK(Add(c));
  }
  return Status::OK();
}

const DenseOrderMatrix& OrderConstraints::Closed() const {
  if (!matrix_.has_value()) {
    RELCONT_TRACE_COUNT(kClosureRecomputes, 1);
    DenseOrderMatrix m(static_cast<int>(points_.size()));
    for (const auto& [i, j, allowed] : raw_) {
      if (!m.Restrict(i, j, allowed)) break;
    }
    m.Close();
    matrix_.emplace(std::move(m));
  }
  return *matrix_;
}

bool OrderConstraints::IsSatisfiable() const { return Closed().consistent(); }

bool OrderConstraints::Entails(const Comparison& c) const {
  // Trivial and cross-domain cases that do not involve the dense order.
  if (c.lhs == c.rhs) {
    return c.op == ComparisonOp::kEq || c.op == ComparisonOp::kLe ||
           c.op == ComparisonOp::kGe;
  }
  auto is_symbol = [](const Term& t) {
    return t.is_constant() && t.value().is_symbol();
  };
  if (is_symbol(c.lhs) || is_symbol(c.rhs)) {
    if (c.lhs.is_constant() && c.rhs.is_constant()) {
      // Distinct constants (symbol vs symbol, or symbol vs number).
      return c.op == ComparisonOp::kNe;
    }
    return false;  // cannot order symbols against variables
  }
  if (!IsOrderPoint(c.lhs) || !IsOrderPoint(c.rhs)) return false;

  if (!IsSatisfiable()) return true;  // ex falso quodlibet

  // Work on a scratch copy so unseen terms become fresh points (related
  // to existing constants by value when they are constants themselves).
  OrderConstraints scratch = *this;
  Result<int> lr = scratch.InternPoint(c.lhs);
  Result<int> rr = scratch.InternPoint(c.rhs);
  if (!lr.ok() || !rr.ok()) return false;
  RelSet claim = constraints::kRelNone;
  switch (c.op) {
    case ComparisonOp::kLt:
      claim = constraints::kRelLt;
      break;
    case ComparisonOp::kLe:
      claim = constraints::kRelLe;
      break;
    case ComparisonOp::kGt:
      claim = constraints::kRelGt;
      break;
    case ComparisonOp::kGe:
      claim = constraints::kRelGe;
      break;
    case ComparisonOp::kEq:
      claim = constraints::kRelEq;
      break;
    case ComparisonOp::kNe:
      claim = constraints::kRelNe;
      break;
  }
  return scratch.Closed().Entails(*lr, *rr, claim);
}

bool OrderConstraints::EntailsAll(const std::vector<Comparison>& cs) const {
  for (const Comparison& c : cs) {
    if (!Entails(c)) return false;
  }
  return true;
}

Status OrderConstraints::ForEachLinearization(
    const std::function<bool(const Linearization&)>& visit) const {
  int n = static_cast<int>(points_.size());
  if (n == 0) {
    visit(Linearization{});
    return Status::OK();
  }
  const DenseOrderMatrix& m = Closed();
  if (!m.consistent()) return Status::OK();  // nothing to stream

  uint64_t pruned = 0;
  bool bound = false;
  bool too_wide = false;
  bool stopped = false;
  Linearization current;
  std::vector<int> remaining(n);
  for (int i = 0; i < n; ++i) remaining[i] = i;

  // DFS over ordered partitions, minimal class first. At each level only
  // the points the closed matrix allows to be minimal are candidates, and
  // only candidate subsets that are pairwise mergeable AND strictly below
  // everything left over are explored — heavily constrained sets visit
  // little beyond their realizable linearizations.
  std::function<void(std::vector<int>&)> recurse = [&](std::vector<int>&
                                                           rem) {
    if (rem.empty()) {
      if (!visit(current)) stopped = true;
      return;
    }
    std::vector<int> cand;
    for (int p : rem) {
      bool can_be_minimal = true;
      for (int r : rem) {
        if (r != p && (m.rel(p, r) & constraints::kRelLe) == 0) {
          can_be_minimal = false;
          break;
        }
      }
      if (can_be_minimal) cand.push_back(p);
    }
    int k = static_cast<int>(cand.size());
    if (k == 0) return;  // dead branch: nothing can come next
    if (k > 63) {  // subset masks no longer fit a word
      too_wide = true;
      return;
    }
    std::vector<int> cls;
    std::vector<int> rest;
    for (uint64_t mask = 1; mask < (uint64_t{1} << k); ++mask) {
      // One DFS node per candidate class. The exponential part of the
      // search lives here, so this is the budget site.
      if (!BudgetCharge(1)) {
        bound = true;
        return;
      }
      cls.clear();
      for (int i = 0; i < k; ++i) {
        if ((mask & (uint64_t{1} << i)) != 0) cls.push_back(cand[i]);
      }
      bool ok = true;
      for (size_t a = 0; a < cls.size() && ok; ++a) {
        for (size_t b = a + 1; b < cls.size() && ok; ++b) {
          if ((m.rel(cls[a], cls[b]) & constraints::kRelEq) == 0) ok = false;
        }
      }
      if (ok) {
        rest.clear();
        for (int r : rem) {
          if (!std::binary_search(cls.begin(), cls.end(), r)) {
            rest.push_back(r);
          }
        }
        for (size_t a = 0; a < cls.size() && ok; ++a) {
          for (int r : rest) {
            if ((m.rel(cls[a], r) & constraints::kRelLt) == 0) {
              ok = false;
              break;
            }
          }
        }
        if (ok) {
          current.push_back(cls);
          std::vector<int> next = rest;  // rest is reused by this level
          recurse(next);
          current.pop_back();
          if (bound || too_wide || stopped) return;
          continue;
        }
      }
      ++pruned;
    }
  };
  recurse(remaining);

  if (pruned != 0) RELCONT_TRACE_COUNT(kDenseOrderPrunedBranches, pruned);
  if (bound) return BudgetOkOrBound("linearization_dfs");
  if (too_wide) {
    return Status::Unsupported(
        "more than 63 mutually unordered points: candidate classes no "
        "longer fit a 64-bit subset mask");
  }
  return Status::OK();
}

std::map<Term, Rational> OrderConstraints::Realize(
    const Linearization& lin) const {
  int k = static_cast<int>(lin.size());
  // Anchor classes that contain a numeric constant to that value.
  std::vector<bool> anchored(k, false);
  std::vector<Rational> value(k, Rational(0));
  for (int i = 0; i < k; ++i) {
    for (int p : lin[i]) {
      if (IsNumericConstant(points_[p])) {
        anchored[i] = true;
        value[i] = points_[p].value().number();
      }
    }
  }
  // Fill runs of unanchored classes between anchors.
  int i = 0;
  while (i < k) {
    if (anchored[i]) {
      ++i;
      continue;
    }
    int run_start = i;
    while (i < k && !anchored[i]) ++i;
    int run_end = i;  // exclusive
    bool has_lower = run_start > 0;
    bool has_upper = run_end < k;
    int len = run_end - run_start;
    if (has_lower && has_upper) {
      Rational lo = value[run_start - 1];
      Rational hi = value[run_end];
      Rational width = hi - lo;
      for (int j = 0; j < len; ++j) {
        value[run_start + j] =
            lo + Rational(width.num() * (j + 1), width.den() * (len + 1));
      }
    } else if (has_lower) {
      for (int j = 0; j < len; ++j) {
        value[run_start + j] = value[run_start - 1] + Rational(j + 1);
      }
    } else if (has_upper) {
      for (int j = 0; j < len; ++j) {
        value[run_start + j] = value[run_end] - Rational(len - j);
      }
    } else {
      for (int j = 0; j < len; ++j) value[run_start + j] = Rational(j);
    }
  }
  std::map<Term, Rational> out;
  for (int c = 0; c < k; ++c) {
    for (int p : lin[c]) out[points_[p]] = value[c];
  }
  return out;
}

}  // namespace relcont

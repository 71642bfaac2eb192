#include "support/linearization_oracle.h"

#include <cstdint>
#include <functional>
#include <string>

#include "common/budget.h"

namespace relcont {

bool TooManyPointsToEnumerate(const OrderConstraints& c) {
  return static_cast<int>(c.points().size()) > kMaxEnumerablePoints;
}

Result<std::vector<Linearization>> EnumerateLinearizations(
    const OrderConstraints& c) {
  int n = static_cast<int>(c.points().size());
  std::vector<Linearization> out;
  if (n == 0) {
    out.push_back({});
    return out;
  }
  if (TooManyPointsToEnumerate(c)) {
    return BoundReachedAt(
        "linearization",
        std::to_string(n) +
            " dense-order points exceed the enumerable cap of " +
            std::to_string(kMaxEnumerablePoints));
  }
  const constraints::DenseOrderMatrix& m = c.Closed();
  if (!m.consistent()) return out;  // unsatisfiable: zero linearizations

  std::vector<int> remaining(n);
  for (int i = 0; i < n; ++i) remaining[i] = i;

  Linearization current;
  // The ORIGINAL unpruned enumerator: subset masks over everything
  // remaining, each checked against the matrix after the fact. Kept
  // verbatim as the independent oracle the pruned DFS is differentially
  // tested against; the budget still applies (the result is incomplete
  // once it trips, hence the status below).
  WorkBudget* budget = CurrentBudget();
  std::function<void(std::vector<int>&)> recurse =
      [&](std::vector<int>& rem) {
        if (rem.empty()) {
          out.push_back(current);
          return;
        }
        int width = static_cast<int>(rem.size());
        for (uint64_t mask = 1; mask < (uint64_t{1} << width); ++mask) {
          if (budget != nullptr && !budget->Charge(1)) return;
          std::vector<int> cls;
          std::vector<int> rest;
          for (int i = 0; i < width; ++i) {
            if ((mask & (uint64_t{1} << i)) != 0) {
              cls.push_back(rem[i]);
            } else {
              rest.push_back(rem[i]);
            }
          }
          // Class members must be mergeable.
          bool ok = true;
          for (size_t a = 0; a < cls.size() && ok; ++a) {
            for (size_t b = a + 1; b < cls.size() && ok; ++b) {
              if ((m.rel(cls[a], cls[b]) & constraints::kRelEq) == 0) {
                ok = false;
              }
            }
          }
          // Nothing left behind may be forced <= a class member.
          for (size_t a = 0; a < cls.size() && ok; ++a) {
            for (int r : rest) {
              if ((m.rel(r, cls[a]) & constraints::kRelGt) == 0) {
                ok = false;
                break;
              }
            }
          }
          if (!ok) continue;
          current.push_back(cls);
          recurse(rest);
          current.pop_back();
        }
      };
  recurse(remaining);
  RELCONT_RETURN_NOT_OK(BudgetOkOrBound("linearization"));
  return out;
}

}  // namespace relcont

#ifndef RELCONT_TESTS_SUPPORT_LINEARIZATION_ORACLE_H_
#define RELCONT_TESTS_SUPPORT_LINEARIZATION_ORACLE_H_

#include <vector>

#include "common/status.h"
#include "constraints/order_constraints.h"

/// The materializing linearization oracle the streaming DFS
/// (OrderConstraints::ForEachLinearization) is differentially tested
/// against. Test support only: the tests and bench_comparisons link it;
/// the library never calls it.
namespace relcont {

/// The largest point set EnumerateLinearizations will attempt (ordered
/// Bell numbers explode: 13 points already exceed 5·10^12 weak orders).
/// Applies only to this oracle, not to the streaming DFS, the
/// satisfiability check, or entailment.
inline constexpr int kMaxEnumerablePoints = 12;

/// True when `c` registers too many points for EnumerateLinearizations.
bool TooManyPointsToEnumerate(const OrderConstraints& c);

/// Materializes every linearization of `c` via the ORIGINAL unpruned
/// subset-enumeration algorithm. Returns kBoundReached over the
/// kMaxEnumerablePoints cap or when the current budget trips, and an
/// empty vector (OK) for unsatisfiable constraints — the two cases are
/// not conflated.
Result<std::vector<Linearization>> EnumerateLinearizations(
    const OrderConstraints& c);

}  // namespace relcont

#endif  // RELCONT_TESTS_SUPPORT_LINEARIZATION_ORACLE_H_

#ifndef RELCONT_RELCONT_CWA_H_
#define RELCONT_RELCONT_CWA_H_

#include <optional>

#include "relcont/certain_answers.h"
#include "relcont/relative_containment.h"

namespace relcont {

/// Relative containment under the CLOSED-world assumption (complete
/// sources, Section 6). The paper leaves decidability open — even finding
/// certain answers is co-NP-hard in the size of the instances [AD98] — so
/// this module provides the two semi-procedures that are available:
///
///  * a REFUTER that searches bounded source instances for a
///    counterexample (a certain answer of Q1 that is not one of Q2);
///    finding one definitively shows Q1 ⋢_V^cwa Q2 (this is how the
///    paper's Example 5 separates CWA from OWA);
///  * the trivial sufficient condition: OWA relative containment together
///    with classical containment implies CWA containment... is FALSE in
///    general (Example 5 is exactly the counterexample), so the only
///    sound positive certificate offered is classical containment itself.

struct CwaRefuterOptions {
  /// Semantic: the maximum number of source facts in candidate instances
  /// (which finite slice of the instance space the refuter searches).
  int max_instance_facts = 2;
  /// Semantic: values used to populate candidate instances.
  int domain_size = 2;
  /// Forwarded to the brute-force certain-answer oracle.
  BruteForceOptions brute_force;
};

struct CwaRefutation {
  /// A source instance on which certain(Q1) ⊄ certain(Q2).
  Database instance;
  /// A certain answer of Q1 missing from Q2's certain answers.
  Tuple answer;
};

/// Searches for a closed-world counterexample to Q1 ⊑_V Q2. All views in
/// `views` are treated as COMPLETE regardless of their flags. Returns a
/// refutation if one exists within the bounds, nullopt if the bounded
/// search was exhausted without finding one (inconclusive — containment
/// may still fail on larger instances).
Result<std::optional<CwaRefutation>> RefuteCwaContainment(
    const GoalQuery& q1, const GoalQuery& q2, const ViewSet& views,
    Interner* interner, const CwaRefuterOptions& options = {});

}  // namespace relcont

#endif  // RELCONT_RELCONT_CWA_H_

#ifndef RELCONT_BINDING_SOUND_PLAN_H_
#define RELCONT_BINDING_SOUND_PLAN_H_

#include "binding/adornment.h"
#include "datalog/unfold.h"
#include "rewriting/views.h"

namespace relcont {

/// Definition 4.2 — sound query plans. A user-supplied plan (a datalog
/// program over the source relations) is SOUND relative to a query Q,
/// views V and binding patterns B when
///   (1) it is executable under B,
///   (2) its constants are a subset of those of Q ∪ V (no "cheating" by
///       inventing probe values, as in the paper's corolla example), and
///   (3) its expansion is contained in Q.
/// Sound plans are exactly the ones whose answers are reachable certain
/// answers; the executable maximally-contained plan contains every sound
/// plan (Definition 4.4).
struct SoundPlanResult {
  bool executable = false;
  bool constants_ok = false;
  /// Expansion containment: true/false when decided; the overall verdict
  /// is only set when all three checks were decided.
  bool expansion_contained = false;
  bool sound = false;
};

struct SoundPlanOptions {
  /// Semantic: the derivation depth of the expansions searched when `plan`
  /// is recursive (see ExpansionOptions::max_rule_applications).
  int max_rule_applications = 12;
};

/// Checks the three conditions of Definition 4.2. `plan` must be a datalog
/// program over the source predicates with goal `plan_goal`; `query` is
/// the reference query over the mediated schema. Exact for nonrecursive
/// plans; recursive plans use a depth-bounded expansion search and may
/// report kBoundReached. Effort is bounded only by the installed WorkBudget.
Result<SoundPlanResult> CheckSoundPlan(
    const Program& plan, SymbolId plan_goal, const Program& query,
    SymbolId query_goal, const ViewSet& views,
    const BindingPatterns& patterns, Interner* interner,
    const SoundPlanOptions& options = {});

}  // namespace relcont

#endif  // RELCONT_BINDING_SOUND_PLAN_H_

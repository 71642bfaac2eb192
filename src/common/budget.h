#ifndef RELCONT_COMMON_BUDGET_H_
#define RELCONT_COMMON_BUDGET_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"

namespace relcont {

/// relcont::WorkBudget — one cooperative resource budget for a whole
/// containment decision (see docs/ALGORITHMS.md, "Budgets and deadlines").
/// A request gets exactly one: the service request frame or the library
/// front door installs it on the thread that runs the decision, and every
/// module charges that one budget. There are no nested regions and no
/// cancellation.
///
/// The decision procedures are Π₂ᴾ-hard: the unfolded plans can be
/// exponentially large and every disjunct check is an NP search. A
/// WorkBudget turns that liveness hazard into a bounded, observable path:
///
///   * a STEP budget counts units of search work (backtracking nodes,
///     linearizations, expansions, derived facts) across every module;
///   * a DEADLINE is a steady-clock point checked every few hundred steps,
///     so a 1 ms timeout surfaces within a fraction of a millisecond of
///     work, not at the next coarse phase boundary.
///
/// Exhaustion is sticky and one-way: once either trips, every subsequent
/// Charge() fails and the search unwinds. The exhaustion NEVER changes an
/// answer — procedures that observe it report kBoundReached instead of a
/// verdict (a definite YES/NO is only ever produced from a completed
/// search; see BudgetOkOrBound below for the pattern).
///
/// Thread-safety: Charge/Exhausted/reason are safe from many threads.
/// set_max_steps/set_deadline must be called before the budget is shared.
enum class BudgetReason : int {
  kNone = 0,      ///< not exhausted
  kSteps,         ///< the step budget ran out
  kDeadline,      ///< the wall-clock deadline passed
};

/// Short stable name for `reason` ("none", "steps", "deadline").
std::string_view BudgetReasonName(BudgetReason reason);

class WorkBudget {
 public:
  /// How many steps pass between wall-clock reads (a steady_clock read per
  /// step would dominate the innermost search loops).
  static constexpr uint64_t kDeadlineCheckStride = 256;

  /// An unlimited budget until set_max_steps/set_deadline bound it.
  WorkBudget() = default;

  WorkBudget(const WorkBudget&) = delete;
  WorkBudget& operator=(const WorkBudget&) = delete;

  /// Caps total charged steps; <= 0 means unlimited. Set before sharing.
  void set_max_steps(int64_t max_steps) { max_steps_ = max_steps; }
  /// Sets the wall-clock deadline. Set before sharing.
  void set_deadline(std::chrono::steady_clock::time_point deadline) {
    deadline_ = deadline;
    has_deadline_ = true;
  }
  /// Applies a request's bounds: a deadline `timeout_ms` from now and a
  /// step cap of `max_steps`, each only when positive. The one place a
  /// `{timeout_ms, max_steps}` pair becomes a budget (the library front
  /// door and the service request frame both call it). Set before sharing.
  void set_limits(int64_t timeout_ms, int64_t max_steps) {
    if (timeout_ms > 0) set_timeout(std::chrono::milliseconds(timeout_ms));
    if (max_steps > 0) set_max_steps(max_steps);
  }
  /// Convenience: deadline `timeout` from now, saturated at the clock's
  /// end of time (a timeout too large to represent means no deadline).
  void set_timeout(std::chrono::milliseconds timeout) {
    using Clock = std::chrono::steady_clock;
    const Clock::time_point now = Clock::now();
    const auto headroom = std::chrono::duration_cast<std::chrono::milliseconds>(
        Clock::time_point::max() - now);
    set_deadline(timeout >= headroom ? Clock::time_point::max()
                                     : now + timeout);
  }

  /// Charges `n` units of work. Returns true when the search may continue;
  /// false once the budget is exhausted (sticky). Cheap: one relaxed
  /// fetch_add plus a clock read every kDeadlineCheckStride steps.
  bool Charge(uint64_t n = 1);

  bool Exhausted() const {
    return exhausted_.load(std::memory_order_relaxed);
  }
  /// Why the budget exhausted (kNone while healthy). The first trip wins.
  BudgetReason reason() const {
    return static_cast<BudgetReason>(reason_.load(std::memory_order_relaxed));
  }
  /// Steps charged so far.
  int64_t steps_used() const {
    return static_cast<int64_t>(steps_.load(std::memory_order_relaxed));
  }

  /// The uniform kBoundReached status for this budget's exhaustion reason,
  /// attributed to `site` (also bumps the bound_hits trace counter).
  Status ToStatus(std::string_view site) const;

 private:
  void MarkExhausted(BudgetReason reason);

  int64_t max_steps_ = 0;  ///< <= 0: unlimited
  bool has_deadline_ = false;
  std::chrono::steady_clock::time_point deadline_{};

  std::atomic<uint64_t> steps_{0};
  std::atomic<bool> exhausted_{false};
  std::atomic<int> reason_{static_cast<int>(BudgetReason::kNone)};
};

/// The thread's active budget, or nullptr (the common case: no bounds).
/// Mirrors trace::CurrentTrace.
WorkBudget* CurrentBudget();

/// Installs `budget` (may be nullptr) as the thread's current budget for
/// the scope's lifetime; restores the previous one on destruction.
class BudgetScope {
 public:
  explicit BudgetScope(WorkBudget* budget);
  ~BudgetScope();
  BudgetScope(const BudgetScope&) = delete;
  BudgetScope& operator=(const BudgetScope&) = delete;

 private:
  WorkBudget* prev_;
};

/// Charges the current budget (no-op true when none is installed).
bool BudgetCharge(uint64_t n = 1);

/// True when a budget is installed and exhausted.
bool BudgetExhausted();

/// OK while the current budget (if any) is healthy; the budget's uniform
/// kBoundReached status once it is exhausted. The soundness idiom of every
/// search in this library:
///
///   if (found) return true;                         // positives are real
///   RELCONT_RETURN_NOT_OK(BudgetOkOrBound(site));   // truncated search
///   return false;                                   // exhaustive "no"
Status BudgetOkOrBound(std::string_view site);

/// Charges `n` against the current budget; OK on success, the budget's
/// kBoundReached status on exhaustion.
Status BudgetChargeOr(std::string_view site, uint64_t n = 1);

/// The ONE formatter for resource-bound failures, whether budget-driven or
/// a representational guard (the oracles' point and fact limits, §4's
/// child-combination guard): returns `kBoundReached` with the message
/// "bound reached [<site>]: <detail>", bumps the `bound_hits` trace
/// counter, and attributes the trip to `site` in the process-wide
/// bound-site registry below — so every bound hit is grep-able, countable,
/// and attributable the same way.
Status BoundReachedAt(std::string_view site, std::string_view detail);

/// Records one bound trip against `site` in the process-wide registry.
/// Called by BoundReachedAt for every minted status; services may also
/// call it directly to attribute an aggregation-level outcome (e.g. the
/// planner counting a whole request that ended kBoundReached), so the sum
/// over sites can exceed the number of distinct bound statuses.
void NoteBoundSite(std::string_view site);

/// The registry contents as (site, trips) pairs in lexicographic site
/// order. Counts are cumulative since process start; sites appear once
/// they have tripped at least once.
std::vector<std::pair<std::string, uint64_t>> BoundSiteCounts();

/// Extracts the `[<site>]` tag from a BoundReachedAt-minted status message
/// ("bound reached [<site>]: ..."). Empty view when the status is not
/// kBoundReached or carries no site tag — callers (access log, flight
/// recorder wide events) treat empty as "no site".
std::string_view BoundSiteFromStatus(const Status& status);

}  // namespace relcont

#endif  // RELCONT_COMMON_BUDGET_H_

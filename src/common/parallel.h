#ifndef RELCONT_COMMON_PARALLEL_H_
#define RELCONT_COMMON_PARALLEL_H_

#include <cstddef>
#include <functional>

#include "common/budget.h"

namespace relcont {

/// Runs `task(i)` once for each i in [0, n), fanned out over up to
/// `workers` threads. The calling thread participates, so `workers <= 1`
/// or `n <= 1` degenerates to an inline loop with zero threads spawned.
///
/// Scheduling is dynamic work-sharing: every thread claims the next
/// unclaimed index from one shared atomic cursor, so a thread stuck on an
/// expensive disjunct never blocks the cheap ones behind it (the
/// work-stealing effect the fan-out needs, without per-thread deques —
/// items are claimed one at a time, so there is nothing to steal back).
///
/// `task` returning false requests EARLY EXIT (first-counterexample-wins):
/// the region budget is cancelled, so in-flight siblings stop at their
/// next budget probe and unclaimed items are never started.
///
/// Every thread — including the caller — runs its tasks with `region`
/// installed as the thread-local CurrentBudget(). `region` must outlive
/// the call (stack allocation in the caller is the intended use) and
/// should chain to the caller's budget:
///
///   WorkBudget region(CurrentBudget());
///   ParallelScan(n, workers, &region, task);
///
/// Counting: helper threads have no TraceContext (contexts are
/// single-threaded by contract), but their counts are not lost — each
/// helper's trace counts are added to the caller's thread totals and open
/// span when the caller joins it, so a scan counts the same work whatever
/// its width. The scan itself counts parallel_tasks_spawned (before each
/// helper starts), parallel_tasks_completed (each helper's last action)
/// and parallel_tasks_cancelled (items never run to completion). Every
/// helper is joined before ParallelScan returns, so spawned == completed
/// afterwards (the service's pool-quiescence invariant).
void ParallelScan(size_t n, int workers, WorkBudget* region,
                  const std::function<bool(size_t)>& task);

}  // namespace relcont

#endif  // RELCONT_COMMON_PARALLEL_H_

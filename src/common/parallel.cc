#include "common/parallel.h"

#include <atomic>
#include <thread>
#include <vector>

#include "trace/trace.h"

namespace relcont {
namespace {

/// Claims indices from `next` and runs `task` until the items run out or
/// the region trips. Returns the number of items this thread completed.
size_t RunLoop(size_t n, WorkBudget* region, std::atomic<size_t>* next,
               const std::function<bool(size_t)>& task) {
  size_t done = 0;
  while (!region->Exhausted()) {
    size_t i = next->fetch_add(1, std::memory_order_relaxed);
    if (i >= n) break;
    bool keep_going = task(i);
    // The item ran to completion whatever it answered; only the REST of
    // the scan is abandoned on early exit.
    ++done;
    if (!keep_going) {
      region->Cancel();
      break;
    }
  }
  return done;
}

}  // namespace

void ParallelScan(size_t n, int workers, WorkBudget* region,
                  const std::function<bool(size_t)>& task) {
  if (n == 0) return;
  std::atomic<size_t> next{0};
  std::atomic<size_t> done{0};
  size_t helpers =
      workers <= 1 ? 0
                   : std::min(static_cast<size_t>(workers), n) - 1;
  // What each helper counted, handed to the caller when it is joined.
  std::vector<trace::CounterArray> helper_counts(helpers);
  std::vector<std::thread> threads;
  threads.reserve(helpers);
  for (size_t h = 0; h < helpers; ++h) {
    RELCONT_TRACE_COUNT(kParallelTasksSpawned, 1);
    threads.emplace_back([&, h, region] {
      BudgetScope scope(region);
      done.fetch_add(RunLoop(n, region, &next, task),
                     std::memory_order_relaxed);
      RELCONT_TRACE_COUNT(kParallelTasksCompleted, 1);
      // A fresh thread: every count it made belongs to this scan.
      helper_counts[h] = trace::ThreadCounts();
    });
  }
  {
    // The caller participates under the same region budget; its previous
    // budget (the region's parent) is restored on scope exit.
    BudgetScope scope(region);
    done.fetch_add(RunLoop(n, region, &next, task),
                   std::memory_order_relaxed);
  }
  for (size_t h = 0; h < helpers; ++h) {
    threads[h].join();
    for (size_t c = 0; c < trace::kNumCounters; ++c) {
      const uint64_t n = helper_counts[h][c];
      if (n != 0) trace::Count(static_cast<trace::Counter>(c), n);
    }
  }
  RELCONT_TRACE_COUNT(kParallelTasksCancelled,
                      n - done.load(std::memory_order_relaxed));
}

}  // namespace relcont

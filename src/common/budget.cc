#include "common/budget.h"

#include <map>
#include <mutex>
#include <string>

#include "trace/trace.h"

namespace relcont {
namespace {

thread_local WorkBudget* g_current_budget = nullptr;

// Process-wide bound-site registry. A mutex-guarded map is fine here:
// sites only trip on the error path of a decision, never inside a search
// loop, and the set of distinct sites is small and static.
struct BoundSiteRegistry {
  std::mutex mu;
  std::map<std::string, uint64_t> counts;
};

BoundSiteRegistry& GlobalBoundSites() {
  static BoundSiteRegistry* registry = new BoundSiteRegistry();
  return *registry;
}

}  // namespace

std::string_view BudgetReasonName(BudgetReason reason) {
  switch (reason) {
    case BudgetReason::kNone:
      return "none";
    case BudgetReason::kSteps:
      return "steps";
    case BudgetReason::kDeadline:
      return "deadline";
  }
  return "unknown";
}

bool WorkBudget::Charge(uint64_t n) {
  if (exhausted_.load(std::memory_order_relaxed)) return false;
  uint64_t used = steps_.fetch_add(n, std::memory_order_relaxed) + n;
  if (max_steps_ > 0 && used > static_cast<uint64_t>(max_steps_)) {
    MarkExhausted(BudgetReason::kSteps);
    return false;
  }
  if (has_deadline_) {
    // Read the clock on the first charge and then once per stride: a 1 ms
    // deadline trips within ~256 search steps of expiring, while the
    // steady_clock read stays off the inner-loop hot path.
    uint64_t prev = used - n;
    if (prev == 0 || used / kDeadlineCheckStride != prev / kDeadlineCheckStride) {
      if (std::chrono::steady_clock::now() >= deadline_) {
        MarkExhausted(BudgetReason::kDeadline);
        return false;
      }
    }
  }
  return true;
}

void WorkBudget::MarkExhausted(BudgetReason reason) {
  int expected = static_cast<int>(BudgetReason::kNone);
  // First trip wins, also when charges race on two threads, so
  // diagnostics are stable.
  reason_.compare_exchange_strong(expected, static_cast<int>(reason),
                                  std::memory_order_relaxed);
  exhausted_.store(true, std::memory_order_relaxed);
}

Status WorkBudget::ToStatus(std::string_view site) const {
  std::string detail;
  switch (reason()) {
    case BudgetReason::kSteps:
      detail = "step budget exhausted after " +
               std::to_string(steps_used()) + " steps";
      break;
    case BudgetReason::kDeadline:
      detail = "deadline exceeded";
      break;
    case BudgetReason::kNone:
      detail = "budget exhausted";
      break;
  }
  return BoundReachedAt(site, detail);
}

WorkBudget* CurrentBudget() { return g_current_budget; }

BudgetScope::BudgetScope(WorkBudget* budget) : prev_(g_current_budget) {
  g_current_budget = budget;
}

BudgetScope::~BudgetScope() { g_current_budget = prev_; }

bool BudgetCharge(uint64_t n) {
  WorkBudget* b = g_current_budget;
  return b == nullptr || b->Charge(n);
}

bool BudgetExhausted() {
  WorkBudget* b = g_current_budget;
  return b != nullptr && b->Exhausted();
}

Status BudgetOkOrBound(std::string_view site) {
  WorkBudget* b = g_current_budget;
  if (b == nullptr || !b->Exhausted()) return Status::OK();
  return b->ToStatus(site);
}

Status BudgetChargeOr(std::string_view site, uint64_t n) {
  WorkBudget* b = g_current_budget;
  if (b == nullptr || b->Charge(n)) return Status::OK();
  return b->ToStatus(site);
}

void NoteBoundSite(std::string_view site) {
  BoundSiteRegistry& registry = GlobalBoundSites();
  std::lock_guard<std::mutex> lock(registry.mu);
  ++registry.counts[std::string(site)];
}

std::vector<std::pair<std::string, uint64_t>> BoundSiteCounts() {
  BoundSiteRegistry& registry = GlobalBoundSites();
  std::lock_guard<std::mutex> lock(registry.mu);
  return std::vector<std::pair<std::string, uint64_t>>(
      registry.counts.begin(), registry.counts.end());
}

std::string_view BoundSiteFromStatus(const Status& status) {
  if (status.code() != StatusCode::kBoundReached) return {};
  std::string_view message = status.message();
  const size_t open = message.find('[');
  if (open == std::string_view::npos) return {};
  const size_t close = message.find(']', open + 1);
  if (close == std::string_view::npos) return {};
  return message.substr(open + 1, close - open - 1);
}

Status BoundReachedAt(std::string_view site, std::string_view detail) {
  RELCONT_TRACE_COUNT(kBoundHits, 1);
  NoteBoundSite(site);
  std::string message = "bound reached [";
  message.append(site);
  message.append("]: ");
  message.append(detail);
  return Status::BoundReached(message);
}

}  // namespace relcont

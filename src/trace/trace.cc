#include "trace/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>

#include "common/json.h"

namespace relcont {
namespace trace {

namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Appends a JSON-escaped copy of `s` (span names are plain identifiers,
/// but stay safe if one ever is not). Shared with the access log and the
/// bench schema so every JSON emitter escapes identically.
void AppendJsonString(std::string_view s, std::string* out) {
  json::AppendEscaped(s, out);
}

}  // namespace

namespace {
constinit thread_local TraceContext* g_current = nullptr;
constinit thread_local CounterArray g_thread_counts{};
// Constant-initialized, so readable from any static initializer.
constinit std::array<std::atomic<uint64_t>, kNumCounters> g_process_counts{};
}  // namespace

TraceContext* CurrentTrace() { return g_current; }

const CounterArray& ThreadCounts() { return g_thread_counts; }

void Count(Counter c, uint64_t delta) {
  g_thread_counts[static_cast<size_t>(c)] += delta;
  if constexpr (kCompiledIn) {
    if (g_current != nullptr) g_current->AddCount(c, delta);
  }
}

std::array<std::atomic<uint64_t>, kNumCounters>& ProcessCounts() {
  return g_process_counts;
}

void FoldIntoProcess(const CounterArray& mark) {
  const CounterArray& now = g_thread_counts;
  for (size_t c = 0; c < kNumCounters; ++c) {
    if (now[c] != mark[c]) {
      g_process_counts[c].fetch_add(now[c] - mark[c],
                                    std::memory_order_relaxed);
    }
  }
}

TraceContext::TraceContext() : epoch_ns_(NowNs()) {}

int TraceContext::OpenSpan(const char* name) {
  SpanNode node;
  node.name = name;
  node.start_ns = NowNs() - epoch_ns_;
  node.parent = open_;
  node.depth = open_ < 0 ? 0 : spans_[open_].depth + 1;
  int index = static_cast<int>(spans_.size());
  spans_.push_back(node);
  open_ = index;
  return index;
}

void TraceContext::CloseSpan(int index) {
  if (index < 0 || index >= static_cast<int>(spans_.size())) return;
  uint64_t now = NowNs() - epoch_ns_;
  // Close intervening spans too, so early returns that skip inner
  // destructors (there are none, but be safe) cannot corrupt the tree.
  while (open_ >= 0) {
    int closing = open_;
    if (spans_[closing].end_ns == 0) spans_[closing].end_ns = now;
    open_ = spans_[closing].parent;
    if (closing == index) break;
  }
}

void TraceContext::AddCount(Counter c, uint64_t delta) {
  if (spans_.empty()) {
    OpenSpan("orphan");  // counts recorded outside any span still land
  }
  int target = open_ >= 0 ? open_ : static_cast<int>(spans_.size()) - 1;
  spans_[target].counters[static_cast<size_t>(c)] += delta;
}

uint64_t TraceContext::TotalCount(Counter c) const {
  uint64_t total = 0;
  for (const SpanNode& s : spans_) total += s.counters[static_cast<size_t>(c)];
  return total;
}

uint64_t TraceContext::root_duration_ns() const {
  for (const SpanNode& s : spans_) {
    if (s.parent < 0) return s.duration_ns();
  }
  return 0;
}

std::vector<std::pair<std::string_view, uint64_t>> TraceContext::TopPhases()
    const {
  std::map<std::string_view, uint64_t> totals;
  for (const SpanNode& s : spans_) {
    if (s.depth <= 1) totals[s.name] += s.duration_ns();
  }
  std::vector<std::pair<std::string_view, uint64_t>> out(totals.begin(),
                                                         totals.end());
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  return out;
}

std::string TraceContext::ToText() const {
  std::string out;
  char buf[64];
  for (const SpanNode& s : spans_) {
    out.append(static_cast<size_t>(s.depth) * 2, ' ');
    out.append(s.name);
    std::snprintf(buf, sizeof(buf), " %llu.%03lluus",
                  static_cast<unsigned long long>(s.duration_ns() / 1000),
                  static_cast<unsigned long long>(s.duration_ns() % 1000));
    out.append(buf);
    for (size_t c = 0; c < kNumCounters; ++c) {
      uint64_t v = s.counters[c];
      if (v == 0) continue;
      out.push_back(' ');
      out.append(CounterName(static_cast<Counter>(c)));
      out.push_back('=');
      std::snprintf(buf, sizeof(buf), "%llu",
                    static_cast<unsigned long long>(v));
      out.append(buf);
    }
    out.push_back('\n');
  }
  return out;
}

std::string TraceContext::ToChromeJson() const {
  // The trace_event "X" (complete) phase wants microsecond floats; emit
  // fractional microseconds from the nanosecond timestamps.
  std::string out = "{\"displayTimeUnit\":\"ns\",";
  if (request_id_ != 0) {
    out.append("\"request_id\":");
    out.append(std::to_string(request_id_));
    out.push_back(',');
  }
  out.append("\"traceEvents\":[");
  char buf[96];
  bool first = true;
  for (const SpanNode& s : spans_) {
    if (!first) out.push_back(',');
    first = false;
    out.append("{\"name\":");
    AppendJsonString(s.name, &out);
    std::snprintf(buf, sizeof(buf),
                  ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%llu.%03llu,"
                  "\"dur\":%llu.%03llu",
                  static_cast<unsigned long long>(s.start_ns / 1000),
                  static_cast<unsigned long long>(s.start_ns % 1000),
                  static_cast<unsigned long long>(s.duration_ns() / 1000),
                  static_cast<unsigned long long>(s.duration_ns() % 1000));
    out.append(buf);
    out.append(",\"args\":{");
    bool first_arg = true;
    for (size_t c = 0; c < kNumCounters; ++c) {
      uint64_t v = s.counters[c];
      if (v == 0) continue;
      if (!first_arg) out.push_back(',');
      first_arg = false;
      AppendJsonString(CounterName(static_cast<Counter>(c)), &out);
      std::snprintf(buf, sizeof(buf), ":%llu",
                    static_cast<unsigned long long>(v));
      out.append(buf);
    }
    out.append("}}");
  }
  out.append("]}");
  return out;
}

TraceScope::TraceScope(TraceContext* ctx) : prev_(g_current) {
  g_current = ctx;
}

TraceScope::~TraceScope() { g_current = prev_; }

}  // namespace trace
}  // namespace relcont

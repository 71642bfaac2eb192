// Timing and aggregation helpers shared by the runners.
#ifndef SERVEBENCH_STATS_H_
#define SERVEBENCH_STATS_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace servebench {

using Clock = std::chrono::steady_clock;

inline double MicrosSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

/// Runs `fn` and returns its wall time in microseconds.
template <typename Fn>
double TimeUs(Fn&& fn) {
  Clock::time_point start = Clock::now();
  fn();
  return MicrosSince(start);
}

/// The q-quantile (0 <= q <= 1) by linear interpolation; 0 when empty.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] * (1 - frac) + values[hi] * frac;
}

/// A running sum of microseconds and calls for one layer.
struct LayerTime {
  double sum_us = 0;
  uint64_t calls = 0;
  void Add(double us) {
    sum_us += us;
    ++calls;
  }
  double MeanUs() const { return calls == 0 ? 0 : sum_us / calls; }
};

/// Counts that must repeat exactly between two passes over one sequence.
using ExactCounts = std::map<std::string, uint64_t>;

/// One reported metric: name -> (value, unit).
struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

}  // namespace servebench

#endif  // SERVEBENCH_STATS_H_

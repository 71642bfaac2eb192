// Drives a script against the service: in process through
// ServerSession::HandleLine (warm_hits, cold_mix) or over loopback TCP
// through obs::ObsServer (churn_tcp). An untraced pass only wraps each
// request in two clock reads; a traced pass additionally hands every step
// to a Tracer, which times the layers from outside (see tracer.h).
#ifndef SERVEBENCH_RUNNER_H_
#define SERVEBENCH_RUNNER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "script.h"
#include "stats.h"

namespace servebench {

class Tracer;

/// Each timed sequence is cut into this many consecutive segments by step
/// index. The end-to-end figures are medians over segments, so a burst of
/// host contention that hits one segment does not move them.
constexpr int kSegments = 8;

/// One timed request (CONTAINED?, PLAN? or CATALOG line; scrapes and
/// reconnects are timed separately).
struct Sample {
  double us = 0;
  Verb verb = Verb::kContained;
  uint16_t segment = 0;
};

struct PassResult {
  std::vector<Sample> samples;
  /// Wall time of the in-process loop over the timed sequence, client-side
  /// checks and (in a traced pass) the tracer's work included.
  double loop_us = 0;
  /// Median set-up time over the pass's set-ups.
  double setup_s = 0;
  uint64_t attempted = 0;
  uint64_t errors = 0;      ///< ERR replies
  uint64_t mismatches = 0;  ///< replies that disagree with the oracle
  std::vector<std::string> mismatch_samples;
  /// Counts that must repeat exactly on every pass over the script.
  ExactCounts counts;
  /// Peak resident memory the service added over the process's resident
  /// set just before the last set-up, in MB (see ServiceRss in runner.cc).
  double rss_peak_mb = 0;
  /// TCP only.
  std::vector<double> connect_us, scrape_metrics_us, scrape_statusz_us;

  void NoteMismatch(const std::string& what);

  /// Latencies of the samples of `verb` (every verb with `any_verb`) in
  /// `segment` (every segment when -1).
  std::vector<double> Latencies(bool any_verb, Verb verb,
                                int segment = -1) const;
  std::vector<double> AllUs(int segment = -1) const {
    return Latencies(true, Verb::kContained, segment);
  }
  /// Requests per second of waiting for replies in `segment` (every
  /// segment when -1). Every workload is one closed loop with one request
  /// in flight, so this is the rate the service sustained for it.
  /// Client-side work (checks, re-DEFINEs after a reconnect, scrapes) is
  /// not in it.
  double ThroughputRps(int segment = -1) const;
};

/// Runs the script's clients in process, one ServerSession each,
/// interleaved round-robin. `setups` set-ups are timed (the last one is
/// kept for the timed sequence). With a tracer, every step is also
/// replayed layer by layer; this is also how the TCP workload gets its
/// traced breakdown.
PassResult RunInProcess(const Script& script, int setups, Tracer* tracer);

/// Runs the script's clients over loopback TCP, one persistent connection
/// per client, from one thread that interleaves them round-robin with one
/// request in flight. The whole process, server threads included, runs on
/// one CPU at a time, moved across the CPUs in about 40 slices per run.
PassResult RunTcp(const Script& script, int setups);

}  // namespace servebench

#endif  // SERVEBENCH_RUNNER_H_

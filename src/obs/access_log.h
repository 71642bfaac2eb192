#ifndef RELCONT_OBS_ACCESS_LOG_H_
#define RELCONT_OBS_ACCESS_LOG_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>

#include "common/status.h"
#include "obs/flight.h"

namespace relcont {
namespace obs {

struct AccessLogOptions {
  std::string path;
  /// Log one of every `sample` request ids (1 = every request): ids 1,
  /// 1 + sample, 1 + 2·sample, ... Sampling is deterministic on the
  /// flight-recorder request id, so a given id is either always logged or
  /// never — reruns of a workload produce the same ids in the log.
  uint64_t sample = 1;
  /// Rotate when the current file would exceed this many bytes: the file
  /// is renamed to `<path>.1` (replacing any previous rotation) and a
  /// fresh file is opened. Two generations bound disk usage at ~2x.
  uint64_t max_bytes = 64ull << 20;
};

/// A structured JSONL access log: one line per request of every verb, each
/// the request's wide event as RenderWideEventJson renders it (the
/// /requestz schema, docs/OBSERVABILITY.md). ServiceMetrics::RecordFlight
/// hands it every finished event (ServiceMetrics::set_access_log). Writes
/// are mutex-serialized and flushed per line; sampling exists for
/// workloads where that cost shows. Thread-safe.
class AccessLog {
 public:
  /// Opens (appends to) `options.path`.
  static Result<std::unique_ptr<AccessLog>> Open(AccessLogOptions options);

  ~AccessLog();

  /// Writes `event` as one line if its request id is sampled.
  void Record(const WideEvent& event);

 private:
  explicit AccessLog(AccessLogOptions options, std::FILE* file,
                     uint64_t initial_bytes);

  void RotateLocked();

  AccessLogOptions options_;
  std::mutex mu_;
  std::FILE* file_;       // guarded by mu_
  uint64_t bytes_ = 0;    // size of the current file, guarded by mu_
};

}  // namespace obs
}  // namespace relcont

#endif  // RELCONT_OBS_ACCESS_LOG_H_

#include "obs/access_log.h"

#include <chrono>
#include <cstdio>

#include "common/budget.h"
#include "common/json.h"

namespace relcont {
namespace obs {

namespace {

int64_t NowUnixMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

void AppendField(std::string* out, const char* name, bool* first) {
  if (!*first) out->push_back(',');
  *first = false;
  json::AppendEscaped(name, out);
  out->push_back(':');
}

}  // namespace

Result<std::unique_ptr<AccessLog>> AccessLog::Open(AccessLogOptions options) {
  if (options.path.empty()) {
    return Status::InvalidArgument("access log needs a file path");
  }
  if (options.sample == 0) {
    return Status::InvalidArgument("access-log sample rate must be >= 1");
  }
  std::FILE* file = std::fopen(options.path.c_str(), "ab");
  if (file == nullptr) {
    return Status::InvalidArgument("cannot open access log '" +
                                   options.path + "'");
  }
  std::fseek(file, 0, SEEK_END);
  long size = std::ftell(file);
  uint64_t bytes = size > 0 ? static_cast<uint64_t>(size) : 0;
  return std::unique_ptr<AccessLog>(
      new AccessLog(std::move(options), file, bytes));
}

AccessLog::AccessLog(AccessLogOptions options, std::FILE* file,
                     uint64_t initial_bytes)
    : options_(std::move(options)), file_(file), bytes_(initial_bytes) {}

AccessLog::~AccessLog() {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ != nullptr) std::fclose(file_);
}

std::string AccessLog::RenderEvent(int64_t unix_micros,
                                   const DecisionRequest& request,
                                   const DecisionResponse& response) {
  std::string out = "{";
  bool first = true;
  AppendField(&out, "request_id", &first);
  out += std::to_string(response.request_id);
  AppendField(&out, "ts_unix_micros", &first);
  out += std::to_string(unix_micros);
  AppendField(&out, "catalog", &first);
  json::AppendEscaped(request.catalog, &out);
  AppendField(&out, "catalog_version", &first);
  out += std::to_string(response.catalog_version);
  AppendField(&out, "q1", &first);
  json::AppendEscaped(request.q1_text, &out);
  AppendField(&out, "q2", &first);
  json::AppendEscaped(request.q2_text, &out);
  AppendField(&out, "regime", &first);
  json::AppendEscaped(RegimeName(response.regime), &out);
  AppendField(&out, "contained", &first);
  out += response.contained ? "true" : "false";
  AppendField(&out, "cache_hit", &first);
  out += response.cache_hit ? "true" : "false";
  AppendField(&out, "latency_us", &first);
  out += std::to_string(response.latency_micros);
  AppendField(&out, "error", &first);
  json::AppendEscaped(
      response.status.ok() ? std::string() : response.status.ToString(),
      &out);
  AppendField(&out, "bound_site", &first);
  json::AppendEscaped(BoundSiteFromStatus(response.status), &out);
  if (response.trace != nullptr && !response.trace->spans().empty()) {
    // The top-of-tree digest only — the full tree belongs to EXPLAIN, not
    // to a per-request log line.
    const auto phases = response.trace->TopPhases();
    AppendField(&out, "phases", &first);
    out.push_back('[');
    for (size_t i = 0; i < phases.size(); ++i) {
      if (i > 0) out.push_back(',');
      out += "{\"phase\":";
      json::AppendEscaped(phases[i].first, &out);
      out += ",\"ns\":";
      out += std::to_string(phases[i].second);
      out.push_back('}');
    }
    out.push_back(']');
  }
  out.push_back('}');
  return out;
}

void AccessLog::Record(const DecisionRequest& request,
                       const DecisionResponse& response) {
  if (response.request_id % options_.sample != 1 % options_.sample) return;
  std::string line = RenderEvent(NowUnixMicros(), request, response);
  line.push_back('\n');
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ == nullptr) return;
  if (bytes_ > 0 && bytes_ + line.size() > options_.max_bytes) {
    RotateLocked();
  }
  std::fwrite(line.data(), 1, line.size(), file_);
  std::fflush(file_);
  bytes_ += line.size();
}

void AccessLog::RotateLocked() {
  std::fclose(file_);
  file_ = nullptr;
  std::string rotated = options_.path + ".1";
  std::remove(rotated.c_str());
  std::rename(options_.path.c_str(), rotated.c_str());
  file_ = std::fopen(options_.path.c_str(), "wb");
  bytes_ = 0;
}

}  // namespace obs
}  // namespace relcont

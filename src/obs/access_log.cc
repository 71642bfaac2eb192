#include "obs/access_log.h"

#include <cstdio>

namespace relcont {
namespace obs {

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

void AccessLog::Record(const WideEvent& event) {
  if (event.request_id % options_.sample != 1 % options_.sample) return;
  char line[2048];
  size_t size = RenderWideEventJson(event, line, sizeof line);
  line[size++] = '\n';  // over the terminating NUL
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ != nullptr && bytes_ > 0 && bytes_ + size > options_.max_bytes) {
    RotateLocked();
  }
  if (file_ == nullptr) return;  // a failed rotation
  std::fwrite(line, 1, size, file_);
  std::fflush(file_);
  bytes_ += size;
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

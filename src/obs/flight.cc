#include "obs/flight.h"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>

namespace relcont {
namespace obs {

namespace {

// --- async-signal-safe formatting helpers -----------------------------------
// All of these append into a caller-owned buffer, truncate at cap-1, and
// return the new logical position (which may exceed cap-1 after
// truncation; writes past the cap are suppressed, the final NUL is not).

size_t AppendChar(char* buf, size_t cap, size_t pos, char c) {
  if (pos + 1 < cap) buf[pos] = c;
  return pos + 1;
}

size_t AppendStr(char* buf, size_t cap, size_t pos, const char* s) {
  for (; *s != '\0'; ++s) pos = AppendChar(buf, cap, pos, *s);
  return pos;
}

size_t AppendU64(char* buf, size_t cap, size_t pos, uint64_t v) {
  char digits[20];
  int n = 0;
  do {
    digits[n++] = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  while (n > 0) pos = AppendChar(buf, cap, pos, digits[--n]);
  return pos;
}

size_t AppendI64(char* buf, size_t cap, size_t pos, int64_t v) {
  if (v < 0) {
    pos = AppendChar(buf, cap, pos, '-');
    return AppendU64(buf, cap, pos, static_cast<uint64_t>(-(v + 1)) + 1);
  }
  return AppendU64(buf, cap, pos, static_cast<uint64_t>(v));
}

/// Quoted JSON string from a NUL-terminated field. Escapes quote and
/// backslash, and writes a control byte as \u00XX, so distinct fields
/// render distinctly; signal-safe and allocation-free.
size_t AppendJsonStr(char* buf, size_t cap, size_t pos, const char* s) {
  pos = AppendChar(buf, cap, pos, '"');
  for (; *s != '\0'; ++s) {
    unsigned char c = static_cast<unsigned char>(*s);
    if (c < 0x20) {
      pos = AppendStr(buf, cap, pos, "\\u00");
      pos = AppendChar(buf, cap, pos, "0123456789abcdef"[c >> 4]);
      pos = AppendChar(buf, cap, pos, "0123456789abcdef"[c & 0xf]);
      continue;
    }
    if (c == '"' || c == '\\') pos = AppendChar(buf, cap, pos, '\\');
    pos = AppendChar(buf, cap, pos, static_cast<char>(c));
  }
  return AppendChar(buf, cap, pos, '"');
}

size_t AppendBool(char* buf, size_t cap, size_t pos, bool v) {
  return AppendStr(buf, cap, pos, v ? "true" : "false");
}

/// write(2) the whole buffer, retrying on short writes and EINTR.
void WriteAll(int fd, const char* data, size_t len) {
  while (len > 0) {
    ssize_t n = ::write(fd, data, len);
    if (n <= 0) return;  // nothing recoverable to do in a signal handler
    data += n;
    len -= static_cast<size_t>(n);
  }
}

}  // namespace

uint64_t ParseRequestId(std::string_view text) {
  // from_chars into an unsigned type takes digits only: no sign, no
  // whitespace, and an overflow is an error, not a wrap.
  uint64_t id = 0;
  const char* end = text.data() + text.size();
  auto [ptr, error] = std::from_chars(text.data(), end, id);
  return error == std::errc() && ptr == end ? id : 0;
}

size_t RenderWideEventJson(const WideEvent& e, char* buf, size_t cap) {
  size_t pos = 0;
  pos = AppendStr(buf, cap, pos, "{\"request_id\":");
  pos = AppendU64(buf, cap, pos, e.request_id);
  pos = AppendStr(buf, cap, pos, ",\"ts_unix_micros\":");
  pos = AppendU64(buf, cap, pos, e.ts_unix_micros);
  pos = AppendStr(buf, cap, pos, ",\"verb\":");
  pos = AppendJsonStr(buf, cap, pos, e.verb);
  pos = AppendStr(buf, cap, pos, ",\"regime\":");
  pos = AppendJsonStr(buf, cap, pos, e.regime);
  pos = AppendStr(buf, cap, pos, ",\"catalog\":");
  pos = AppendJsonStr(buf, cap, pos, e.catalog);
  pos = AppendStr(buf, cap, pos, ",\"catalog_version\":");
  pos = AppendI64(buf, cap, pos, e.catalog_version);
  pos = AppendStr(buf, cap, pos, ",\"latency_us\":");
  pos = AppendU64(buf, cap, pos, e.latency_micros);
  pos = AppendStr(buf, cap, pos, ",\"cache_hit\":");
  pos = AppendBool(buf, cap, pos, e.cache_hit != 0);
  pos = AppendStr(buf, cap, pos, ",\"error\":");
  pos = AppendBool(buf, cap, pos, e.error != 0);
  pos = AppendStr(buf, cap, pos, ",\"bound\":");
  pos = AppendBool(buf, cap, pos, e.bound != 0);
  pos = AppendStr(buf, cap, pos, ",\"bound_site\":");
  pos = AppendJsonStr(buf, cap, pos, e.bound_site);
  pos = AppendStr(buf, cap, pos, ",\"traced\":");
  pos = AppendBool(buf, cap, pos, e.traced != 0);
  pos = AppendStr(buf, cap, pos, ",\"phases\":[");
  bool first = true;
  for (const WideEvent::Phase& phase : e.phases) {
    if (phase.name[0] == '\0') continue;
    if (!first) pos = AppendChar(buf, cap, pos, ',');
    first = false;
    pos = AppendStr(buf, cap, pos, "{\"name\":");
    pos = AppendJsonStr(buf, cap, pos, phase.name);
    pos = AppendStr(buf, cap, pos, ",\"ns\":");
    pos = AppendU64(buf, cap, pos, phase.ns);
    pos = AppendChar(buf, cap, pos, '}');
  }
  pos = AppendStr(buf, cap, pos, "]}");
  size_t len = pos < cap - 1 ? pos : cap - 1;
  buf[len] = '\0';
  return len;
}

FlightRecorder::FlightRecorder(const Options& options) {
  statusz_buf_[0] = '\0';
  Configure(options);
}

void FlightRecorder::Configure(const Options& options) {
  size_t capacity = 1;
  while (capacity < options.ring_capacity) capacity <<= 1;
  capacity_ = capacity;
  mask_ = capacity - 1;
  arena_max_bytes_ = options.arena_max_bytes;
  head_sample_every_ = options.head_sample_every;
  // Value-initialized: every seq word starts 0 (empty slot).
  ring_.reset(new std::atomic<uint64_t>[capacity_ * kSlotWords]());
  head_.store(0, std::memory_order_relaxed);
}

void FlightRecorder::Record(const WideEvent& event) {
  recorded_.fetch_add(1, std::memory_order_relaxed);
  const uint64_t ticket = head_.fetch_add(1, std::memory_order_relaxed);
  std::atomic<uint64_t>* slot = &ring_[(ticket & mask_) * kSlotWords];
  uint64_t seq = slot[0].load(std::memory_order_relaxed);
  // Claim the slot by bumping the seqlock to odd. A concurrent claimant is
  // a writer exactly one ring lap away; the loser drops its write — its
  // event would have been overwritten within a lap anyway, and dropping
  // preserves the invariant that payload words have exactly one writer.
  if ((seq & 1) != 0 ||
      !slot[0].compare_exchange_strong(seq, seq + 1,
                                       std::memory_order_acquire,
                                       std::memory_order_relaxed)) {
    return;
  }
  uint64_t words[kPayloadWords] = {};
  std::memcpy(words, &event, sizeof(WideEvent));
  for (size_t i = 0; i < kPayloadWords; ++i) {
    slot[1 + i].store(words[i], std::memory_order_relaxed);
  }
  slot[0].store(seq + 2, std::memory_order_release);
}

bool FlightRecorder::ReadSlot(size_t slot_index, WideEvent* out) const {
  const std::atomic<uint64_t>* slot = &ring_[slot_index * kSlotWords];
  const uint64_t seq = slot[0].load(std::memory_order_acquire);
  if (seq == 0 || (seq & 1) != 0) return false;
  uint64_t words[kPayloadWords];
  for (size_t i = 0; i < kPayloadWords; ++i) {
    words[i] = slot[1 + i].load(std::memory_order_relaxed);
  }
  std::atomic_thread_fence(std::memory_order_acquire);
  if (slot[0].load(std::memory_order_relaxed) != seq) return false;
  std::memcpy(out, words, sizeof(WideEvent));
  return true;
}

std::vector<WideEvent> FlightRecorder::RecentEvents(
    size_t max_events) const {
  std::vector<WideEvent> out;
  const uint64_t head = head_.load(std::memory_order_acquire);
  const uint64_t lap = std::min<uint64_t>(head, capacity_);
  for (uint64_t i = 0; i < lap && out.size() < max_events; ++i) {
    const uint64_t ticket = head - 1 - i;
    WideEvent event;
    if (ReadSlot(ticket & mask_, &event)) out.push_back(event);
  }
  return out;
}

void FlightRecorder::Retain(const WideEvent& event, std::string trace_text,
                            std::string chrome_json) {
  const size_t bytes =
      sizeof(WideEvent) + trace_text.size() + chrome_json.size();
  std::lock_guard<std::mutex> lock(arena_mu_);
  if (bytes > arena_max_bytes_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  arena_.push_back({event, std::move(trace_text), std::move(chrome_json)});
  arena_used_bytes_ += bytes;
  while (arena_used_bytes_ > arena_max_bytes_ && !arena_.empty()) {
    const Retained& victim = arena_.front();
    arena_used_bytes_ -= sizeof(WideEvent) + victim.trace_text.size() +
                         victim.chrome_json.size();
    arena_.pop_front();
    dropped_.fetch_add(1, std::memory_order_relaxed);
  }
  retained_.fetch_add(1, std::memory_order_relaxed);
  arena_bytes_gauge_.store(arena_used_bytes_, std::memory_order_relaxed);
}

std::optional<FlightRecorder::Retained> FlightRecorder::FindRetained(
    uint64_t request_id) const {
  std::lock_guard<std::mutex> lock(arena_mu_);
  for (auto it = arena_.rbegin(); it != arena_.rend(); ++it) {
    if (it->event.request_id == request_id) return *it;
  }
  return std::nullopt;
}

std::vector<uint64_t> FlightRecorder::RetainedIds() const {
  std::lock_guard<std::mutex> lock(arena_mu_);
  std::vector<uint64_t> out;
  out.reserve(arena_.size());
  for (auto it = arena_.rbegin(); it != arena_.rend(); ++it) {
    out.push_back(it->event.request_id);
  }
  return out;
}

std::vector<WideEvent> FlightRecorder::SlowestRetained(size_t n) const {
  std::lock_guard<std::mutex> lock(arena_mu_);
  std::vector<const WideEvent*> events;
  events.reserve(arena_.size());
  for (const Retained& entry : arena_) events.push_back(&entry.event);
  n = std::min(n, events.size());
  std::partial_sort(events.begin(), events.begin() + n, events.end(),
                    [](const WideEvent* a, const WideEvent* b) {
                      if (a->latency_micros != b->latency_micros) {
                        return a->latency_micros > b->latency_micros;
                      }
                      return a->request_id < b->request_id;
                    });
  std::vector<WideEvent> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) out.push_back(*events[i]);
  return out;
}

void FlightRecorder::StoreStatuszSnapshot(std::string_view json) {
  std::lock_guard<std::mutex> lock(statusz_mu_);
  const uint64_t seq = statusz_seq_.load(std::memory_order_relaxed);
  statusz_seq_.store(seq + 1, std::memory_order_release);  // odd: mid-write
  const size_t n = std::min(json.size(), kStatuszCap - 1);
  std::memcpy(statusz_buf_, json.data(), n);
  statusz_buf_[n] = '\0';
  statusz_len_.store(n, std::memory_order_relaxed);
  statusz_seq_.store(seq + 2, std::memory_order_release);
}

void FlightRecorder::DumpTo(int fd, int signal) const {
  char buf[2048];
  size_t pos = AppendStr(buf, sizeof buf, 0, "relcont-crash-v1 signal=");
  pos = AppendI64(buf, sizeof buf, pos, signal);
  pos = AppendStr(buf, sizeof buf, pos, " recorded=");
  pos = AppendU64(buf, sizeof buf, pos, recorded_total());
  pos = AppendStr(buf, sizeof buf, pos, " retained=");
  pos = AppendU64(buf, sizeof buf, pos, retained_total());
  pos = AppendStr(buf, sizeof buf, pos, " dropped=");
  pos = AppendU64(buf, sizeof buf, pos, dropped_total());
  pos = AppendChar(buf, sizeof buf, pos, '\n');
  WriteAll(fd, buf, std::min(pos, sizeof buf - 1));

  // The statusz snapshot, pre-rendered by the obs server's watchdog. If a
  // refresh was interrupted by this very crash the seq is odd; dump the
  // (possibly stale) buffer anyway — a black box prefers partial truth.
  const uint64_t seq = statusz_seq_.load(std::memory_order_acquire);
  const size_t len = statusz_len_.load(std::memory_order_relaxed);
  if (seq != 0 && len > 0) {
    WriteAll(fd, "STATUSZ ", 8);
    WriteAll(fd, statusz_buf_, len);
    if (statusz_buf_[len - 1] != '\n') WriteAll(fd, "\n", 1);
  } else {
    WriteAll(fd, "STATUSZ unavailable\n", 20);
  }

  const uint64_t head = head_.load(std::memory_order_acquire);
  const uint64_t lap = std::min<uint64_t>(head, capacity_);
  for (uint64_t i = 0; i < lap; ++i) {
    const uint64_t ticket = head - 1 - i;
    WideEvent event;
    if (!ReadSlot(ticket & mask_, &event)) continue;
    WriteAll(fd, "EVENT ", 6);
    const size_t n = RenderWideEventJson(event, buf, sizeof buf);
    WriteAll(fd, buf, n);
    WriteAll(fd, "\n", 1);
  }
  WriteAll(fd, "END\n", 4);
}

namespace {

FlightRecorder* g_crash_recorder = nullptr;
int g_crash_fd = STDERR_FILENO;

void CrashHandler(int sig) {
  FlightRecorder* recorder = g_crash_recorder;
  if (recorder != nullptr) recorder->DumpTo(g_crash_fd, sig);
  // SA_RESETHAND restored the default disposition on entry; re-raise so
  // the process dies by the original signal (keeping core-dump and
  // wait-status semantics for whoever supervises it).
  raise(sig);
}

}  // namespace

void InstallCrashHandler(FlightRecorder* recorder, const char* dump_path) {
  g_crash_recorder = recorder;
  if (dump_path != nullptr && *dump_path != '\0') {
    int fd = ::open(dump_path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) g_crash_fd = fd;
  }
  struct sigaction sa;
  std::memset(&sa, 0, sizeof sa);
  sa.sa_handler = CrashHandler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESETHAND;
  sigaction(SIGSEGV, &sa, nullptr);
  sigaction(SIGABRT, &sa, nullptr);
}

}  // namespace obs
}  // namespace relcont

#ifndef RELCONT_OBS_FLIGHT_H_
#define RELCONT_OBS_FLIGHT_H_

/// Request-scoped flight recorder: the per-request forensic layer under
/// REQUESTZ / GET /requestz (docs/OBSERVABILITY.md, "Flight recorder").
///
/// Three pieces, each with a distinct durability/cost contract:
///
///   * a monotonic REQUEST ID counter, minted once per service request and
///     threaded end to end (response lines, traces, access log, /statusz
///     slow requests, error lines);
///   * a lock-free RING of fixed-size WIDE EVENTS — one per request, every
///     field an operator needs to triage a tail sample (verb, regime,
///     catalog+version, cache hit, bound site, latency, phase
///     digest). Writers pay a ticket fetch_add, a seqlock claim, and
///     ~32 relaxed word stores; readers validate the seqlock so a torn
///     event is skipped, never surfaced;
///   * a bounded RETENTION ARENA holding the full span tree (text + Chrome
///     trace JSON) for the requests worth keeping: errored, kBoundReached,
///     slower than the live trailing-window p99, or the cheap head sample.
///     FIFO-evicted under a byte cap so a burst of slow requests cannot
///     grow memory without bound.
///
/// The ring doubles as a crash BLACK BOX: DumpTo(fd) walks it with only
/// async-signal-safe operations, so the SIGSEGV/SIGABRT handler installed
/// by InstallCrashHandler can write the last N wide events plus a
/// pre-rendered /statusz snapshot to --crash-dump before the process dies.

#include <atomic>
#include <cstdint>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace relcont {
namespace obs {

/// One request's worth of telemetry, fixed-size and trivially copyable so
/// it can live in the atomic-word ring and be rendered from a signal
/// handler. String fields are truncating copies. A catalog name too long
/// for its field keeps a prefix and is marked (see set_catalog), so two
/// long names never log as the same catalog.
struct WideEvent {
  static constexpr int kMaxPhases = 4;
  static constexpr size_t kVerbChars = 12;
  static constexpr size_t kRegimeChars = 16;
  static constexpr size_t kCatalogChars = 32;
  static constexpr size_t kSiteChars = 32;
  static constexpr size_t kPhaseChars = 24;

  uint64_t request_id = 0;
  uint64_t ts_unix_micros = 0;
  uint64_t latency_micros = 0;
  int64_t catalog_version = 0;
  uint8_t error = 0;      ///< non-OK status
  uint8_t cache_hit = 0;
  uint8_t traced = 0;     ///< a span tree was collected for this request
  uint8_t bound = 0;      ///< status was kBoundReached
  char verb[kVerbChars] = {};        ///< "contained" | "plan" | "rewrite"
  char regime[kRegimeChars] = {};
  char catalog[kCatalogChars] = {};
  char bound_site[kSiteChars] = {};  ///< the [site] tag of a bound status

  /// Top-of-tree phase digest (root span and its direct children,
  /// aggregated by name, largest first) when the request was traced.
  struct Phase {
    char name[kPhaseChars] = {};
    uint64_t ns = 0;
  };
  Phase phases[kMaxPhases] = {};

  /// string_view::copy, unlike memcpy, accepts the null data() of an
  /// empty view (BoundSiteFromStatus of an OK status).
  static void CopyInto(char* dst, size_t cap, std::string_view src) {
    dst[src.copy(dst, cap - 1)] = '\0';
  }
  void set_verb(std::string_view v) { CopyInto(verb, kVerbChars, v); }
  void set_regime(std::string_view v) { CopyInto(regime, kRegimeChars, v); }
  /// A name longer than kCatalogChars - 1 bytes becomes its first
  /// kCatalogPrefix bytes, a space, '#' and the 8 hex digits of the whole
  /// name's 32-bit FNV-1a hash. A protocol token holds no space, so the
  /// mark cannot be mistaken for a name.
  static constexpr size_t kCatalogPrefix = kCatalogChars - 1 - 10;
  void set_catalog(std::string_view v) {
    if (v.size() < kCatalogChars) {
      CopyInto(catalog, kCatalogChars, v);
      return;
    }
    uint32_t hash = 2166136261u;
    for (char c : v) hash = (hash ^ static_cast<unsigned char>(c)) * 16777619u;
    v.copy(catalog, kCatalogPrefix);
    char* mark = catalog + kCatalogPrefix;
    *mark++ = ' ';
    *mark++ = '#';
    for (int shift = 28; shift >= 0; shift -= 4) {
      *mark++ = "0123456789abcdef"[(hash >> shift) & 0xf];
    }
    *mark = '\0';
  }
  void set_bound_site(std::string_view v) {
    CopyInto(bound_site, kSiteChars, v);
  }
};
static_assert(sizeof(WideEvent) % 8 == 0, "ring slots are 64-bit words");

/// Renders `event` as one JSON object into `buf` (capacity `cap`,
/// NUL-terminated, truncating) and returns the rendered length. Uses no
/// allocation, locale, or errno — async-signal-safe — and is the ONE wide
/// event renderer: /requestz and the crash dump both call it, so the two
/// surfaces cannot drift (tools/metrics_lint pins the keys against the
/// OBSERVABILITY.md schema table).
size_t RenderWideEventJson(const WideEvent& event, char* buf, size_t cap);

/// Reads a request id as REQUESTZ and GET /requestz?id= take it: decimal
/// digits only (no sign, no whitespace), nonzero, within 64 bits. Returns
/// 0 — never a minted id — for anything else.
uint64_t ParseRequestId(std::string_view text);

class FlightRecorder {
 public:
  struct Options {
    size_t ring_capacity = 1024;     ///< rounded up to a power of two
    size_t arena_max_bytes = 512 * 1024;
    uint64_t head_sample_every = 64; ///< 0 disables head sampling
  };

  /// A retained request: the wide event plus its full span renderings
  /// (empty strings when the request was not traced).
  struct Retained {
    WideEvent event;
    std::string trace_text;
    std::string chrome_json;
  };

  FlightRecorder() : FlightRecorder(Options{}) {}
  explicit FlightRecorder(const Options& options);
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Reallocates the ring and rebinds the caps. Call before any traffic
  /// (the service constructor does); not safe concurrently with Record.
  void Configure(const Options& options);

  /// Mints the next request id (monotonic from 1, process-wide per
  /// recorder — one recorder per service, shared by all verbs).
  uint64_t NextRequestId() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Records one wide event into the ring. Lock-free; a writer that loses
  /// the (one-full-lap) slot race drops its write, never tears another's.
  void Record(const WideEvent& event);

  /// Retains the full span renderings for one request in the FIFO arena.
  /// Evicts oldest entries past the byte cap (each eviction counts as a
  /// drop); an entry larger than the whole arena is dropped outright.
  void Retain(const WideEvent& event, std::string trace_text,
              std::string chrome_json);

  /// True for the cheap head sample (every Nth id) that keeps some healthy
  /// requests in the arena for baseline comparison.
  bool ShouldHeadSample(uint64_t request_id) const {
    return head_sample_every_ != 0 &&
           request_id % head_sample_every_ == 1 % head_sample_every_;
  }

  /// The most recent ring events, newest first, torn/empty slots skipped.
  std::vector<WideEvent> RecentEvents(size_t max_events = 128) const;

  /// The retained entry for `request_id`, if still resident.
  std::optional<Retained> FindRetained(uint64_t request_id) const;
  /// Ids currently resident in the arena, newest first.
  std::vector<uint64_t> RetainedIds() const;
  /// The wide events of the `n` slowest resident entries, slowest first
  /// (equal latencies: lower id first).
  std::vector<WideEvent> SlowestRetained(size_t n) const;

  uint64_t recorded_total() const {
    return recorded_.load(std::memory_order_relaxed);
  }
  uint64_t retained_total() const {
    return retained_.load(std::memory_order_relaxed);
  }
  uint64_t dropped_total() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  uint64_t arena_bytes() const {
    return arena_bytes_gauge_.load(std::memory_order_relaxed);
  }
  size_t ring_capacity() const { return capacity_; }
  size_t arena_max_bytes() const { return arena_max_bytes_; }
  uint64_t head_sample_every() const { return head_sample_every_; }

  /// Stores a pre-rendered /statusz JSON document for the crash dump. The
  /// signal handler cannot render one (RenderStatuszJson allocates), so
  /// the obs server refreshes this copy about once a second.
  void StoreStatuszSnapshot(std::string_view json);

  /// Writes the crash black box to `fd`: a header line, the stored statusz
  /// snapshot, one "EVENT {...}" line per ring event (newest first), and
  /// an "END" line. Async-signal-safe: write(2), atomic loads, and stack
  /// buffers only.
  void DumpTo(int fd, int signal) const;

 private:
  static constexpr size_t kPayloadWords = (sizeof(WideEvent) + 7) / 8;
  static constexpr size_t kSlotWords = kPayloadWords + 1;  // +1: seqlock
  static constexpr size_t kStatuszCap = 65536;

  /// Seqlock-validated slot read; false on empty, mid-write, or torn.
  bool ReadSlot(size_t slot_index, WideEvent* out) const;

  size_t capacity_ = 0;  // power of two
  size_t mask_ = 0;
  size_t arena_max_bytes_ = 0;
  uint64_t head_sample_every_ = 0;

  std::unique_ptr<std::atomic<uint64_t>[]> ring_;
  std::atomic<uint64_t> head_{0};      // next ticket
  std::atomic<uint64_t> next_id_{1};
  std::atomic<uint64_t> recorded_{0};
  std::atomic<uint64_t> retained_{0};
  std::atomic<uint64_t> dropped_{0};
  std::atomic<uint64_t> arena_bytes_gauge_{0};

  mutable std::mutex arena_mu_;
  std::deque<Retained> arena_;   // guarded by arena_mu_
  size_t arena_used_bytes_ = 0;  // guarded by arena_mu_

  std::mutex statusz_mu_;  // serializes writers; the AS reader takes none
  std::atomic<uint64_t> statusz_seq_{0};
  std::atomic<size_t> statusz_len_{0};
  char statusz_buf_[kStatuszCap];
};

/// Installs the SIGSEGV/SIGABRT crash handler: on either signal the
/// handler writes `recorder`'s black box (DumpTo) to `dump_path` (opened
/// now, truncating; stderr when null/empty or unopenable), then re-raises
/// with the default disposition so the process still dies by the original
/// signal. SA_RESETHAND keeps a crash inside the handler from looping.
void InstallCrashHandler(FlightRecorder* recorder, const char* dump_path);

}  // namespace obs
}  // namespace relcont

#endif  // RELCONT_OBS_FLIGHT_H_

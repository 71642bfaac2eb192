#ifndef RELCONT_SERVICE_SERVICE_H_
#define RELCONT_SERVICE_SERVICE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/sharded_lru.h"
#include "planner/planner.h"
#include "relcont/decide.h"
#include "service/catalog.h"
#include "service/metrics.h"
#include "trace/trace.h"

namespace relcont {

/// The containment-decision service: many clients ask `Q1 ⊑_V Q2 ?`
/// against named catalogs of source descriptions, and the service amortizes
/// the (Π₂ᴾ-hard) decisions with a canonical-form cache and a thread-pool
/// batch executor.
///
/// Concurrency model. Decisions and plans are pure functions of
/// (queries, catalog, options), but the library's procedures allocate
/// fresh symbols through a non-thread-safe Interner. The service therefore
/// confines every Interner-carrying structure to a WorkerContext
/// (service/catalog.h) owned by exactly one thread at a time; the only
/// shared state is the catalog registry (mutex), the decision and plan
/// caches (sharded mutexes, values are interner-independent text), and the
/// metrics (atomics).

/// Shard count of the decision and plan caches (the key hash picks the
/// shard; each shard has its own mutex).
inline constexpr size_t kCacheShards = 8;

struct ServiceConfig {
  /// Total decision-cache capacity in entries.
  size_t cache_capacity = 4096;
  /// When true every request is traced (as if collect_trace were set) and
  /// folded into the metrics aggregates. Off by default: tracing allocates
  /// and is not free, unlike the dormant instrumentation hooks.
  bool trace_requests = false;
  /// Deadline applied to requests that do not set their own timeout_ms
  /// (0 = no default deadline). A request past its deadline answers
  /// kBoundReached — a bound, not an error.
  int64_t default_timeout_ms = 0;
  /// Total plan-cache capacity in entries (the planner's cache is separate
  /// from the decision cache: plans are large values with a different
  /// working set).
  size_t plan_cache_capacity = 4096;
  /// Long trailing window for the sliding-window latency percentiles, in
  /// seconds (the short window is fixed at 10 s). Clamped to the window
  /// ring size (obs::WindowRing::kMaxWindowSecs).
  int window_secs = 60;
  /// Flight-recorder sizing (src/obs/flight.h): wide-event ring slots
  /// (rounded up to a power of two), retention-arena byte cap, and the
  /// head-sampling period (every Nth request retained even when healthy;
  /// 0 disables head sampling).
  size_t flight_ring_capacity = 1024;
  size_t flight_arena_kb = 512;
  uint64_t flight_head_sample = 64;
};

/// One containment question. The query texts use the ParseProgram syntax
/// (multi-rule text forms a UCQ or recursive program); the goal is the
/// head predicate of the first rule.
struct DecisionRequest {
  std::string q1_text;
  std::string q2_text;
  /// The canonical fingerprints (CanonicalProgramFingerprint) of q1_text
  /// and q2_text, when the caller has them; "" derives one from its text.
  /// A non-empty fingerprint must equal that of the text beside it: the
  /// cache key is built from it, and a hit never reads the text. DEFINE is
  /// the one producer (ServerSession).
  std::string q1_fingerprint;
  std::string q2_fingerprint;
  /// Name of a catalog previously registered with the service.
  std::string catalog;
  DecideOptions options;
  /// When true the cache is neither consulted nor filled (used by the
  /// benchmarks to measure cold decision cost, and available to clients
  /// that need a from-scratch re-derivation).
  bool bypass_cache = false;
  /// When true the decision runs under a TraceContext and the response
  /// carries the recorded span tree (EXPLAIN sets this, together with
  /// bypass_cache so there is an actual decision to trace).
  bool collect_trace = false;
};

struct DecisionResponse {
  /// Non-OK on parse errors, unknown catalogs, or undecidable fragments;
  /// the decision fields are meaningful only when ok.
  Status status;
  bool contained = false;
  Regime regime = Regime::kUnknown;
  /// Rendered witness ("" when none — see Decision::witness).
  std::string witness_text;
  bool cache_hit = false;
  uint64_t latency_micros = 0;
  /// The flight-recorder request id minted for this request; echoed on
  /// protocol response lines (`id=N` / `ERR [id=N]`) and the key into
  /// /requestz?id=N when the request was retained.
  uint64_t request_id = 0;
  /// Version of the catalog the decision ran against (0 when the request
  /// failed before catalog resolution). Lets the wide event attribute a
  /// decision to the exact catalog snapshot it saw.
  int64_t catalog_version = 0;
  /// The decision's span tree, present iff tracing was requested for this
  /// request (empty spans when the hooks are compiled out). Shared so
  /// responses stay cheap to copy.
  std::shared_ptr<const trace::TraceContext> trace;
};

/// A containment decision in interner-independent form, so one cache can
/// serve every worker arena: the witness travels as rendered text rather
/// than as a Rule full of thread-local SymbolIds.
struct CachedDecision {
  bool contained = false;
  Regime regime = Regime::kUnknown;
  /// Rendered witness ("" when the decision has none).
  std::string witness_text;
};

class ContainmentService {
 public:
  explicit ContainmentService(ServiceConfig config = {});

  CatalogRegistry& catalogs() { return catalogs_; }
  /// The decision cache, keyed by the canonical fingerprint of
  /// (Q1, Q2, catalog name + version, options) — see
  /// CanonicalProgramFingerprint in containment/canonical.h for why the
  /// key is invariant under variable renaming and rule reordering.
  ShardedLru<CachedDecision>& cache() { return cache_; }
  ServiceMetrics& metrics() { return metrics_; }
  Planner& planner() { return planner_; }
  const ServiceConfig& config() const { return config_; }
  /// Every metric series now, with both caches' stats: the one snapshot
  /// METRICS, STATUSZ, /metrics, /statusz and /buildz render.
  obs::MetricsSnapshot Snapshot() {
    return metrics_.Snapshot(cache_.Stats(), planner_.cache().Stats());
  }

  /// Answers one request using the caller-owned worker context. Safe to
  /// call from many threads as long as each uses its own context.
  DecisionResponse Decide(const DecisionRequest& request, WorkerContext* ctx);

  /// Fans `requests` across `num_threads` workers (each with a fresh
  /// WorkerContext) and returns responses positionally aligned with the
  /// requests. `num_threads <= 1` runs inline on the calling thread.
  std::vector<DecisionResponse> ExecuteBatch(
      const std::vector<DecisionRequest>& requests, int num_threads);

  /// The cache key for `request` as seen from `ctx`: canonical query
  /// fingerprints (stored, or derived from the texts) + catalog identity +
  /// options, through the one key builder QuestionCacheKey. Exposed for
  /// tests.
  Result<std::string> CacheKey(const DecisionRequest& request,
                               WorkerContext* ctx);

 private:
  ServiceConfig config_;
  CatalogRegistry catalogs_;
  ShardedLru<CachedDecision> cache_;
  ServiceMetrics metrics_;
  /// Declared last: it reads config_, catalogs_ and metrics_.
  Planner planner_;
};

}  // namespace relcont

#endif  // RELCONT_SERVICE_SERVICE_H_

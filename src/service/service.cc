#include "service/service.h"

#include <atomic>
#include <optional>
#include <thread>

#include "containment/canonical.h"
#include "service/request_frame.h"

namespace relcont {

namespace {

/// The plan-key options (request_frame.h) plus the two options only a
/// decision reads.
std::string OptionsFingerprint(const DecideOptions& o) {
  std::string out = std::to_string(o.max_rule_applications);
  out += ',';
  out += PlanOptionsFingerprint(o);
  out += ',';
  // The strategy never changes a verdict (cegar ≡ scan by construction),
  // but the reported witness may differ, so cached answers are kept
  // per-engine.
  out += ContainmentStrategyName(o.strategy);
  return out;
}

std::string MakeCacheKey(const GoalQuery& q1, const GoalQuery& q2,
                         const std::string& catalog_name,
                         int64_t catalog_version,
                         const DecideOptions& options,
                         const Interner& interner) {
  std::string key = catalog_name;
  key += ":v";
  key += std::to_string(catalog_version);
  key += '\x1f';
  key += CanonicalProgramFingerprint(q1.program, q1.goal, interner);
  key += '\x1f';
  key += CanonicalProgramFingerprint(q2.program, q2.goal, interner);
  key += '\x1f';
  key += OptionsFingerprint(options);
  return key;
}

}  // namespace

ContainmentService::ContainmentService(ServiceConfig config)
    : config_(config),
      cache_(config.cache_capacity, kCacheShards),
      planner_(this) {
  metrics_.set_slow_log_capacity(config.slow_log_capacity);
  metrics_.set_window_secs(config.window_secs);
  metrics_.flight().Configure({config.flight_ring_capacity,
                               config.flight_arena_kb * 1024,
                               config.flight_head_sample});
  // Re-registering a catalog bumps its version, which already rotates plan
  // cache keys; the listener additionally reclaims the dead entries so a
  // churning catalog cannot crowd out live plans.
  catalogs_.set_registration_listener(
      [this](const std::string& name, int64_t version) {
        (void)version;
        planner_.cache().InvalidateTag(name);
      });
}

Result<std::string> ContainmentService::CacheKey(
    const DecisionRequest& request, WorkerContext* ctx) {
  RELCONT_ASSIGN_OR_RETURN(const MaterializedCatalog* catalog,
                           ctx->Catalog(catalogs_, request.catalog));
  RELCONT_ASSIGN_OR_RETURN(GoalQuery q1,
                           ParseGoalQuery(request.q1_text, ctx->interner()));
  RELCONT_ASSIGN_OR_RETURN(GoalQuery q2,
                           ParseGoalQuery(request.q2_text, ctx->interner()));
  return MakeCacheKey(q1, q2, request.catalog, catalog->version,
                      request.options, *ctx->interner());
}

DecisionResponse ContainmentService::Decide(const DecisionRequest& request,
                                            WorkerContext* ctx) {
  auto body = [&](RequestState& state,
                  DecisionResponse& out) -> Result<Regime> {
    RELCONT_ASSIGN_OR_RETURN(
        GoalQuery q1, ParseGoalQuery(request.q1_text, ctx->interner()));
    RELCONT_ASSIGN_OR_RETURN(
        GoalQuery q2, ParseGoalQuery(request.q2_text, ctx->interner()));
    std::string key;
    if (!request.bypass_cache) {
      key = MakeCacheKey(q1, q2, request.catalog, state.catalog->version,
                         request.options, *ctx->interner());
      if (std::optional<CachedDecision> cached = cache_.Lookup(key)) {
        out.contained = cached->contained;
        out.regime = cached->regime;
        out.witness_text = std::move(cached->witness_text);
        out.cache_hit = true;
        return out.regime;
      }
    }
    DecideOptions options = request.options;
    options.parallel_workers = state.parallel_workers;
    BudgetScope budget_scope(&state.budget);
    RELCONT_ASSIGN_OR_RETURN(
        Decision decision,
        DecideRelativeContainment(q1, q2, state.catalog->views,
                                  state.catalog->patterns, ctx->interner(),
                                  options));
    out.contained = decision.contained;
    out.regime = decision.regime;
    if (decision.witness.has_value()) {
      out.witness_text = decision.witness->ToString(*ctx->interner());
    }
    if (!request.bypass_cache) {
      cache_.Insert(key, request.catalog,
                    CachedDecision{out.contained, out.regime,
                                   out.witness_text});
    }
    return out.regime;
  };
  auto record = [&](Regime regime, const DecisionResponse& out) {
    metrics_.RecordRequest(regime, out.latency_micros, !out.status.ok(),
                           out.cache_hit);
  };
  return ServeRequest<DecisionResponse>(
      *this,
      {ServiceVerb::kContained, request.q1_text, &request.q2_text,
       request.catalog, request.options, request.collect_trace,
       /*bound_site=*/nullptr},
      ctx, body, record);
}

std::vector<DecisionResponse> ContainmentService::ExecuteBatch(
    const std::vector<DecisionRequest>& requests, int num_threads) {
  std::vector<DecisionResponse> out(requests.size());
  // Every batch item counts as queued until a worker claims it, so the
  // batch_queue_depth gauge exposes backlog while a batch is in flight.
  metrics_.AddBatchQueueDepth(static_cast<int64_t>(requests.size()));
  if (num_threads <= 1 || requests.size() <= 1) {
    WorkerContext ctx;
    for (size_t i = 0; i < requests.size(); ++i) {
      metrics_.AddBatchQueueDepth(-1);
      out[i] = Decide(requests[i], &ctx);
    }
    return out;
  }
  std::atomic<size_t> next{0};
  auto work = [&]() {
    WorkerContext ctx;
    for (size_t i = next.fetch_add(1, std::memory_order_relaxed);
         i < requests.size();
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      metrics_.AddBatchQueueDepth(-1);
      out[i] = Decide(requests[i], &ctx);
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(num_threads);
  for (int t = 0; t < num_threads; ++t) threads.emplace_back(work);
  for (std::thread& t : threads) t.join();
  return out;
}

}  // namespace relcont

#include "service/service.h"

#include <array>
#include <atomic>
#include <optional>
#include <thread>

#include "service/request_frame.h"

namespace relcont {

ContainmentService::ContainmentService(ServiceConfig config)
    : config_(config),
      cache_(config.cache_capacity, kCacheShards),
      planner_(this) {
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

namespace {

std::array<QuestionQuery, 2> QueriesOf(const DecisionRequest& request) {
  return {{{request.q1_text, request.q1_fingerprint},
           {request.q2_text, request.q2_fingerprint}}};
}

}  // namespace

Result<std::string> ContainmentService::CacheKey(
    const DecisionRequest& request, WorkerContext* ctx) {
  RELCONT_ASSIGN_OR_RETURN(const MaterializedCatalog* catalog,
                           ctx->Catalog(catalogs_, request.catalog));
  std::array<GoalQuery, 2> parsed;
  return KeyQuestion(ServiceVerb::kContained, request.catalog,
                     catalog->version, QueriesOf(request), request.options,
                     ctx->interner(), &parsed);
}

DecisionResponse ContainmentService::Decide(const DecisionRequest& request,
                                            WorkerContext* ctx) {
  const FrameRequest frame{ServiceVerb::kContained, request.catalog,
                           request.options, request.bypass_cache,
                           request.collect_trace, /*bound_site=*/nullptr};
  auto body = [&](RequestState& state,
                  DecisionResponse& out) -> Result<Regime> {
    RELCONT_ASSIGN_OR_RETURN(
        auto question,
        LookupQuestion(frame, state, cache_, QueriesOf(request),
                       ctx->interner()));
    if (std::optional<CachedDecision>& cached = question.cached) {
      out.contained = cached->contained;
      out.regime = cached->regime;
      out.witness_text = std::move(cached->witness_text);
      out.cache_hit = true;
      return out.regime;
    }
    const auto& [q1, q2] = question.queries;
    BudgetScope budget_scope(&state.budget);
    RELCONT_ASSIGN_OR_RETURN(
        Decision decision,
        DecideRelativeContainment(
            q1, q2, state.catalog->views,
            state.catalog->plan ? &*state.catalog->plan : nullptr,
            ctx->interner(), request.options));
    out.contained = decision.contained;
    out.regime = decision.regime;
    if (decision.witness.has_value()) {
      out.witness_text = decision.witness->ToString(*ctx->interner());
    }
    if (!request.bypass_cache) {
      cache_.Insert(question.key, request.catalog,
                    CachedDecision{out.contained, out.regime,
                                   out.witness_text});
    }
    return out.regime;
  };
  auto record = [&](Regime regime, const DecisionResponse& out) {
    metrics_.RecordRequest(regime, out.latency_micros, !out.status.ok(),
                           out.cache_hit);
  };
  return ServeRequest<DecisionResponse>(*this, frame, ctx, body, record);
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

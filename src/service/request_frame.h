#ifndef RELCONT_SERVICE_REQUEST_FRAME_H_
#define RELCONT_SERVICE_REQUEST_FRAME_H_

// The request frame shared by the CONTAINED?, PLAN? and REWRITE? verbs
// (ContainmentService::Decide, Planner::Plan, Planner::Rewrite). Private to
// src/service and src/planner.

#include <array>
#include <chrono>
#include <cstddef>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>

#include "common/budget.h"
#include "containment/canonical.h"
#include "datalog/parser.h"
#include "service/service.h"
#include "trace/trace.h"

namespace relcont {

/// Parses a query text; the goal is the head predicate of the first rule.
inline Result<GoalQuery> ParseGoalQuery(const std::string& text,
                                        Interner* interner) {
  RELCONT_ASSIGN_OR_RETURN(Program program, ParseProgram(text, interner));
  if (program.rules.empty()) {
    return Status::InvalidArgument("query text contains no rules");
  }
  SymbolId goal = program.rules[0].head.predicate;
  return GoalQuery{std::move(program), goal};
}

/// The cache key of a question: verb, catalog name and version, the
/// canonical fingerprint of each query (containment/canonical.h), then the
/// raw fixed-width bytes of every option that can change an answer — or
/// the cache would serve an answer computed under a different semantic
/// bound. Those are max_rule_applications and the strategy: the strategy
/// never changes a verdict, but the reported witness may differ, so
/// answers are kept per engine. The option bytes are fixed in number and
/// end the key, so it stays injective.
///
/// The budget fields (timeout_ms, max_steps) are
/// deliberately absent: a budget can only turn an answer into a non-OK
/// kBoundReached status, and non-OK results are never cached — so every
/// cached answer is budget-independent, and requests that differ only in
/// budget may share an entry.
///
/// The one key builder: fingerprints stored at DEFINE and fingerprints
/// derived from a text (KeyQuestion) both reach the key through here.
inline std::string QuestionCacheKey(
    ServiceVerb verb, const std::string& catalog, int64_t version,
    std::span<const std::string_view> fingerprints, const DecideOptions& o) {
  std::string key(ServiceVerbName(verb));
  key.append("\x1f").append(catalog).append(":v").append(
      std::to_string(version));
  for (std::string_view fingerprint : fingerprints) {
    key.append("\x1f").append(fingerprint);
  }
  key += '\x1f';
  for (int64_t field :
       {int64_t{o.max_rule_applications}, static_cast<int64_t>(o.strategy)}) {
    key.append(reinterpret_cast<const char*>(&field), sizeof field);
  }
  return key;
}

/// One query a question names: its text, and the canonical fingerprint of
/// that text when the caller already has it ("" = derive it from the text).
struct QuestionQuery {
  const std::string& text;
  const std::string& fingerprint;
};

/// The key of a question over `queries` (QuestionCacheKey). A stored
/// fingerprint is used as is and its text is not read; a missing one is
/// derived by parsing its text into `(*parsed)[i]`, which keeps the parse
/// for a miss to reuse.
template <size_t N>
Result<std::string> KeyQuestion(ServiceVerb verb, const std::string& catalog,
                                int64_t version,
                                const std::array<QuestionQuery, N>& queries,
                                const DecideOptions& options,
                                Interner* interner,
                                std::array<GoalQuery, N>* parsed) {
  std::array<std::string, N> derived;
  std::array<std::string_view, N> fingerprints;
  for (size_t i = 0; i < N; ++i) {
    fingerprints[i] = queries[i].fingerprint;
    if (!fingerprints[i].empty()) continue;
    RELCONT_ASSIGN_OR_RETURN((*parsed)[i],
                             ParseGoalQuery(queries[i].text, interner));
    derived[i] = CanonicalProgramFingerprint((*parsed)[i].program,
                                             (*parsed)[i].goal, *interner);
    fingerprints[i] = derived[i];
  }
  return QuestionCacheKey(verb, catalog, version, fingerprints, options);
}

/// What the frame reads from one request of any verb.
struct FrameRequest {
  ServiceVerb verb;
  const std::string& catalog;
  const DecideOptions& options;
  bool bypass_cache;
  bool collect_trace;
  /// The aggregate site a bound request is attributed to on top of the
  /// inner site that minted the status (nullptr: none).
  const char* bound_site;
};

/// The per-request state a verb body works with.
struct RequestState {
  const MaterializedCatalog* catalog = nullptr;
  /// The one budget governing the request. The body installs it
  /// (BudgetScope) around its computation only, after the cache lookup;
  /// the library sees the installed budget and skips its own (decide.cc).
  WorkBudget budget;
};

/// A question after its keyed front half (LookupQuestion).
template <typename V, size_t N>
struct KeyedQuestion {
  /// The cached answer, on a hit.
  std::optional<V> cached;
  /// The cache key ("" when the request bypasses the cache).
  std::string key;
  /// The queries parsed into the worker arena, unless `cached`.
  std::array<GoalQuery, N> queries;
};

/// The front half every question verb shares: key the question from its
/// queries' fingerprints (KeyQuestion) and probe `cache`. A hit on stored
/// fingerprints parses nothing. Only on a miss, or when the request
/// bypasses the cache, is every query not yet parsed parsed into the
/// worker arena, once.
template <typename V, size_t N>
Result<KeyedQuestion<V, N>> LookupQuestion(
    const FrameRequest& request, const RequestState& state,
    ShardedLru<V>& cache, const std::array<QuestionQuery, N>& queries,
    Interner* interner) {
  KeyedQuestion<V, N> out;
  if (!request.bypass_cache) {
    RELCONT_ASSIGN_OR_RETURN(
        out.key, KeyQuestion(request.verb, request.catalog,
                             state.catalog->version, queries, request.options,
                             interner, &out.queries));
    out.cached = cache.Lookup(out.key);
    if (out.cached.has_value()) return out;
  }
  for (size_t i = 0; i < N; ++i) {
    if (out.queries[i].goal != kInvalidSymbol) continue;  // parsed to key it
    RELCONT_ASSIGN_OR_RETURN(out.queries[i],
                             ParseGoalQuery(queries[i].text, interner));
  }
  return out;
}

/// Runs one request inside the frame every verb shares: request id, budget
/// and trace setup and catalog resolution before `body`; the rollback of
/// the fresh symbols it minted, latency, inflight gauge, budget, trace and
/// wide-event accounting after it, on every path including errors. The
/// trace counts the request made are folded into trace::ProcessCounts when
/// it ends.
///
/// `body(state, out)` keys and looks up (LookupQuestion), computes and
/// inserts; it fills `out` and returns the regime the answer is attributed
/// to.
/// `record(regime, out)` files the verb's own request counters. One regime
/// per request feeds every record: kUnknown whenever the request failed.
template <typename Response, typename Body, typename Record>
Response ServeRequest(ContainmentService& service,
                      const FrameRequest& request, WorkerContext* ctx,
                      Body&& body, Record&& record) {
  auto start = std::chrono::steady_clock::now();
  const ServiceConfig& config = service.config();
  ServiceMetrics& metrics = service.metrics();
  metrics.IncInflight();
  Response out;
  out.request_id = metrics.flight().NextRequestId();
  // Request options take precedence over the config defaults.
  RequestState state;
  state.budget.set_limits(request.options.timeout_ms > 0
                              ? request.options.timeout_ms
                              : config.default_timeout_ms,
                          request.options.max_steps);
  std::shared_ptr<trace::TraceContext> trace_ctx;
  std::optional<trace::TraceScope> trace_scope;
  if (request.collect_trace || config.trace_requests) {
    trace_ctx = std::make_shared<trace::TraceContext>();
    trace_ctx->set_request_id(out.request_id);
    // Installed for this thread only; concurrent workers each install
    // their own context, so traces never interleave.
    trace_scope.emplace(trace_ctx.get());
  }
  const trace::CounterArray counts_mark = trace::ThreadCounts();
  Result<Regime> answer = [&]() -> Result<Regime> {
    RELCONT_ASSIGN_OR_RETURN(state.catalog,
                             ctx->Catalog(service.catalogs(),
                                          request.catalog));
    out.catalog_version = state.catalog->version;
    // Every fresh symbol the body mints dies with the request, so the
    // arena stays at its vocabulary size; the body renders all it answers
    // (witness, plan) as text before it returns.
    Interner::FreshMark mark = ctx->interner()->Mark();
    Result<Regime> regime = body(state, out);
    ctx->interner()->Rollback(mark);
    return regime;
  }();
  out.status = answer.status();
  Regime regime = answer.ok() ? *answer : Regime::kUnknown;
  trace_scope.reset();
  trace::FoldIntoProcess(counts_mark);
  out.latency_micros = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  metrics.DecInflight();
  bool bound = out.status.code() == StatusCode::kBoundReached;
  if (bound && request.bound_site != nullptr) {
    NoteBoundSite(request.bound_site);
  }
  record(regime, out);
  if (state.budget.reason() == BudgetReason::kDeadline) {
    metrics.RecordDeadlineExceeded();
  }
  if (trace_ctx != nullptr) metrics.RecordTrace(*trace_ctx);
  obs::WideEvent event;
  event.request_id = out.request_id;
  event.latency_micros = out.latency_micros;
  event.catalog_version = out.catalog_version;
  event.error = out.status.ok() ? 0 : 1;
  event.cache_hit = out.cache_hit ? 1 : 0;
  event.bound = bound ? 1 : 0;
  event.set_verb(ServiceVerbName(request.verb));
  event.set_regime(RegimeName(regime));
  event.set_catalog(request.catalog);
  event.set_bound_site(BoundSiteFromStatus(out.status));
  metrics.RecordFlight(request.verb, event, trace_ctx.get());
  if (trace_ctx != nullptr) out.trace = std::move(trace_ctx);
  return out;
}

}  // namespace relcont

#endif  // RELCONT_SERVICE_REQUEST_FRAME_H_

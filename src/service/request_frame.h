#ifndef RELCONT_SERVICE_REQUEST_FRAME_H_
#define RELCONT_SERVICE_REQUEST_FRAME_H_

// The request frame shared by the CONTAINED?, PLAN? and REWRITE? verbs
// (ContainmentService::Decide, Planner::Plan, Planner::Rewrite). Private to
// src/service and src/planner.

#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "common/budget.h"
#include "datalog/parser.h"
#include "service/service.h"

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

/// The options that shape a plan, rendered for a cache key. Every option
/// that can change an answer must appear in its key, or the cache would
/// serve an answer computed under different bounds.
///
/// The budget fields (timeout_ms, max_steps, parallel_workers) are
/// deliberately absent: a budget can only turn an answer into a non-OK
/// kBoundReached status, and non-OK results are never cached — so every
/// cached answer is budget-independent, and requests that differ only in
/// budget may share an entry.
inline std::string PlanOptionsFingerprint(const DecideOptions& o) {
  std::string out = std::to_string(o.unfold.max_disjuncts);
  out += ',';
  out += std::to_string(o.dom.max_tree_options);
  out += ',';
  out += std::to_string(o.dom.max_rounds);
  out += ',';
  out += std::to_string(o.dom.max_core_checks);
  out += ',';
  out += std::to_string(o.dom.max_disjunct_size);
  out += ',';
  out += std::to_string(o.dom.unfold.max_disjuncts);
  return out;
}

/// What the frame reads from one request of any verb.
struct FrameRequest {
  ServiceVerb verb;
  const std::string& q1_text;
  /// nullptr for PLAN?, which names one query.
  const std::string* q2_text;
  const std::string& catalog;
  const DecideOptions& options;
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
  /// Parallel width granted to the request: its own parallel_workers when
  /// above 1, else the config default.
  int parallel_workers = 1;
};

/// One newline-free line identifying a request in the slow log.
inline std::string DescribeRequest(const FrameRequest& request) {
  std::string out = request.verb == ServiceVerb::kPlan      ? "PLAN? "
                    : request.verb == ServiceVerb::kRewrite ? "REWRITE? "
                                                            : "";
  out += request.q1_text;
  if (request.q2_text != nullptr) {
    out += " => ";
    out += *request.q2_text;
  }
  out += " @";
  out += request.catalog;
  for (char& c : out) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  constexpr size_t kMaxLength = 160;
  if (out.size() > kMaxLength) {
    out.resize(kMaxLength - 3);
    out += "...";
  }
  return out;
}

/// Runs one request inside the frame every verb shares: request id, budget
/// and trace setup, arena retirement and catalog resolution before `body`;
/// latency, inflight gauge, budget, trace and wide-event accounting after
/// it, on every path including errors.
///
/// `body(state, out)` parses, keys, looks up, computes and inserts; it
/// fills `out` and returns the regime the answer is attributed to.
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
  int64_t timeout_ms = request.options.timeout_ms > 0
                           ? request.options.timeout_ms
                           : config.default_timeout_ms;
  if (timeout_ms > 0) {
    state.budget.set_timeout(std::chrono::milliseconds(timeout_ms));
  }
  if (request.options.max_steps > 0) {
    state.budget.set_max_steps(request.options.max_steps);
  }
  state.parallel_workers = request.options.parallel_workers > 1
                               ? request.options.parallel_workers
                               : config.default_parallel_workers;
  std::shared_ptr<trace::TraceContext> trace_ctx;
  std::optional<trace::TraceScope> trace_scope;
  if (request.collect_trace || config.trace_requests) {
    trace_ctx = std::make_shared<trace::TraceContext>();
    trace_ctx->set_request_id(out.request_id);
    // Installed for this thread only; concurrent workers each install
    // their own context, so traces never interleave.
    trace_scope.emplace(trace_ctx.get());
  }
  Result<Regime> answer = [&]() -> Result<Regime> {
    ctx->RetireIfAbove(config.max_worker_symbols);
    RELCONT_ASSIGN_OR_RETURN(state.catalog,
                             ctx->Catalog(service.catalogs(),
                                          request.catalog));
    out.catalog_version = state.catalog->version;
    return body(state, out);
  }();
  out.status = answer.status();
  Regime regime = answer.ok() ? *answer : Regime::kUnknown;
  trace_scope.reset();
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
  metrics.RecordBudget(state.budget.tasks_spawned(),
                       state.budget.tasks_completed(),
                       state.budget.reason() == BudgetReason::kDeadline);
  if (trace_ctx != nullptr) {
    metrics.RecordTrace(regime, out.latency_micros, *trace_ctx,
                        DescribeRequest(request), out.request_id);
  }
  obs::WideEvent event;
  event.request_id = out.request_id;
  event.latency_micros = out.latency_micros;
  event.catalog_version = out.catalog_version;
  event.worker_count = static_cast<uint32_t>(state.parallel_workers);
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

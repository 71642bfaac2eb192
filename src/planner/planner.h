#ifndef RELCONT_PLANNER_PLANNER_H_
#define RELCONT_PLANNER_PLANNER_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/sharded_lru.h"
#include "relcont/decide.h"
#include "service/catalog.h"
#include "trace/trace.h"

namespace relcont {

/// relcont::planner — the plan service behind the PLAN? and REWRITE?
/// protocol verbs. Where ContainmentService answers `Q1 ⊑_V Q2 ?`, the
/// Planner *produces* the maximally-contained plan of one query against a
/// catalog (Section 2.3 inverse rules, or the Section 4 executable dom
/// plan when the catalog carries binding patterns) and decides plan-level
/// containment `P1^exp ⊑ Q2` (Theorems 4.1/5.2).
///
/// Concurrency model: that of ContainmentService (service/service.h), which
/// owns the planner; every Interner-carrying structure lives in a
/// WorkerContext used by one thread at a time.

class ContainmentService;

/// Alias kept only because the service benchmark (servebench/) names it.
using PlannerContext = WorkerContext;
/// Alias kept only because the service benchmark (servebench/) names it.
using PlanCacheStats = CacheStats;

/// A planner result in interner-independent form, so one cache can serve
/// every worker arena: the plan travels as rendered text (re-parseable by
/// ParseProgram) rather than as a Program full of thread-local SymbolIds.
/// PLAN? entries fill the plan fields; REWRITE? entries fill the verdict
/// fields. Both share the struct so the cache needs a single value type.
struct CachedPlan {
  /// PLAN?: the plan rules, one per line (ParseProgram syntax, Skolem
  /// function terms included for recursive dom plans).
  std::string plan_text;
  /// Name of the unary dom accumulator ("" for nonrecursive UCQ plans).
  std::string dom_predicate;
  /// Rule count of the plan (0 for REWRITE? entries).
  int num_rules = 0;
  /// True when the plan recurses through the dom accumulator.
  bool recursive = false;
  /// REWRITE?: the plan-level containment verdict P1^exp ⊑ Q2.
  bool contained = false;
  /// Rendered counterexample ("" when none).
  std::string witness_text;
};

/// One plan-construction question: the maximally-contained plan of
/// `query_text` (ParseProgram syntax, goal = head of the first rule)
/// against the named catalog.
struct PlanRequest {
  std::string query_text;
  /// The canonical fingerprint of query_text, or "" to derive it from the
  /// text; a non-empty one must equal that of the text (see
  /// DecisionRequest::q1_fingerprint).
  std::string query_fingerprint;
  std::string catalog;
  DecideOptions options;
  bool bypass_cache = false;
  bool collect_trace = false;
};

struct PlanResponse {
  /// Non-OK on parse errors, unknown catalogs, unsupported fragments, or
  /// an exhausted budget (kBoundReached); the plan fields are meaningful
  /// only when ok.
  Status status;
  /// The plan rules, one per line, re-parseable by ParseProgram.
  std::string plan_text;
  /// Name of the unary dom accumulator ("" for nonrecursive UCQ plans).
  std::string dom_predicate;
  int num_rules = 0;
  /// True when the plan recurses through the dom accumulator (the catalog
  /// has binding patterns); false for the function-free UCQ plan.
  bool recursive = false;
  bool cache_hit = false;
  uint64_t latency_micros = 0;
  /// The flight-recorder request id minted for this request (echoed on
  /// the protocol line and the /requestz?id=N pivot).
  uint64_t request_id = 0;
  int64_t catalog_version = 0;
  /// Present iff tracing was requested for this request.
  std::shared_ptr<const trace::TraceContext> trace;
};

/// One plan-level containment question: `P1^exp ⊑ Q2` where P1 is
/// q1_text's maximally-contained plan against the catalog.
struct RewriteRequest {
  std::string q1_text;
  std::string q2_text;
  /// As DecisionRequest::q1_fingerprint / q2_fingerprint.
  std::string q1_fingerprint;
  std::string q2_fingerprint;
  std::string catalog;
  DecideOptions options;
  bool bypass_cache = false;
  bool collect_trace = false;
};

struct RewriteResponse {
  Status status;
  bool contained = false;
  /// Rendered counterexample expansion ("" when contained).
  std::string witness_text;
  bool cache_hit = false;
  uint64_t latency_micros = 0;
  /// The flight-recorder request id minted for this request.
  uint64_t request_id = 0;
  int64_t catalog_version = 0;
  std::shared_ptr<const trace::TraceContext> trace;
};

/// The plan service facade. Shares the config, catalog registry and
/// metrics of the ContainmentService that owns it; owns the plan cache.
class Planner {
 public:
  /// `service` must outlive the planner (it owns it).
  explicit Planner(ContainmentService* service);

  /// Builds the maximally-contained plan for `request` using the
  /// caller-owned context. Safe to call from many threads as long as each
  /// uses its own context.
  PlanResponse Plan(const PlanRequest& request, WorkerContext* ctx);

  /// Decides plan-level containment P1^exp ⊑ Q2.
  RewriteResponse Rewrite(const RewriteRequest& request, WorkerContext* ctx);

  /// The plan cache, keyed by (verb, catalog name + version, canonical
  /// query fingerprints, plan-shaping options) and tagged by catalog name,
  /// so a re-registration sweeps exactly that catalog's entries.
  ShardedLru<CachedPlan>& cache() { return cache_; }

 private:
  ContainmentService* service_;
  ShardedLru<CachedPlan> cache_;
};

}  // namespace relcont

#endif  // RELCONT_PLANNER_PLANNER_H_

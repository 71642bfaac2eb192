#ifndef RELCONT_TRACE_TRACE_H_
#define RELCONT_TRACE_TRACE_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

/// relcont::trace — structured decision tracing for the containment
/// pipeline (see docs/OBSERVABILITY.md).
///
/// A TraceContext records a tree of nested Spans (monotonic steady_clock
/// timestamps) plus typed counters attributed to the innermost open span.
/// Instrumentation sites use the RELCONT_TRACE_SPAN / RELCONT_TRACE_COUNT
/// macros:
///
///   * RELCONT_TRACE_COUNT always adds to the calling thread's counter
///     totals (ThreadCounts) — the one counter set every surface reads;
///     the service folds each request's delta into ProcessCounts;
///   * while a context is installed, spans are recorded and counts are
///     attributed to the innermost open span too; with none installed (the
///     common case) that costs one thread-local load and a branch;
///   * RELCONT_TRACE=0 at compile time compiles the spans and the per-span
///     attribution out; the thread totals stay.
///
/// The classes below are always compiled (so callers need no #ifdefs). A
/// context is confined to one thread: install it with TraceScope, never
/// share one across threads.

#ifndef RELCONT_TRACE
#define RELCONT_TRACE 1
#endif

namespace relcont {
namespace trace {

/// True when the instrumentation hooks are compiled in. When false, traces
/// collected at runtime are present but empty.
inline constexpr bool kCompiledIn = RELCONT_TRACE != 0;

/// Typed counters. Every count lands in the calling thread's running
/// totals (always on, whatever the build) and, while a context is
/// installed, on the innermost open span too. What each one counts is the
/// `help` of its kCounterTable row below.
enum class Counter : int {
  kPlanRules = 0,
  kPlanDisjunctsKept,
  kPlanDisjunctsDropped,
  kUnfoldResolutions,
  kUnfoldDisjuncts,
  kExpansionsVisited,
  kExpansionRuleApps,
  kFrozenQueries,
  kFrozenAtoms,
  kFrozenConstants,
  kHomMappingCalls,
  kHomCandidatesTried,
  kHomBacktracks,
  kHomMappingsFound,
  kDisjunctChecks,
  kLinearizations,
  kEntailmentChecks,
  kClosureRecomputes,
  kDenseOrderPropagations,
  kDenseOrderPrunedBranches,
  kDomTreeOptions,
  kDomCoresChecked,
  kDomSaturationRounds,
  kPlannerPlansBuilt,
  kPlannerPlanRules,
  kCegarIterations,
  kCegarBlockingClauses,
  kCegarProposals,
  kBoundHits,
  kNumCounters,
};

inline constexpr size_t kNumCounters =
    static_cast<size_t>(Counter::kNumCounters);

/// One value per counter, indexed by Counter.
using CounterArray = std::array<uint64_t, kNumCounters>;

/// Every counter, declared once: its process-wide series name and what it
/// counts. The counter's own short name (EXPLAIN, the Chrome exporter,
/// `/statusz` keys) is the series name without its `_total` suffix. Each
/// `exported` row is the series `relcont_<series>` on METRICS, `/metrics`
/// and `/statusz` (obs/series.h appends one series row per such counter).
struct CounterDef {
  Counter counter;
  std::string_view series;
  std::string_view help;
  /// False for a count another series already carries.
  bool exported = true;
};

inline constexpr CounterDef kCounterTable[] = {
    {Counter::kPlanRules, "plan_rules_total",
     "Inverse rules entering a maximally-contained plan."},
    {Counter::kPlanDisjunctsKept, "plan_disjuncts_kept_total",
     "Plan disjuncts that survive function-term elimination."},
    {Counter::kPlanDisjunctsDropped, "plan_disjuncts_dropped_total",
     "Plan disjuncts discarded (function terms or unsatisfiable)."},
    {Counter::kUnfoldResolutions, "unfold_resolutions_total",
     "Resolution steps during unfolding."},
    {Counter::kUnfoldDisjuncts, "unfold_disjuncts_total",
     "Disjuncts emitted by unfolding."},
    {Counter::kExpansionsVisited, "expansions_visited_total",
     "Complete expansions handed to the visitor."},
    {Counter::kExpansionRuleApps, "expansion_rule_apps_total",
     "Rule applications across all expansion derivations."},
    {Counter::kFrozenQueries, "frozen_queries_total",
     "Queries frozen into canonical databases."},
    {Counter::kFrozenAtoms, "frozen_atoms_total",
     "Facts added to canonical databases."},
    {Counter::kFrozenConstants, "frozen_constants_total",
     "Fresh frozen constants minted."},
    {Counter::kHomMappingCalls, "hom_mapping_calls_total",
     "Containment-mapping searches started."},
    {Counter::kHomCandidatesTried, "hom_candidates_tried_total",
     "Candidate target atoms tried by the backtracking search."},
    {Counter::kHomBacktracks, "hom_backtracks_total",
     "Dead-end retreats of the backtracking search."},
    {Counter::kHomMappingsFound, "hom_mappings_found_total",
     "Complete containment mappings found."},
    {Counter::kDisjunctChecks, "disjunct_checks_total",
     "Disjunct-vs-disjunct (or disjunct-vs-program) tests begun."},
    {Counter::kLinearizations, "linearizations_total",
     "Total orders enumerated by the comparison case split."},
    {Counter::kEntailmentChecks, "entailment_checks_total",
     "Order-constraint entailment checks."},
    {Counter::kClosureRecomputes, "closure_recomputes_total",
     "Comparison closures recomputed."},
    {Counter::kDenseOrderPropagations, "dense_order_propagations_total",
     "Pair-matrix cell narrowings performed by the dense-order engine."},
    {Counter::kDenseOrderPrunedBranches, "dense_order_pruned_branches_total",
     "Linearization DFS class placements rejected by the closed pair "
     "matrix."},
    {Counter::kDomTreeOptions, "dom_tree_options_total",
     "Distinct tree profile types saturated (binding patterns)."},
    {Counter::kDomCoresChecked, "dom_cores_checked_total",
     "(core, option assignment) combinations checked (binding patterns)."},
    {Counter::kDomSaturationRounds, "dom_saturation_rounds_total",
     "Dom saturation rounds until fixpoint (binding patterns)."},
    {Counter::kPlannerPlansBuilt, "planner_plans_built_total",
     "Maximally-contained plans the planner constructed."},
    {Counter::kPlannerPlanRules, "planner_plan_rules_total",
     "Rules across every plan the planner constructed."},
    {Counter::kCegarIterations, "cegar_iterations_total",
     "Cover checks performed by the CEGAR counterexample search (loop "
     "iterations)."},
    {Counter::kCegarBlockingClauses, "cegar_blocking_clauses_total",
     "Blocking clauses learned from successful covers."},
    {Counter::kCegarProposals, "cegar_proposals_total",
     "Candidate source instances proposed by the CEGAR search (DFS "
     "leaves)."},
    {Counter::kBoundHits, "bound_hits_total",
     "kBoundReached statuses minted (relcont_bound_hits_total{site} "
     "carries them per site).",
     /*exported=*/false},
};

namespace internal {
inline constexpr std::string_view kSeriesSuffix = "_total";
constexpr bool CounterTableIsIndexed() {
  if (std::size(kCounterTable) != kNumCounters) return false;
  for (size_t i = 0; i < kNumCounters; ++i) {
    if (static_cast<size_t>(kCounterTable[i].counter) != i ||
        !kCounterTable[i].series.ends_with(kSeriesSuffix)) {
      return false;
    }
  }
  return true;
}
}  // namespace internal
static_assert(internal::CounterTableIsIndexed(),
              "kCounterTable has one row per Counter, in enum order, each "
              "series named <counter>_total");

/// Short stable snake_case name for `c` ("plan_rules", "hom_backtracks",
/// ...).
constexpr std::string_view CounterName(Counter c) {
  const std::string_view series = kCounterTable[static_cast<size_t>(c)].series;
  return series.substr(0, series.size() - internal::kSeriesSuffix.size());
}

/// One node of the span tree. Timestamps are steady_clock nanoseconds
/// relative to the context's epoch (its construction time), so they are
/// monotone and comparable within one trace.
struct SpanNode {
  /// Static storage required (the macros pass string literals).
  const char* name = "";
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  /// Index of the enclosing span in TraceContext::spans(), -1 for a root.
  int parent = -1;
  /// Nesting depth; 0 for a root.
  int depth = 0;
  CounterArray counters{};

  uint64_t duration_ns() const { return end_ns - start_ns; }
};

/// A recorded trace: the span tree of one decision. NOT thread-safe — one
/// context belongs to one thread for the duration of the recording.
class TraceContext {
 public:
  TraceContext();

  /// Opens a span as a child of the innermost open span; returns its
  /// index. Prefer the TraceSpan RAII wrapper.
  int OpenSpan(const char* name);
  /// Closes `index`, which must be the innermost open span (spans close in
  /// strict LIFO order; violations are absorbed by closing intervening
  /// spans so the tree stays well-formed).
  void CloseSpan(int index);
  /// Adds `delta` to `c` on the innermost open span (or the last root span
  /// when none is open — counts never vanish).
  void AddCount(Counter c, uint64_t delta);

  /// The service request id this trace belongs to (0 when the trace was
  /// collected outside the service, e.g. by library-level callers). Set by
  /// the service right after minting the id; ToChromeJson surfaces it so
  /// exported traces correlate with /requestz and access-log lines.
  void set_request_id(uint64_t id) { request_id_ = id; }
  uint64_t request_id() const { return request_id_; }

  const std::vector<SpanNode>& spans() const { return spans_; }
  /// Sum of `c` over every span.
  uint64_t TotalCount(Counter c) const;
  /// Duration of the first root span (0 if none).
  uint64_t root_duration_ns() const;

  /// The top-of-tree digest: root spans and their direct children,
  /// aggregated by name, largest total nanoseconds first (ties by name).
  /// The wide event and the access log both carry it.
  std::vector<std::pair<std::string_view, uint64_t>> TopPhases() const;

  /// Indented span tree with per-span durations and nonzero counters —
  /// the EXPLAIN rendering (grammar in docs/OBSERVABILITY.md).
  std::string ToText() const;
  /// Chrome trace_event JSON (the "traceEvents" array format): load in
  /// chrome://tracing or https://ui.perfetto.dev. Spans become complete
  /// ("ph":"X") events; per-span counters ride in "args".
  std::string ToChromeJson() const;

 private:
  std::vector<SpanNode> spans_;
  int open_ = -1;  ///< innermost open span, -1 when none
  uint64_t epoch_ns_;
  uint64_t request_id_ = 0;
};

/// The thread's active context, or nullptr. Spans are recorded only while
/// a context is installed.
TraceContext* CurrentTrace();

/// Installs `ctx` (may be nullptr) as the thread's current context for the
/// scope's lifetime; restores the previous one on destruction.
class TraceScope {
 public:
  explicit TraceScope(TraceContext* ctx);
  ~TraceScope();
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  TraceContext* prev_;
};

/// RAII span: opens on construction when a context is installed, closes on
/// destruction. Cheap no-op otherwise.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name) : ctx_(CurrentTrace()) {
    if (ctx_ != nullptr) index_ = ctx_->OpenSpan(name);
  }
  ~TraceSpan() {
    if (ctx_ != nullptr) ctx_->CloseSpan(index_);
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  TraceContext* ctx_;
  int index_ = -1;
};

/// The calling thread's running totals: every count this thread made
/// since it started. Take a copy as a mark; the difference later is the
/// work done in between.
const CounterArray& ThreadCounts();

/// Adds `delta` to `c` in the thread's totals and, when compiled in and a
/// context is installed, on its innermost open span. Out of line, like
/// CurrentTrace: the thread-locals stay private to trace.cc (an inline
/// access from other objects is the initial-exec TLS form, which the
/// linker relaxes in a way that trips UBSan's null check).
void Count(Counter c, uint64_t delta = 1);

/// The process-wide totals: the sum of every folded delta. METRICS,
/// `/metrics` and `/statusz` read them.
std::array<std::atomic<uint64_t>, kNumCounters>& ProcessCounts();

/// Adds the thread's counts since `mark` (a copy of ThreadCounts) to
/// ProcessCounts. A zero delta issues no atomic operation.
void FoldIntoProcess(const CounterArray& mark);

}  // namespace trace
}  // namespace relcont

#if RELCONT_TRACE
#define RELCONT_TRACE_CONCAT_IMPL_(a, b) a##b
#define RELCONT_TRACE_CONCAT_(a, b) RELCONT_TRACE_CONCAT_IMPL_(a, b)
/// Opens a span named `name` (a string literal) for the rest of the
/// enclosing block.
#define RELCONT_TRACE_SPAN(name)                \
  ::relcont::trace::TraceSpan RELCONT_TRACE_CONCAT_(_relcont_span_, \
                                                    __LINE__)(name)
/// Adds `n` to counter `c` (an unqualified Counter enumerator name).
#else
#define RELCONT_TRACE_SPAN(name) ((void)0)
#endif
#define RELCONT_TRACE_COUNT(c, n) \
  ::relcont::trace::Count(::relcont::trace::Counter::c, (n))

#endif  // RELCONT_TRACE_TRACE_H_

#ifndef RELCONT_SERVICE_PROTOCOL_H_
#define RELCONT_SERVICE_PROTOCOL_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "service/service.h"

namespace relcont {

/// Invoked once per finished containment decision (CONTAINED?, EXPLAIN,
/// and each batch element), after the service answered. The observer runs
/// on the session's thread; it must be safe to call from many sessions
/// concurrently if one observer instance is shared (obs::AccessLog is).
using DecisionObserver =
    std::function<void(const DecisionRequest&, const DecisionResponse&)>;

/// One client session of the line-delimited request/response protocol
/// (grammar in docs/SERVICE.md). One request per line:
///
///   CATALOG <name> VIEW <rule> [VIEW <rule>]... [PATTERN <src> <adr>]...
///   DEFINE <name> <rule> [<rule>]...
///   CONTAINED? <q1> <q2> @<catalog> [timeout_ms=N] [budget=N] [workers=N]
///   PLAN? <q> @<catalog> [...]      (maximally-contained plan of <q>)
///   REWRITE? <q1> <q2> @<catalog> [...]  (plan-level P1^exp ⊑ Q2)
///   EXPLAIN [JSON] [PLAN?|REWRITE?] <args>  (traced, cache-bypassing)
///   BATCH BEGIN ... BATCH END       (CONTAINED? lines fan out in parallel)
///   CATALOG? [<name>]               (catalog introspection, one JSON line)
///   CATALOGS | METRICS | HELP
///
/// Responses are single lines ("OK ...", "YES ...", "NO ...", "ERR ...")
/// except METRICS, BATCH END, and EXPLAIN, which emit several. EXPLAIN
/// answers like CONTAINED? on its first line, then the decision's span
/// tree (indented text, or one line of Chrome trace_event JSON with the
/// JSON flag — see docs/OBSERVABILITY.md). The session
/// owns a WorkerContext; the ContainmentService it fronts is shared, so
/// many sessions (e.g. one per connection) can run concurrently.
///
/// Not thread-safe — one session per thread, like WorkerContext.
class ServerSession {
 public:
  /// `batch_threads` is the fan-out width of BATCH END.
  explicit ServerSession(ContainmentService* service, int batch_threads = 4);

  /// Processes one request line and returns the response text, newline
  /// terminated. Empty and '%'-comment lines yield an empty response.
  std::string HandleLine(const std::string& line);

  /// Installs an observer for every decision this session makes (access
  /// logging). Pass an empty function to remove it.
  void set_decision_observer(DecisionObserver observer) {
    observer_ = std::move(observer);
  }

 private:
  void Observe(const DecisionRequest& request,
               const DecisionResponse& response) const {
    if (observer_) observer_(request, response);
  }

  std::string HandleCatalog(const std::string& rest);
  std::string HandleDefine(const std::string& rest);
  std::string HandleContained(const std::string& rest);
  std::string HandlePlan(const std::string& rest, bool collect_trace,
                         bool trace_json);
  std::string HandleRewrite(const std::string& rest, bool collect_trace,
                            bool trace_json);
  std::string HandleCatalogQuery(const std::string& rest);
  std::string HandleRequestz(const std::string& rest);
  std::string HandleExplain(const std::string& rest);
  std::string HandleBatch(const std::string& rest);
  std::string RenderResponse(const DecisionResponse& response) const;
  /// Looks up a DEFINE'd query name; returns "" and fills *error on miss.
  const std::string* LookupQuery(const std::string& name,
                                 std::string* error) const;
  /// Appends the rendered span tree (or a compiled-out notice) to *out.
  static void AppendTrace(const trace::TraceContext* trace, bool json,
                          std::string* out);

  ContainmentService* service_;
  WorkerContext ctx_;
  /// The planner's arena, retired independently of ctx_ (plan construction
  /// mints far more symbols per request than a containment decision).
  WorkerContext planner_ctx_;
  int batch_threads_;
  DecisionObserver observer_;
  /// Named query texts declared with DEFINE.
  std::map<std::string, std::string> queries_;
  bool in_batch_ = false;
  std::vector<DecisionRequest> batch_;
};

}  // namespace relcont

#endif  // RELCONT_SERVICE_PROTOCOL_H_

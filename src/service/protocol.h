#ifndef RELCONT_SERVICE_PROTOCOL_H_
#define RELCONT_SERVICE_PROTOCOL_H_

#include <functional>
#include <map>
#include <span>
#include <string>
#include <string_view>
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
/// (grammar in docs/SERVICE.md): one request line in, one reply out. The
/// verbs are the rows of Verbs(); HandleLine dispatches on that table,
/// HELP lists it, and every usage error quotes its row. The question verbs
/// (CONTAINED?, PLAN?, REWRITE? and EXPLAIN around them) share one
/// argument parser and one reply renderer (protocol.cc).
///
/// Replies are single lines ("OK ...", "YES ...", "NO ...", "ERR ...")
/// except METRICS, BATCH END, PLAN? and EXPLAIN, which emit several. The
/// session owns its worker arenas; the ContainmentService it fronts is
/// shared, so many sessions (e.g. one per connection) can run concurrently.
///
/// Not thread-safe — one session per thread, like WorkerContext.
class ServerSession {
 public:
  struct Verb;
  /// Runs a verb on the words after it. The question verbs trace when
  /// `collect_trace` (EXPLAIN sets it), as Chrome JSON when `trace_json`.
  using Handler = std::string(const Verb& verb,
                              std::span<const std::string> args,
                              bool collect_trace, bool trace_json);

  /// One row of the verb table: all that dispatch, HELP and usage errors
  /// know of a verb.
  struct Verb {
    enum class Batch { kRun, kQueue, kReject };  ///< inside BATCH BEGIN/END

    std::string_view name;
    /// The usage after the name: the HELP line and the "expected <name>
    /// <args>" error. A question verb's "<q>" or "<q1> <q2>" is its arity.
    std::string_view args;
    Handler ServerSession::*handler;
    Batch batch;
    /// EXPLAIN [JSON] <name> ... traces it (with no verb named, EXPLAIN
    /// traces CONTAINED?).
    bool explainable;
  };

  /// The verb table, in HELP order.
  static std::span<const Verb> Verbs();

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
  // One handler per row of Verbs() (declared through the shared type).
  Handler HandleCatalog, HandleCatalogQuery, HandleDefine, HandleContained,
      HandlePlan, HandleRewrite, HandleExplain, HandleBatch, HandleRequestz,
      HandleCatalogs, HandleMetrics, HandleStatusz, HandleHelp;

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

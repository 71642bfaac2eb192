#ifndef RELCONT_SERVICE_PROTOCOL_H_
#define RELCONT_SERVICE_PROTOCOL_H_

#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "service/service.h"

namespace relcont {

/// A DEFINE'd query: its text and the canonical fingerprint DEFINE
/// computed from it (CanonicalProgramFingerprint, goal = head of the first
/// rule), kept in one buffer so a name costs one allocation.
class DefinedQuery {
 public:
  DefinedQuery(std::string_view text, std::string_view fingerprint)
      : text_size_(text.size()) {
    bytes_.reserve(text.size() + fingerprint.size());
    bytes_.append(text).append(fingerprint);
  }

  std::string_view text() const {
    return std::string_view(bytes_).substr(0, text_size_);
  }
  std::string_view fingerprint() const {
    return std::string_view(bytes_).substr(text_size_);
  }

 private:
  std::string bytes_;
  size_t text_size_;
};

/// One client session of the line-delimited request/response protocol
/// (grammar in docs/SERVICE.md): one request line in, one reply out. The
/// verbs are the rows of Verbs(); HandleLine dispatches on that table,
/// HELP lists it, and every usage error quotes its row. The question verbs
/// (CONTAINED?, PLAN?, REWRITE? and EXPLAIN around them) share one
/// argument parser and one reply renderer (protocol.cc).
///
/// Replies are single lines ("OK ...", "YES ...", "NO ...", "ERR ...")
/// except METRICS, BATCH END, PLAN? and EXPLAIN, which emit several. The
/// session owns its worker arena; the ContainmentService it fronts is
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

 private:
  // One handler per row of Verbs() (declared through the shared type).
  Handler HandleCatalog, HandleCatalogQuery, HandleDefine, HandleContained,
      HandlePlan, HandleRewrite, HandleExplain, HandleBatch, HandleRequestz,
      HandleCatalogs, HandleMetrics, HandleStatusz, HandleHelp;

  ContainmentService* service_;
  /// The one arena of every verb (requests roll back their fresh symbols,
  /// so it stays at the session's vocabulary size).
  WorkerContext ctx_;
  int batch_threads_;
  /// The queries declared with DEFINE, by name. A question copies a
  /// query's text and fingerprint into its request; a re-DEFINE replaces
  /// both together.
  std::map<std::string, DefinedQuery> queries_;
  bool in_batch_ = false;
  std::vector<DecisionRequest> batch_;
};

}  // namespace relcont

#endif  // RELCONT_SERVICE_PROTOCOL_H_

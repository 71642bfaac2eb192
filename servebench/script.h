// A workload as a fixed, seeded script: the catalogs, the DEFINEs, the
// warm-up lines and the timed request sequence of every client, plus the
// expected answer of every question, computed by calling the library
// directly (never through the service under test).
#ifndef SERVEBENCH_SCRIPT_H_
#define SERVEBENCH_SCRIPT_H_

#include <array>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "gen.h"

namespace servebench {

enum class Verb {
  kContained,
  kPlan,
  kCatalog,
  kScrapeMetrics,
  kScrapeStatusz,
  kReconnect,
};

/// One distinct question, identified by its texts and catalog content.
struct Question {
  Verb verb = Verb::kContained;  ///< kContained or kPlan
  std::string q1;                ///< the PLAN? query for kPlan
  std::string q2;
  int catalog = -1;              ///< index into Script::catalogs
  std::string family;            ///< generator family, for reporting
};

/// Trace counters the oracle collects for every answer.
enum CounterIndex : int {
  kHomCandidates = 0,
  kCegarProposals,
  kCegarIterations,
  kDenseOrderPropagations,
  kDomCoresChecked,
  kNumCounterIndices,
};

/// The library's answer to a question.
struct Answer {
  bool ok = false;
  bool contained = false;
  std::string regime;
  std::string plan_kind;  ///< "recursive" | "ucq"
  int plan_rules = 0;
  /// Symbols the library interned while answering: a deterministic
  /// measure of the question's work.
  int64_t symbols = 0;
  std::array<uint64_t, kNumCounterIndices> counters{};
};

/// One step of a client's sequence. Texts live in Script::texts (steps
/// repeat a small pool of lines, so they share them).
struct Step {
  Verb verb = Verb::kContained;
  /// The protocol line (nullptr for scrapes and reconnects).
  const std::string* line = nullptr;
  int question = -1;  ///< kContained / kPlan
  int catalog = -1;   ///< kCatalog: the content it registers
  /// kCatalog: the exact reply line.
  const std::string* expected = nullptr;
};

struct ClientScript {
  /// DEFINE lines, sent at setup and again after every reconnect.
  std::vector<std::string> defines;
  /// Untimed lines sent during setup (fill the caches).
  std::vector<Step> warmup;
  /// The timed sequence.
  std::vector<Step> steps;
};

struct Script {
  std::string workload;
  /// Catalog contents; churned catalogs appear once per variant under the
  /// same name.
  std::vector<CatalogText> catalogs;
  /// Contents registered at setup, in order.
  std::vector<int> initial_catalogs;
  std::vector<Question> questions;
  std::vector<Answer> answers;
  std::vector<ClientScript> clients;
  /// Storage of every step text (stable addresses).
  std::deque<std::string> texts;
};

/// The three workloads. `seconds` sizes the timed sequence (a fixed
/// number of requests per second of nominal run time), so a given
/// (seed, seconds) pair always yields the same script.
Script BuildWarmHits(uint64_t seed, int seconds);
Script BuildColdMix(uint64_t seed, int seconds);
Script BuildChurnTcp(uint64_t seed, int seconds);

/// Checks one reply against the script; returns "" when it matches, else a
/// description of the mismatch. Reply latency and id= fields are ignored.
std::string CheckReply(const Script& script, const Step& step,
                       const std::string& first_line);

/// True when the reply's first line reports a cache hit.
bool ReplyIsHit(const std::string& first_line);

/// The regime token of a CONTAINED? reply ("" if none).
std::string ReplyRegime(const std::string& first_line);

/// Number of plan lines that follow a PLAN? header (the rules=N field).
int ReplyPlanRules(const std::string& first_line);

/// The service's own latency field of a CONTAINED? or PLAN? reply ("<N>us",
/// whole microseconds), or -1 when the reply has none.
double ReplyLatencyUs(const std::string& first_line);

}  // namespace servebench

#endif  // SERVEBENCH_SCRIPT_H_

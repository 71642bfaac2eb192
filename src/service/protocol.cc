#include "service/protocol.h"

#include <array>
#include <cstdlib>
#include <optional>

#include "common/json.h"
#include "containment/canonical.h"
#include "datalog/parser.h"

namespace relcont {

namespace {

using Args = std::span<const std::string>;
using Verb = ServerSession::Verb;

/// Splits a line into words on the whitespace `operator>>` skips in the
/// "C" locale; a `getline` line's trailing '\r' is whitespace too.
std::vector<std::string> Tokenize(std::string_view line) {
  constexpr std::string_view kSpace = " \t\n\v\f\r";
  std::vector<std::string> tokens;
  size_t begin = line.find_first_not_of(kSpace);
  while (begin != std::string_view::npos) {
    size_t end = line.find_first_of(kSpace, begin);  // npos: to the end
    tokens.emplace_back(line.substr(begin, end - begin));
    begin = line.find_first_not_of(kSpace, end);
  }
  return tokens;
}

std::string Join(Args tokens) {
  std::string out;
  for (const std::string& token : tokens) {
    if (!out.empty()) out += ' ';
    out += token;
  }
  return out;
}

/// Pops trailing `key=value` budget options off `args` and applies them
/// to `options`, stopping at the `@<catalog>` word (a catalog name may
/// contain '='). Recognized keys: timeout_ms (per-request deadline),
/// budget (max decision steps), strategy (section3 engine: cegar, scan, or
/// auto). Returns a newline-terminated
/// "ERR ..." line on a malformed option, "" on success.
std::string ConsumeBudgetOptions(Args* args, DecideOptions* options) {
  for (; !args->empty() && args->back()[0] != '@' &&
         args->back().find('=') != std::string::npos;
       *args = args->first(args->size() - 1)) {
    const std::string& token = args->back();
    size_t eq = token.find('=');
    std::string key = token.substr(0, eq);
    std::string value = token.substr(eq + 1);
    if (key == "strategy") {
      // The one string-valued option; handled before the integer parse.
      std::optional<ContainmentStrategy> strategy =
          ParseContainmentStrategy(value);
      if (!strategy.has_value()) {
        return "ERR InvalidArgument: option 'strategy' must be cegar, "
               "scan, or auto, got '" + value + "'\n";
      }
      options->strategy = *strategy;
      continue;
    }
    char* end = nullptr;
    long long parsed = std::strtoll(value.c_str(), &end, 10);
    if (value.empty() || end == nullptr || *end != '\0' || parsed <= 0) {
      return "ERR InvalidArgument: option '" + key +
             "' needs a positive integer, got '" + value + "'\n";
    }
    if (key == "timeout_ms") {
      options->timeout_ms = parsed;
    } else if (key == "budget") {
      options->max_steps = parsed;
    } else {
      return "ERR InvalidArgument: unknown option '" + key +
             "' — try timeout_ms=, budget=, or strategy=\n";
    }
  }
  return "";
}

/// A verb's usage, `<name> <args>`: its HELP line and its usage error.
std::string Spelled(const Verb& verb) {
  std::string out(verb.name);
  if (!verb.args.empty()) out.append(" ").append(verb.args);
  return out;
}

std::string Usage(const Verb& verb) {
  return "ERR InvalidArgument: expected " + Spelled(verb) + "\n";
}

/// Where ParseQuestion puts one named query: its request's text and
/// fingerprint fields.
struct QueryFields {
  std::string* text;
  std::string* fingerprint;
};

/// The one parser of question lines: `<q> @<catalog> [options]` or
/// `<q1> <q2> @<catalog> [options]`, as `verb.args` spells it. Fills one
/// `queries` entry per DEFINE'd name with its text and stored fingerprint,
/// then `*catalog` and `*options`; returns the first ERR line (options,
/// then shape, then names), or "".
std::string ParseQuestion(const Verb& verb, Args args,
                          const std::map<std::string, DefinedQuery>& defined,
                          std::array<QueryFields, 2> queries,
                          std::string* catalog, DecideOptions* options) {
  std::string error = ConsumeBudgetOptions(&args, options);
  if (!error.empty()) return error;
  const size_t arity = verb.args.find("<q2>") == std::string_view::npos ? 1 : 2;
  if (args.size() != arity + 1 || args[arity].size() < 2 ||
      args[arity][0] != '@') {
    return Usage(verb);
  }
  for (size_t i = 0; i < arity; ++i) {
    auto it = defined.find(args[i]);
    if (it == defined.end()) {
      return "ERR InvalidArgument: unknown query '" + args[i] +
             "' — DEFINE it first\n";
    }
    queries[i].text->assign(it->second.text());
    queries[i].fingerprint->assign(it->second.fingerprint());
  }
  *catalog = args[arity].substr(1);
  return "";
}

/// The reply of a request the service ran. A failed one is `ERR [id=N]
/// <status>`: the id correlates a client's log line with the retained
/// trace (REQUESTZ <id>), whereas protocol-level rejections, which mint no
/// id, stay plain. A successful one is `head`, then
/// ` HIT|MISS <latency>us id=<N>`, then ` witness: <w>` if there is one.
template <typename Response>
std::string Reply(const Response& response, std::string head,
                  const std::string& witness = "") {
  if (!response.status.ok()) {
    return "ERR [id=" + std::to_string(response.request_id) + "] " +
           response.status.ToString() + "\n";
  }
  head += response.cache_hit ? " HIT " : " MISS ";
  head += std::to_string(response.latency_micros);
  head += "us id=";
  head += std::to_string(response.request_id);
  if (!witness.empty()) {
    head += " witness: ";
    head += witness;
  }
  head += '\n';
  return head;
}

std::string DecisionReply(const DecisionResponse& response) {
  std::string head = response.contained ? "YES " : "NO ";
  head += RegimeName(response.regime);
  return Reply(response, std::move(head), response.witness_text);
}

/// Appends a traced request's span tree to its reply: indented text, or
/// one line of Chrome trace JSON (or a notice that the hooks are compiled
/// out). A failed request's reply is its ERR line alone.
template <typename Response>
void AppendTrace(const Response& response, bool json, std::string* out) {
  const trace::TraceContext* trace = response.trace.get();
  if (!response.status.ok() || trace == nullptr) return;
  if (trace->spans().empty() && !trace::kCompiledIn) {
    *out += "(trace hooks compiled out: rebuild with -DRELCONT_TRACE=ON)\n";
  } else if (json) {
    *out += trace->ToChromeJson() + '\n';
  } else {
    *out += trace->ToText();
  }
}

const Verb* FindVerb(std::string_view name) {
  for (const Verb& verb : ServerSession::Verbs()) {
    if (verb.name == name) return &verb;
  }
  return nullptr;
}

}  // namespace

std::span<const Verb> ServerSession::Verbs() {
  using enum Verb::Batch;
  static constexpr Verb kVerbs[] = {
      {"CATALOG",
       "<name> VIEW <rule> [VIEW <rule>]... [PATTERN <src> <adornment>]...",
       &ServerSession::HandleCatalog, kRun, false},
      {"CATALOG?", "[<name>]", &ServerSession::HandleCatalogQuery, kRun,
       false},
      {"DEFINE", "<name> <rule> [<rule>]...", &ServerSession::HandleDefine,
       kRun, false},
      {"CONTAINED?", "<q1> <q2> @<catalog> [timeout_ms=N] [budget=N]",
       &ServerSession::HandleContained, kQueue, false},
      {"PLAN?", "<q> @<catalog> [timeout_ms=N] [budget=N]",
       &ServerSession::HandlePlan, kReject, true},
      {"REWRITE?", "<q1> <q2> @<catalog> [timeout_ms=N] [budget=N]",
       &ServerSession::HandleRewrite, kReject, true},
      {"EXPLAIN", "[JSON] <q1> <q2> @<catalog> [timeout_ms=N] [budget=N]",
       &ServerSession::HandleExplain, kReject, false},
      {"BATCH", "BEGIN or BATCH END", &ServerSession::HandleBatch, kRun,
       false},
      {"REQUESTZ", "[<id>]", &ServerSession::HandleRequestz, kReject, false},
      {"CATALOGS", "", &ServerSession::HandleCatalogs, kRun, false},
      {"METRICS", "", &ServerSession::HandleMetrics, kRun, false},
      {"STATUSZ", "", &ServerSession::HandleStatusz, kRun, false},
      {"HELP", "", &ServerSession::HandleHelp, kRun, false},
  };
  return kVerbs;
}

ServerSession::ServerSession(ContainmentService* service, int batch_threads)
    : service_(service), batch_threads_(batch_threads) {}

std::string ServerSession::HandleLine(const std::string& line) {
  std::vector<std::string> tokens = Tokenize(line);
  if (tokens.empty() || tokens[0][0] == '%') return "";
  const std::string& command = tokens[0];
  const Verb* verb = FindVerb(command);
  if (verb == nullptr) {
    // A distinct error shape (and counter) so clients can tell a typo'd
    // verb from a malformed request to a known verb.
    service_->metrics().RecordUnknownVerb();
    return "ERR unknown-verb '" + command + "' — try HELP\n";
  }
  if (in_batch_ && verb->batch == Verb::Batch::kReject) {
    return "ERR InvalidArgument: " + command +
           " is not allowed inside a batch\n";
  }
  return (this->*verb->handler)(*verb, Args(tokens).subspan(1),
                                /*collect_trace=*/false,
                                /*trace_json=*/false);
}

std::string ServerSession::HandleCatalog(const Verb&, Args args, bool,
                                         bool) {
  if (args.empty()) {
    return "ERR InvalidArgument: CATALOG needs a name\n";
  }
  const std::string& name = args[0];
  std::string views_text;
  int num_views = 0;
  std::vector<std::pair<std::string, std::string>> patterns;
  size_t i = 1;
  while (i < args.size()) {
    if (args[i] == "VIEW") {
      size_t end = i + 1;
      while (end < args.size() && args[end] != "VIEW" &&
             args[end] != "PATTERN") {
        ++end;
      }
      if (end == i + 1) {
        return "ERR InvalidArgument: VIEW needs a rule\n";
      }
      views_text += Join(args.subspan(i + 1, end - i - 1));
      views_text += '\n';
      ++num_views;
      i = end;
    } else if (args[i] == "PATTERN") {
      if (i + 2 >= args.size()) {
        return "ERR InvalidArgument: PATTERN needs <source> <adornment>\n";
      }
      patterns.emplace_back(args[i + 1], args[i + 2]);
      i += 3;
    } else {
      return "ERR InvalidArgument: expected VIEW or PATTERN, got '" +
             args[i] + "'\n";
    }
  }
  if (num_views == 0) {
    return "ERR InvalidArgument: a catalog needs at least one VIEW\n";
  }
  size_t num_patterns = patterns.size();
  Result<int64_t> version = service_->catalogs().Register(
      name, std::move(views_text), std::move(patterns));
  if (!version.ok()) {
    return "ERR " + version.status().ToString() + "\n";
  }
  return "OK catalog " + name + " v" + std::to_string(*version) +
         " views=" + std::to_string(num_views) +
         " patterns=" + std::to_string(num_patterns) + "\n";
}

std::string ServerSession::HandleDefine(const Verb&, Args args, bool, bool) {
  if (args.size() < 2) {
    return "ERR InvalidArgument: DEFINE needs <name> <rule>\n";
  }
  const std::string& name = args[0];
  std::string text = Join(args.subspan(1));
  // Validate now so a bad DEFINE fails loudly instead of at request time.
  Result<Program> parsed = ParseProgram(text, ctx_.interner());
  if (!parsed.ok()) {
    return "ERR " + parsed.status().ToString() + "\n";
  }
  if (parsed->rules.empty()) {
    return "ERR InvalidArgument: DEFINE needs at least one rule\n";
  }
  // Fingerprinted once, here: a question keys from it and parses the text
  // only on a miss. The goal is the head of the first rule, as for every
  // question (ParseGoalQuery).
  const std::string fingerprint = CanonicalProgramFingerprint(
      *parsed, parsed->rules[0].head.predicate, *ctx_.interner());
  queries_.insert_or_assign(name, DefinedQuery(text, fingerprint));
  return "OK query " + name +
         " rules=" + std::to_string(parsed->rules.size()) + "\n";
}

// The question verbs. EXPLAIN runs them with collect_trace, which also
// bypasses the cache: a cache hit would leave nothing to trace.

std::string ServerSession::HandleContained(const Verb& verb, Args args,
                                           bool collect_trace,
                                           bool trace_json) {
  DecisionRequest request;
  request.bypass_cache = request.collect_trace = collect_trace;
  std::string error =
      ParseQuestion(verb, args, queries_,
                    {{{&request.q1_text, &request.q1_fingerprint},
                      {&request.q2_text, &request.q2_fingerprint}}},
                    &request.catalog, &request.options);
  if (!error.empty()) return error;
  if (in_batch_) {
    batch_.push_back(std::move(request));
    return "QUEUED " + std::to_string(batch_.size() - 1) + "\n";
  }
  DecisionResponse response = service_->Decide(request, &ctx_);
  std::string out = DecisionReply(response);
  if (collect_trace) AppendTrace(response, trace_json, &out);
  return out;
}

std::string ServerSession::HandlePlan(const Verb& verb, Args args,
                                      bool collect_trace, bool trace_json) {
  PlanRequest request;
  request.bypass_cache = request.collect_trace = collect_trace;
  std::string error =
      ParseQuestion(verb, args, queries_,
                    {{{&request.query_text, &request.query_fingerprint}}},
                    &request.catalog, &request.options);
  if (!error.empty()) return error;
  PlanResponse response = service_->planner().Plan(request, &ctx_);
  std::string head = "OK plan catalog=" + request.catalog + " v" +
                     std::to_string(response.catalog_version) +
                     " kind=" + (response.recursive ? "recursive" : "ucq") +
                     " rules=" + std::to_string(response.num_rules);
  if (!response.dom_predicate.empty()) {
    head += " dom=" + response.dom_predicate;
  }
  std::string out = Reply(response, std::move(head));
  if (response.status.ok()) out += response.plan_text;
  if (collect_trace) AppendTrace(response, trace_json, &out);
  return out;
}

std::string ServerSession::HandleRewrite(const Verb& verb, Args args,
                                         bool collect_trace,
                                         bool trace_json) {
  RewriteRequest request;
  request.bypass_cache = request.collect_trace = collect_trace;
  std::string error =
      ParseQuestion(verb, args, queries_,
                    {{{&request.q1_text, &request.q1_fingerprint},
                      {&request.q2_text, &request.q2_fingerprint}}},
                    &request.catalog, &request.options);
  if (!error.empty()) return error;
  RewriteResponse response =
      service_->planner().Rewrite(request, &ctx_);
  std::string out = Reply(response, response.contained ? "YES plan" : "NO plan",
                          response.witness_text);
  if (collect_trace) AppendTrace(response, trace_json, &out);
  return out;
}

std::string ServerSession::HandleExplain(const Verb& verb, Args args, bool,
                                         bool) {
  const bool json = !args.empty() && args[0] == "JSON";
  if (json) args = args.subspan(1);
  const Verb* explained = args.empty() ? nullptr : FindVerb(args[0]);
  if (explained != nullptr && explained->explainable) {
    return (this->*explained->handler)(*explained, args.subspan(1),
                                       /*collect_trace=*/true, json);
  }
  // No verb named: trace CONTAINED?, with EXPLAIN's own usage error.
  return HandleContained(verb, args, /*collect_trace=*/true, json);
}

std::string ServerSession::HandleBatch(const Verb& verb, Args args, bool,
                                       bool) {
  const std::string_view step =
      args.size() == 1 ? std::string_view(args[0]) : std::string_view();
  if (step == "BEGIN") {
    if (in_batch_) return "ERR InvalidArgument: already in a batch\n";
    in_batch_ = true;
    return "OK batch begin\n";
  }
  if (step == "END") {
    if (!in_batch_) return "ERR InvalidArgument: no batch in progress\n";
    in_batch_ = false;
    std::vector<DecisionResponse> responses =
        service_->ExecuteBatch(batch_, batch_threads_);
    std::string out =
        "OK batch " + std::to_string(responses.size()) + "\n";
    for (size_t i = 0; i < responses.size(); ++i) {
      out += "[" + std::to_string(i) + "] " + DecisionReply(responses[i]);
    }
    batch_.clear();
    return out;
  }
  return Usage(verb);
}

std::string ServerSession::HandleRequestz(const Verb& verb, Args args, bool,
                                          bool) {
  // Introspection, like METRICS: mints no id and records no wide event, so
  // REQUESTZ and GET /requestz render byte-identical documents.
  if (args.empty()) {
    return obs::RenderRequestzListJson(service_->metrics().flight());
  }
  const uint64_t id = obs::ParseRequestId(args[0]);
  if (args.size() > 1 || id == 0) return Usage(verb);
  std::optional<obs::FlightRecorder::Retained> entry =
      service_->metrics().flight().FindRetained(id);
  if (!entry.has_value()) {
    return "ERR InvalidArgument: request id " + std::to_string(id) +
           " not retained\n";
  }
  return obs::RenderRequestzEventJson(*entry);
}

std::string ServerSession::HandleCatalogQuery(const Verb& verb, Args args,
                                              bool, bool) {
  if (args.size() > 1) return Usage(verb);
  std::vector<std::string> names =
      args.empty() ? service_->catalogs().Names()
                   : std::vector<std::string>(args.begin(), args.end());
  std::string out = "{\"catalogs\":[";
  bool first = true;
  for (const std::string& name : names) {
    auto spec = service_->catalogs().Find(name);
    if (spec == nullptr) {
      if (!args.empty()) {
        return "ERR InvalidArgument: unknown catalog '" + name + "'\n";
      }
      continue;  // raced with a concurrent removal of a listed name
    }
    if (!first) out += ',';
    first = false;
    out += "{\"name\":";
    json::AppendEscaped(spec->name, &out);
    out += ",\"version\":" + std::to_string(spec->version);
    out += ",\"views\":" + std::to_string(spec->num_views);
    out += ",\"patterns\":[";
    for (size_t i = 0; i < spec->patterns.size(); ++i) {
      if (i > 0) out += ',';
      out += "{\"source\":";
      json::AppendEscaped(spec->patterns[i].first, &out);
      out += ",\"adornment\":";
      json::AppendEscaped(spec->patterns[i].second, &out);
      out += '}';
    }
    out += "]}";
  }
  out += "]}\n";
  return out;
}

std::string ServerSession::HandleCatalogs(const Verb&, Args, bool, bool) {
  std::string out;
  for (const std::string& name : service_->catalogs().Names()) {
    auto spec = service_->catalogs().Find(name);
    if (spec == nullptr) continue;
    out += "catalog " + name + " v" + std::to_string(spec->version) + "\n";
  }
  return out.empty() ? "OK no catalogs\n" : out;
}

// METRICS and STATUSZ answer what GET /metrics and GET /statusz serve.
std::string ServerSession::HandleMetrics(const Verb&, Args, bool, bool) {
  return obs::RenderPrometheusText(service_->Snapshot());
}

std::string ServerSession::HandleStatusz(const Verb&, Args, bool, bool) {
  return obs::RenderStatuszJson(service_->Snapshot());
}

std::string ServerSession::HandleHelp(const Verb&, Args, bool, bool) {
  std::string out;
  for (const Verb& verb : Verbs()) {
    out += Spelled(verb) + '\n';
    // EXPLAIN's other forms: one per verb it may name.
    if (verb.handler != &ServerSession::HandleExplain) continue;
    for (const Verb& explained : Verbs()) {
      if (explained.explainable) {
        out += "EXPLAIN [JSON] " + Spelled(explained) + '\n';
      }
    }
  }
  return out +
         "  timeout_ms: per-request deadline; budget: max decision steps;\n"
         "  strategy=cegar|scan|auto: section3 engine (default auto — "
         "CEGAR search on wide plans, scan otherwise).\n"
         "  A request past its bound answers ERR BoundReached (not a "
         "verdict).\n";
}

}  // namespace relcont

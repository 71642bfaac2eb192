#include "tracer.h"

#include "binding/dom_plan.h"
#include "containment/canonical.h"
#include "datalog/parser.h"
#include "datalog/unfold.h"
#include "obs/exposition.h"
#include "relcont/decide.h"
#include "rewriting/inverse_rules.h"

namespace servebench {

using relcont::Interner;

/// The tracer's own arena for the library-level calls.
struct Tracer::Library {
  std::unique_ptr<Interner> interner = std::make_unique<Interner>();
  std::map<int, relcont::MaterializedCatalog> catalogs;
  int uses = 0;

  void MaybeReset() {
    if (++uses < 500) return;
    uses = 0;
    catalogs.clear();
    interner = std::make_unique<Interner>();
  }

  const relcont::MaterializedCatalog* Catalog(const Script& script,
                                              int index) {
    auto it = catalogs.find(index);
    if (it != catalogs.end()) return &it->second;
    const CatalogText& text = script.catalogs[index];
    relcont::CatalogSpec spec;
    spec.name = text.name;
    spec.views_text = text.ViewsText();
    spec.patterns = text.patterns;
    relcont::Result<relcont::MaterializedCatalog> m =
        relcont::MaterializeCatalog(spec, interner.get());
    if (!m.ok()) return nullptr;
    return &catalogs.emplace(index, std::move(*m)).first->second;
  }

  /// Parses `text`; the goal is the head of its first rule.
  relcont::GoalQuery Parse(const std::string& text) {
    relcont::Result<relcont::Program> p =
        relcont::ParseProgram(text, interner.get());
    relcont::GoalQuery out;
    if (p.ok() && !p->rules.empty()) {
      out.goal = p->rules[0].head.predicate;
      out.program = std::move(*p);
    }
    return out;
  }
};

Tracer::Tracer(const Script* script, bool shadow_only)
    : script_(script),
      shadow_only_(shadow_only),
      library_(std::make_unique<Library>()) {}

Tracer::~Tracer() = default;

void Tracer::Setup() {
  for (int index : script_->initial_catalogs) {
    const CatalogText& c = script_->catalogs[index];
    (void)shadow_.catalogs().Register(c.name, c.ViewsText(), c.patterns);
  }
  for (const ClientScript& client : script_->clients) {
    for (const Step& step : client.warmup) {
      const Question& q = script_->questions[step.question];
      const std::string& catalog = script_->catalogs[q.catalog].name;
      if (step.verb == Verb::kContained) {
        relcont::DecisionRequest request;
        request.q1_text = q.q1;
        request.q2_text = q.q2;
        request.catalog = catalog;
        shadow_.Decide(request, &shadow_ctx_);
      } else {
        relcont::PlanRequest request;
        request.query_text = q.q1;
        request.catalog = catalog;
        shadow_.planner().Plan(request, &shadow_planner_ctx_);
      }
    }
  }
  interner_before_ = shadow_ctx_.interner()->size();
}

void Tracer::ReplayShadow() {
  Setup();
  size_t longest = 0;
  for (const ClientScript& c : script_->clients) {
    longest = std::max(longest, c.steps.size());
  }
  for (size_t i = 0; i < longest; ++i) {
    for (const ClientScript& c : script_->clients) {
      if (i < c.steps.size()) OnStep(c.steps[i], 0, "0us");
    }
  }
}

void Tracer::OnStep(const Step& step, double handle_line_us,
                    const std::string& first_line) {
  switch (step.verb) {
    case Verb::kContained:
      Contained(step, handle_line_us, ReplyLatencyUs(first_line),
                ReplyIsHit(first_line));
      break;
    case Verb::kPlan:
      Plan(step, handle_line_us, ReplyLatencyUs(first_line),
           ReplyIsHit(first_line));
      break;
    case Verb::kCatalog:
      CatalogWrite(step, handle_line_us);
      break;
    case Verb::kScrapeMetrics:
    case Verb::kScrapeStatusz:
      Scrape(step);
      break;
    case Verb::kReconnect:
      break;
  }
}

void Tracer::NoteInterner() {
  int64_t size = shadow_ctx_.interner()->size();
  // A smaller arena means the worker reset it mid-request.
  interner_growth_ += static_cast<uint64_t>(
      size >= interner_before_ ? size - interner_before_ : size);
  interner_size_max_ = std::max(interner_size_max_, size);
  interner_before_ = size;
}

void Tracer::Contained(const Step& step, double handle_line_us,
                       double service_us, bool hit) {
  const Question& q = script_->questions[step.question];
  relcont::DecisionRequest request;
  request.q1_text = q.q1;
  request.q2_text = q.q2;
  request.catalog = script_->catalogs[q.catalog].name;
  relcont::Result<std::string> key("");
  double key_us =
      TimeUs([&] { key = shadow_.CacheKey(request, &shadow_ctx_); });
  double lookup_us = 0;
  if (key.ok()) {
    lookup_us = TimeUs([&] { (void)shadow_.cache().Lookup(*key); });
  }
  relcont::DecisionResponse response;
  double decide_us =
      TimeUs([&] { response = shadow_.Decide(request, &shadow_ctx_); });
  NoteInterner();
  ++contained_;
  if (response.cache_hit) ++shadow_hits_;
  if (shadow_only_) return;
  if (hit) ++contained_hits_;
  double record_us = TimeUs([&] {
    relcont::ServiceMetrics& m = shadow_.metrics();
    m.RecordRequest(response.regime, response.latency_micros, false,
                    response.cache_hit);
    relcont::obs::WideEvent event;
    event.request_id = response.request_id;
    event.latency_micros = response.latency_micros;
    event.cache_hit = response.cache_hit ? 1 : 0;
    event.set_verb("contained");
    event.set_regime(relcont::RegimeName(response.regime));
    event.set_catalog(request.catalog);
    m.RecordFlight(relcont::ServiceVerb::kContained, event, nullptr);
  });
  handle_line_us_.push_back(handle_line_us);
  layers_["service.handle_line_us"].Add(handle_line_us);
  layers_["service.decide_us"].Add(decide_us);
  // The protocol layer is what HandleLine spends outside Decide, as the
  // service itself timed Decide for this very request (the reply's latency
  // field, truncated to whole microseconds).
  double protocol_us = handle_line_us - service_us;
  layers_["service.protocol_us"].Add(protocol_us);
  layers_["service.cache_key_us"].Add(key_us);
  layers_["service.cache_lookup_us"].Add(lookup_us);
  layers_["service.record_us"].Add(record_us);
  if (hit) {
    layers_["service.decide_unattributed_us"].Add(decide_us - key_us -
                                                  lookup_us - record_us);
  }
  share_us_["protocol"] += protocol_us;
  share_us_["cache_lookup"] += lookup_us;
  share_us_["record"] += record_us;

  library_->MaybeReset();
  relcont::GoalQuery q1, q2;
  double parse_us = TimeUs([&] {
    q1 = library_->Parse(q.q1);
    q2 = library_->Parse(q.q2);
  });
  double fp_us = TimeUs([&] {
    (void)relcont::CanonicalProgramFingerprint(q1.program, q1.goal,
                                               *library_->interner);
    (void)relcont::CanonicalProgramFingerprint(q2.program, q2.goal,
                                               *library_->interner);
  });
  layers_["datalog.parse_us"].Add(parse_us);
  layers_["containment.fingerprint_us"].Add(fp_us);
  share_us_["parse"] += parse_us;
  share_us_["fingerprint"] += fp_us;
  if (hit) return;
  const Answer& answer = script_->answers[step.question];
  const relcont::MaterializedCatalog* catalog =
      library_->Catalog(*script_, q.catalog);
  if (catalog == nullptr) return;
  ++regime_counts_[answer.regime];
  for (int i = 0; i < kNumCounterIndices; ++i) {
    counters_[i] += answer.counters[i];
  }
  auto [known, first] = library_us_.emplace(step.question, 0.0);
  if (first) {
    known->second = TimeUs([&] {
      (void)relcont::DecideRelativeContainment(q1, q2, catalog->views,
                                               catalog->patterns,
                                               library_->interner.get(), {});
    });
    if (q.family == "section3") {
      // The scan's front half, one layer at a time.
      TimeUcqPlan(q1, catalog->views);
    }
  }
  layers_["relcont.decide_us." + answer.regime].Add(known->second);
  share_us_["relcont"] += known->second;
}

void Tracer::Plan(const Step& step, double handle_line_us, double service_us,
                  bool hit) {
  const Question& q = script_->questions[step.question];
  relcont::PlanRequest request;
  request.query_text = q.q1;
  request.catalog = script_->catalogs[q.catalog].name;
  relcont::PlanResponse response;
  double plan_us = TimeUs([&] {
    response = shadow_.planner().Plan(request, &shadow_planner_ctx_);
  });
  ++plans_;
  if (response.cache_hit) ++shadow_plan_hits_;
  if (shadow_only_) return;
  if (hit) ++plan_hits_;
  handle_line_us_.push_back(handle_line_us);
  layers_["service.handle_line_us"].Add(handle_line_us);
  layers_[hit ? "planner.plan_hit_us" : "planner.plan_us"].Add(plan_us);
  share_us_["protocol"] += handle_line_us - service_us;

  library_->MaybeReset();
  relcont::GoalQuery query;
  double parse_us = TimeUs([&] { query = library_->Parse(q.q1); });
  double fp_us = TimeUs([&] {
    (void)relcont::CanonicalProgramFingerprint(query.program, query.goal,
                                               *library_->interner);
  });
  layers_["datalog.parse_us"].Add(parse_us);
  layers_["containment.fingerprint_us"].Add(fp_us);
  share_us_["parse"] += parse_us;
  share_us_["fingerprint"] += fp_us;
  if (hit) return;
  const relcont::MaterializedCatalog* catalog =
      library_->Catalog(*script_, q.catalog);
  if (catalog == nullptr) return;
  const Answer& answer = script_->answers[step.question];
  for (int i = 0; i < kNumCounterIndices; ++i) {
    counters_[i] += answer.counters[i];
  }
  auto [known, first] = library_us_.emplace(step.question, 0.0);
  if (first) {
    known->second =
        catalog->patterns.empty()
            ? TimeUcqPlan(query, catalog->views)
            : TimeUs([&] {
                (void)relcont::ExecutablePlan(query.program, catalog->views,
                                              catalog->patterns,
                                              library_->interner.get());
              });
  }
  if (!catalog->patterns.empty()) {
    layers_["binding.dom_plan_us"].Add(known->second);
  }
  share_us_["planner_build"] += known->second;
}

double Tracer::TimeUcqPlan(const relcont::GoalQuery& query,
                           const relcont::ViewSet& views) {
  Interner* interner = library_->interner.get();
  layers_["rewriting.invert_views_us"].Add(
      TimeUs([&] { (void)relcont::InvertViews(views, interner); }));
  relcont::Result<relcont::Program> plan = relcont::Program{};
  double plan_us = TimeUs([&] {
    plan = relcont::MaximallyContainedPlan(query.program, views, interner);
  });
  layers_["rewriting.plan_us"].Add(plan_us);
  if (!plan.ok()) return plan_us;
  double unfold_us = TimeUs(
      [&] { (void)relcont::UnfoldToUnion(*plan, query.goal, interner); });
  layers_["datalog.unfold_us"].Add(unfold_us);
  return plan_us + unfold_us;
}

void Tracer::CatalogWrite(const Step& step, double handle_line_us) {
  const CatalogText& c = script_->catalogs[step.catalog];
  double register_us = TimeUs([&] {
    (void)shadow_.catalogs().Register(c.name, c.ViewsText(), c.patterns);
  });
  if (shadow_only_) return;
  relcont::CatalogSpec spec;
  spec.name = c.name;
  spec.views_text = c.ViewsText();
  spec.patterns = c.patterns;
  Interner scratch;
  double materialize_us =
      TimeUs([&] { (void)relcont::MaterializeCatalog(spec, &scratch); });
  handle_line_us_.push_back(handle_line_us);
  layers_["service.handle_line_us"].Add(handle_line_us);
  layers_["service.catalog_register_us"].Add(register_us);
  layers_["service.catalog_materialize_us"].Add(materialize_us);
  share_us_["protocol"] += handle_line_us - register_us;
  share_us_["catalog_write"] += register_us;
}

void Tracer::Scrape(const Step& step) {
  if (shadow_only_ || service_ == nullptr) return;
  bool metrics = step.verb == Verb::kScrapeMetrics;
  layers_[metrics ? "obs.render_prometheus_us" : "obs.render_statusz_us"].Add(
      TimeUs([&] {
        relcont::obs::MetricsSnapshot snapshot = service_->metrics().Snapshot(
            service_->cache().Stats(), service_->planner().cache().Stats());
        (void)(metrics ? relcont::obs::RenderPrometheusText(snapshot)
                       : relcont::obs::RenderStatuszJson(snapshot));
      }));
}

ExactCounts Tracer::ShadowCounts() const {
  return {{"shadow.contained", contained_},
          {"shadow.contained_hits", shadow_hits_},
          {"shadow.plans", plans_},
          {"shadow.plan_hits", shadow_plan_hits_},
          {"shadow.interner_size_max",
           static_cast<uint64_t>(interner_size_max_)},
          {"shadow.interner_growth", interner_growth_}};
}

namespace {

const char* kRegimes[] = {"section3", "section4", "theorem32", "theorem51",
                          "theorem52"};

}  // namespace

void Tracer::Report(const std::vector<double>& tcp_latency_us,
                    Metrics* out) const {
  auto us = [&](const std::string& name) {
    auto it = layers_.find(name);
    (*out)[name] = {it == layers_.end() ? 0 : it->second.MeanUs(), "us"};
  };
  auto count = [&](const std::string& name, double value) {
    (*out)[name] = {value, "count"};
  };
  for (const char* name :
       {"service.handle_line_us", "service.decide_us", "service.protocol_us",
        "service.cache_key_us", "service.cache_lookup_us", "service.record_us",
        "service.decide_unattributed_us", "service.catalog_register_us",
        "service.catalog_materialize_us", "datalog.parse_us",
        "datalog.unfold_us", "containment.fingerprint_us",
        "rewriting.invert_views_us", "rewriting.plan_us",
        "binding.dom_plan_us", "planner.plan_us", "planner.plan_hit_us",
        "obs.render_prometheus_us", "obs.render_statusz_us"}) {
    us(name);
  }
  uint64_t decisions = 0;
  for (const char* regime : kRegimes) {
    us(std::string("relcont.decide_us.") + regime);
    auto it = regime_counts_.find(regime);
    uint64_t n = it == regime_counts_.end() ? 0 : it->second;
    count(std::string("relcont.regime_count.") + regime,
          static_cast<double>(n));
    decisions += n;
  }
  count("relcont.decide_calls", static_cast<double>(decisions));
  count("relcont.cegar_proposals",
        static_cast<double>(counters_[kCegarProposals]));
  count("relcont.cegar_iterations",
        static_cast<double>(counters_[kCegarIterations]));
  count("containment.hom_candidates_tried",
        static_cast<double>(counters_[kHomCandidates]));
  count("constraints.dense_order_propagations",
        static_cast<double>(counters_[kDenseOrderPropagations]));
  count("binding.dom_cores_checked",
        static_cast<double>(counters_[kDomCoresChecked]));
  (*out)["service.cache_hit_ratio"] = {
      contained_ == 0 ? 0 : static_cast<double>(contained_hits_) / contained_,
      "ratio"};
  (*out)["planner.plan_cache_hit_ratio"] = {
      plans_ == 0 ? 0 : static_cast<double>(plan_hits_) / plans_, "ratio"};
  count("common.interner_size_max", static_cast<double>(interner_size_max_));
  count("common.interner_symbols_per_request",
        contained_ == 0 ? 0
                        : static_cast<double>(interner_growth_) / contained_);
  (*out)["obs.tcp_overhead_us"] = {
      tcp_latency_us.empty()
          ? 0
          : Quantile(tcp_latency_us, 0.5) - Quantile(handle_line_us_, 0.5),
      "us"};
  // Each layer's share of the summed handle_line time, and what no layer
  // accounts for.
  double total = 0;
  for (double v : handle_line_us_) total += v;
  double attributed = 0;
  for (const char* layer :
       {"protocol", "parse", "fingerprint", "cache_lookup", "record",
        "relcont", "planner_build", "catalog_write"}) {
    auto it = share_us_.find(layer);
    double v = it == share_us_.end() ? 0 : it->second;
    attributed += v;
    (*out)[std::string("share.") + layer + "_pct"] = {
        total > 0 ? 100 * v / total : 0, "%"};
  }
  (*out)["share.unattributed_pct"] = {
      total > 0 ? 100 * (total - attributed) / total : 0, "%"};
}

}  // namespace servebench

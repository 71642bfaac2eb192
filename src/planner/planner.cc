#include "planner/planner.h"

#include <optional>
#include <utility>

#include "binding/dom_plan.h"
#include "containment/canonical.h"
#include "relcont/binding_containment.h"
#include "relcont/relative_containment.h"
#include "rewriting/inverse_rules.h"
#include "service/request_frame.h"

namespace relcont {

Planner::Planner(ContainmentService* service)
    : service_(service),
      cache_(service->config().plan_cache_capacity, kCacheShards) {}

PlanResponse Planner::Plan(const PlanRequest& request, WorkerContext* ctx) {
  auto body = [&](RequestState& state, PlanResponse& out) -> Result<Regime> {
    const MaterializedCatalog* catalog = state.catalog;
    RELCONT_ASSIGN_OR_RETURN(
        GoalQuery query, ParseGoalQuery(request.query_text, ctx->interner()));
    std::string key;
    if (!request.bypass_cache) {
      key = "P\x1f" + request.catalog + ":v" +
            std::to_string(catalog->version) + '\x1f' +
            CanonicalProgramFingerprint(query.program, query.goal,
                                        *ctx->interner()) +
            '\x1f' + PlanOptionsFingerprint(request.options);
      if (std::optional<CachedPlan> cached = cache_.Lookup(key)) {
        out.plan_text = std::move(cached->plan_text);
        out.dom_predicate = std::move(cached->dom_predicate);
        out.num_rules = cached->num_rules;
        out.recursive = cached->recursive;
        out.cache_hit = true;
        return out.recursive ? Regime::kSection4 : Regime::kSection3;
      }
    }
    BudgetScope budget_scope(&state.budget);
    RELCONT_TRACE_SPAN("planner_plan");
    if (!catalog->patterns.empty()) {
      // Section 4: the executable maximally-contained plan — recursive
      // through the unary dom accumulator, Skolem terms in the guarded
      // inverse rules (they round-trip through ParseProgram).
      RELCONT_ASSIGN_OR_RETURN(
          ExecutablePlanResult plan,
          ExecutablePlan(query.program, catalog->views, catalog->patterns,
                         ctx->interner()));
      out.plan_text = plan.program.ToString(*ctx->interner());
      out.dom_predicate = ctx->interner()->NameOf(plan.dom_predicate);
      out.num_rules = static_cast<int>(plan.program.rules.size());
      out.recursive = true;
    } else {
      // Section 2.3/3: inverse rules, then function-term elimination down
      // to the executable UCQ over the sources.
      RELCONT_ASSIGN_OR_RETURN(
          Program plan,
          MaximallyContainedPlan(query.program, catalog->views,
                                 ctx->interner()));
      RELCONT_ASSIGN_OR_RETURN(
          UnionQuery ucq,
          PlanToUnion(plan, query.goal, catalog->views, ctx->interner(),
                      request.options.unfold));
      out.plan_text = ucq.ToString(*ctx->interner());
      out.num_rules = static_cast<int>(ucq.disjuncts.size());
      out.recursive = false;
    }
    RELCONT_TRACE_COUNT(kPlannerPlansBuilt, 1);
    RELCONT_TRACE_COUNT(kPlannerPlanRules,
                        static_cast<uint64_t>(out.num_rules));
    if (!request.bypass_cache) {
      cache_.Insert(key, request.catalog,
                    CachedPlan{out.plan_text, out.dom_predicate,
                               out.num_rules, out.recursive,
                               /*contained=*/false, /*witness_text=*/""});
    }
    return out.recursive ? Regime::kSection4 : Regime::kSection3;
  };
  auto record = [&](Regime regime, const PlanResponse& out) {
    service_->metrics().RecordPlanRequest(/*rewrite=*/false, regime,
                                          out.latency_micros,
                                          !out.status.ok());
  };
  return ServeRequest<PlanResponse>(
      *service_,
      {ServiceVerb::kPlan, request.query_text, /*q2_text=*/nullptr,
       request.catalog, request.options, request.collect_trace,
       "planner_plan"},
      ctx, body, record);
}

RewriteResponse Planner::Rewrite(const RewriteRequest& request,
                                 WorkerContext* ctx) {
  auto body = [&](RequestState& state,
                  RewriteResponse& out) -> Result<Regime> {
    const MaterializedCatalog* catalog = state.catalog;
    // Known before the cache lookup, so cache hits attribute their window
    // sample to the regime the cached answer came from.
    bool used_patterns = !catalog->patterns.empty();
    Regime regime = used_patterns ? Regime::kSection4 : Regime::kSection3;
    RELCONT_ASSIGN_OR_RETURN(
        GoalQuery q1, ParseGoalQuery(request.q1_text, ctx->interner()));
    RELCONT_ASSIGN_OR_RETURN(
        GoalQuery q2, ParseGoalQuery(request.q2_text, ctx->interner()));
    std::string key;
    if (!request.bypass_cache) {
      key = "R\x1f" + request.catalog + ":v" +
            std::to_string(catalog->version) + '\x1f' +
            CanonicalProgramFingerprint(q1.program, q1.goal,
                                        *ctx->interner()) +
            '\x1f' +
            CanonicalProgramFingerprint(q2.program, q2.goal,
                                        *ctx->interner()) +
            '\x1f' + PlanOptionsFingerprint(request.options);
      if (std::optional<CachedPlan> cached = cache_.Lookup(key)) {
        out.contained = cached->contained;
        out.witness_text = std::move(cached->witness_text);
        out.cache_hit = true;
        return regime;
      }
    }
    BudgetScope budget_scope(&state.budget);
    RELCONT_TRACE_SPAN("planner_rewrite");
    if (used_patterns) {
      // Theorem 4.1: P1^exp ⊑ Q2 over the executable dom plan.
      RELCONT_ASSIGN_OR_RETURN(
          BindingRelativeResult result,
          RelativelyContainedWithBindingPatterns(
              q1, q2, catalog->views, catalog->patterns, ctx->interner(),
              request.options.dom));
      out.contained = result.contained;
      if (result.counterexample.has_value()) {
        out.witness_text = result.counterexample->ToString(*ctx->interner());
      }
    } else {
      // Theorem 5.2 route (degenerates to Theorem 3.1 without
      // comparisons): P1^exp ⊑ Q2 via the expansion.
      RelativeContainmentOptions options;
      options.unfold = request.options.unfold;
      options.parallel_workers = state.parallel_workers;
      Rule witness;
      RELCONT_ASSIGN_OR_RETURN(
          out.contained,
          RelativelyContainedViaExpansion(q1, q2, catalog->views,
                                          ctx->interner(), options,
                                          &witness));
      if (!out.contained) {
        out.witness_text = witness.ToString(*ctx->interner());
      }
    }
    if (!request.bypass_cache) {
      cache_.Insert(key, request.catalog,
                    CachedPlan{/*plan_text=*/"", /*dom_predicate=*/"",
                               /*num_rules=*/0, /*recursive=*/false,
                               out.contained, out.witness_text});
    }
    return regime;
  };
  auto record = [&](Regime regime, const RewriteResponse& out) {
    service_->metrics().RecordPlanRequest(/*rewrite=*/true, regime,
                                          out.latency_micros,
                                          !out.status.ok());
  };
  return ServeRequest<RewriteResponse>(
      *service_,
      {ServiceVerb::kRewrite, request.q1_text, &request.q2_text,
       request.catalog, request.options, request.collect_trace,
       "planner_rewrite"},
      ctx, body, record);
}

}  // namespace relcont

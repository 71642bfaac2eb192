#include "relcont/cegar.h"

#include <algorithm>
#include <cstddef>
#include <functional>
#include <set>
#include <span>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/budget.h"
#include "datalog/substitution.h"
#include "datalog/unfold.h"
#include "rewriting/inverse_rules.h"
#include "trace/trace.h"

namespace relcont {

CegarGlobalCounters& GlobalCegarCounters() {
  auto& process = trace::ProcessCounts();
  auto at = [&](trace::Counter c) -> std::atomic<uint64_t>& {
    return process[static_cast<size_t>(c)];
  };
  static CegarGlobalCounters view{at(trace::Counter::kCegarIterations),
                                  at(trace::Counter::kCegarBlockingClauses),
                                  at(trace::Counter::kCegarProposals)};
  return view;
}

namespace {

constexpr std::string_view kBoundSite = "cegar_search";

/// Saturating helpers for the kAuto width estimate (the true width is
/// exponential; only "is it past the threshold" matters).
constexpr int64_t kWidthCap = int64_t{1} << 40;

int64_t SatMul(int64_t a, int64_t b) {
  if (a == 0 || b == 0) return 0;
  if (a > kWidthCap / b) return kWidthCap;
  return a * b;
}

int64_t SatAdd(int64_t a, int64_t b) {
  return a > kWidthCap - b ? kWidthCap : a + b;
}

/// One inverse-rule choice for a template body atom: a renamed-apart copy
/// (head = mediated atom, body[0] = the source atom it produces). Copies
/// are per (position, option) — the compiled inverse rules
/// (ViewSet::inverse_rules) share the view's variables, so reusing one copy
/// at two positions would link unrelated bindings.
struct LeftPosition {
  Atom goal;
  std::vector<Rule> options;
};

/// A blocking clause: "every proposal choosing exactly these options at
/// these positions is covered". Literals ascend by position; the clause is
/// indexed by its last position so the DFS tests it exactly once per
/// branch, the moment the clause becomes fully assigned.
struct Clause {
  std::vector<std::pair<int, int>> lits;  // (position, option index)
};

struct LeftTemplate {
  Rule rule;
  std::vector<LeftPosition> positions;
  /// Variable-sharing connected component per position (via the TEMPLATE
  /// atoms' variables; option variables are per-position fresh and cannot
  /// link positions). Proposals agreeing on a whole component produce
  /// syntactically identical candidate atoms there — the soundness basis
  /// for blocking-clause closure (docs/ALGORITHMS.md).
  std::vector<int> component;
  std::vector<char> component_touches_head;
  int num_components = 0;
  /// Positions with more than one inverse-rule option (the only real
  /// choice points; the proposal DFS walks them last).
  size_t num_branching = 0;
};

struct RightTemplate {
  Rule rule;  // renamed apart: right variables never collide with left
  std::vector<std::vector<Rule>> options;  // per body position
};

void ComputeComponents(LeftTemplate* t) {
  const size_t n = t->positions.size();
  std::vector<int> parent(n);
  for (size_t i = 0; i < n; ++i) parent[i] = static_cast<int>(i);
  std::function<int(int)> find = [&](int i) {
    while (parent[i] != i) i = parent[i] = parent[parent[i]];
    return i;
  };
  std::unordered_map<SymbolId, int> seen;
  std::vector<SymbolId> vars;
  for (size_t i = 0; i < n; ++i) {
    vars.clear();
    t->positions[i].goal.CollectVars(&vars);
    for (SymbolId v : vars) {
      auto [it, inserted] = seen.emplace(v, static_cast<int>(i));
      if (!inserted) parent[find(static_cast<int>(i))] = find(it->second);
    }
  }
  std::unordered_map<int, int> ids;
  t->component.resize(n);
  for (size_t i = 0; i < n; ++i) {
    int root = find(static_cast<int>(i));
    auto [it, inserted] = ids.emplace(root, static_cast<int>(ids.size()));
    t->component[i] = it->second;
  }
  t->num_components = static_cast<int>(ids.size());
  t->component_touches_head.assign(t->num_components, 0);
  vars.clear();
  t->rule.head.CollectVars(&vars);
  for (SymbolId v : vars) {
    auto it = seen.find(v);
    if (it == seen.end()) continue;  // unsafe head var; unreachable upstream
    t->component_touches_head[t->component[find(it->second)]] = 1;
  }
}

/// The propose/check/refine loop. One instance per decision; not
/// thread-safe (like the serial scan — parallelism lives above, in the
/// service's per-request threads).
class CegarSearch {
 public:
  CegarSearch(std::vector<LeftTemplate> left, std::vector<RightTemplate> right,
              SymbolId first_right_var, const CegarOptions& opts)
      : left_(std::move(left)),
        right_(std::move(right)),
        first_right_var_(first_right_var),
        opts_(opts) {}

  /// True when a counterexample was found (witness() set); false when the
  /// proposal space was exhausted (containment holds).
  Result<bool> Run() {
    for (const LeftTemplate& t : left_) {
      cur_ = &t;
      lenv_.Undo(0);
      assign_.assign(t.positions.size(), -1);
      clauses_by_last_.assign(t.positions.size(), {});
      template_covered_ = false;
      RELCONT_ASSIGN_OR_RETURN(bool found, Descend(0));
      if (found) return true;
    }
    return false;
  }

  const std::optional<Rule>& witness() const { return witness_; }

 private:
  Result<bool> Descend(size_t pos) {
    const LeftTemplate& t = *cur_;
    if (pos == t.positions.size()) return Leaf();
    const LeftPosition& p = t.positions[pos];
    for (int oi = 0; oi < static_cast<int>(p.options.size()); ++oi) {
      RELCONT_RETURN_NOT_OK(BudgetChargeOr(kBoundSite));
      size_t mark = lenv_.Mark();
      if (UnifyAtoms(p.goal, p.options[oi].head, &lenv_)) {
        assign_[pos] = oi;
        if (!(opts_.enable_blocking && Blocked(pos))) {
          RELCONT_ASSIGN_OR_RETURN(bool found, Descend(pos + 1));
          if (found) return true;
          if (template_covered_) {
            lenv_.Undo(mark);
            return false;
          }
        }
      }
      lenv_.Undo(mark);
    }
    return false;
  }

  bool Blocked(size_t pos) const {
    for (const Clause& c : clauses_by_last_[pos]) {
      bool all = true;
      for (const auto& [i, o] : c.lits) {
        if (assign_[i] != o) {
          all = false;
          break;
        }
      }
      if (all) return true;
    }
    return false;
  }

  Result<bool> Leaf() {
    const LeftTemplate& t = *cur_;
    RELCONT_TRACE_COUNT(kCegarProposals, 1);
    // Materialize the candidate. A surviving Skolem term means this plan
    // disjunct can never hold on a real source instance — the scan's
    // UnionPlan drops it, so the proposal is skipped unchecked.
    cand_body_.clear();
    for (size_t i = 0; i < t.positions.size(); ++i) {
      Atom a = lenv_.Apply(t.positions[i].options[assign_[i]].body[0]);
      for (const Term& arg : a.args) {
        if (arg.ContainsFunction()) return false;
      }
      cand_body_.push_back(std::move(a));
    }
    cand_head_.clear();
    for (const Term& arg : t.rule.head.args) {
      Term r = lenv_.Apply(arg);
      if (r.ContainsFunction()) return false;
      cand_head_.push_back(std::move(r));
    }
    targets_by_pred_.clear();
    for (size_t i = 0; i < cand_body_.size(); ++i) {
      targets_by_pred_[cand_body_[i].predicate].push_back(
          static_cast<int>(i));
    }
    RELCONT_TRACE_COUNT(kCegarIterations, 1);
    RELCONT_RETURN_NOT_OK(BudgetChargeOr(kBoundSite));
    RELCONT_ASSIGN_OR_RETURN(bool covered, Covered());
    if (covered) {
      if (opts_.enable_blocking) Learn();
      return false;
    }
    // A completed, uncovered proposal is a definite counterexample — like
    // the scan's first-counterexample-wins policy, it is reported even if
    // the budget dies right after.
    witness_.emplace(Atom(t.rule.head.predicate, cand_head_), cand_body_);
    return true;
  }

  Result<bool> Covered() {
    for (const RightTemplate& rt : right_) {
      if (rt.rule.head.args.size() != cand_head_.size()) continue;
      RELCONT_ASSIGN_OR_RETURN(bool found, CoverTemplate(rt));
      if (found) return true;
    }
    return false;
  }

  Result<bool> CoverTemplate(const RightTemplate& rt) {
    const size_t n = rt.rule.body.size();
    // Most-constrained-first ordering: positions with the fewest live
    // (option × target) pairs bind first. On the Theorem 3.3 family this
    // resolves the universal variables through the e_j atoms (one live
    // pair each) before touching the 7-way clause atoms — the difference
    // between a linear walk and a 7^C blowup per candidate.
    order_.clear();
    std::vector<int> branching(n, 0);
    for (size_t j = 0; j < n; ++j) {
      int b = 0;
      for (const Rule& o : rt.options[j]) {
        auto it = targets_by_pred_.find(o.body[0].predicate);
        if (it != targets_by_pred_.end()) {
          b += static_cast<int>(it->second.size());
        }
      }
      if (b == 0) return false;  // no candidate atom can realize position j
      branching[j] = b;
      order_.push_back(static_cast<int>(j));
    }
    std::sort(order_.begin(), order_.end(),
              [&](int a, int b) { return branching[a] < branching[b]; });
    renv_.Undo(0);
    target_assign_.assign(n, -1);
    return CoverDescend(rt, 0);
  }

  Result<bool> CoverDescend(const RightTemplate& rt, size_t k) {
    if (k == order_.size()) {
      // All body atoms realized and matched; the cover stands iff the
      // right head equals the candidate's (head predicates are not
      // compared, exactly like the containment-mapping check).
      size_t mark = renv_.Mark();
      for (size_t i = 0; i < rt.rule.head.args.size(); ++i) {
        if (!UnifyTerms(rt.rule.head.args[i], cand_head_[i], &renv_,
                        first_right_var_)) {
          renv_.Undo(mark);
          return false;
        }
      }
      support_ = target_assign_;
      return true;
    }
    int j = order_[k];
    for (const Rule& o : rt.options[j]) {
      auto targets = targets_by_pred_.find(o.body[0].predicate);
      if (targets == targets_by_pred_.end()) continue;
      for (int tgt : targets->second) {
        RELCONT_RETURN_NOT_OK(BudgetChargeOr(kBoundSite));
        size_t mark = renv_.Mark();
        // Resolution (template atom vs. inverse-rule head — Skolem
        // cancellation happens here) followed by the rigid match of the
        // produced source atom against the candidate atom.
        if (UnifyAtoms(rt.rule.body[j], o.head, &renv_, first_right_var_) &&
            UnifyAtoms(o.body[0], cand_body_[tgt], &renv_,
                       first_right_var_)) {
          target_assign_[j] = tgt;
          RELCONT_ASSIGN_OR_RETURN(bool found, CoverDescend(rt, k + 1));
          if (found) return true;
        }
        renv_.Undo(mark);
      }
    }
    return false;
  }

  void Learn() {
    const LeftTemplate& t = *cur_;
    // Closure: the cover inspected the support atoms and the head, whose
    // contents are determined by the option choices on their variable-
    // sharing components. Any proposal agreeing there reproduces them
    // verbatim, so the same cover applies — block it.
    std::vector<char> mark(t.component_touches_head.begin(),
                           t.component_touches_head.end());
    for (int tgt : support_) mark[t.component[tgt]] = 1;
    Clause c;
    size_t branching_pinned = 0;
    for (size_t i = 0; i < t.positions.size(); ++i) {
      // Single-option positions carry the same choice in every proposal —
      // their literal always matches, so it is implied and dropped.
      if (t.positions[i].options.size() <= 1) continue;
      if (mark[t.component[i]]) {
        c.lits.emplace_back(static_cast<int>(i), assign_[i]);
        ++branching_pinned;
      }
    }
    if (c.lits.empty()) {
      // The cover used nothing choice-dependent: every proposal of this
      // template is covered the same way.
      RELCONT_TRACE_COUNT(kCegarBlockingClauses, 1);
      template_covered_ = true;
      return;
    }
    if (branching_pinned == t.num_branching) {
      // The clause pins EVERY branching position, i.e. it denotes exactly
      // the one leaf the DFS just left and can never fire again. Storing
      // it would make Blocked() quadratic in the proposal count (the
      // Theorem 3.3 family hits exactly this: each cover's closure spans
      // the whole candidate) for zero pruning.
      return;
    }
    RELCONT_TRACE_COUNT(kCegarBlockingClauses, 1);
    clauses_by_last_[c.lits.back().first].push_back(std::move(c));
  }

  std::vector<LeftTemplate> left_;
  std::vector<RightTemplate> right_;
  // The cover search unifies the right-hand plan variables (all minted
  // after every left-hand and candidate variable) and keeps the candidate's
  // variables rigid, which gives candidates containment-mapping semantics.
  SymbolId first_right_var_;

  Substitution lenv_;  // proposal side: plain most-general unification
  Substitution renv_;  // cover side: variables below first_right_var_ rigid
  const LeftTemplate* cur_ = nullptr;
  std::vector<int> assign_;  // option choice per left position
  std::vector<std::vector<Clause>> clauses_by_last_;
  bool template_covered_ = false;

  std::vector<Atom> cand_body_;
  std::vector<Term> cand_head_;
  std::unordered_map<SymbolId, std::vector<int>> targets_by_pred_;
  std::vector<int> order_;
  std::vector<int> target_assign_;
  std::vector<int> support_;

  CegarOptions opts_;
  std::optional<Rule> witness_;
};

Result<RelativeContainmentResult> ScanFallback(
    const GoalQuery& q1, const GoalQuery& q2, const ViewSet& views,
    Interner* interner, const RelativeContainmentOptions& options) {
  RelativeContainmentOptions scan = options;
  scan.strategy = ContainmentStrategy::kScan;
  return RelativelyContained(q1, q2, views, interner, scan);
}

}  // namespace

Result<RelativeContainmentResult> CegarRelativelyContained(
    const GoalQuery& q1, const GoalQuery& q2, const ViewSet& views,
    Interner* interner, const RelativeContainmentOptions& options) {
  std::vector<LeftTemplate> left;
  std::vector<RightTemplate> right;
  SymbolId first_right_var = 0;
  int64_t estimate = 0;
  {
    RELCONT_TRACE_SPAN("build_plans");
    // Validation parity with the scan: the Section 3 input checks of
    // MaximallyContainedPlan (safety, comparison-free, mediated schema
    // only), Q1 before Q2, so error cases answer identically to the scan.
    RELCONT_RETURN_NOT_OK(CheckPlannableQuery(q1.program, views));
    RELCONT_RETURN_NOT_OK(CheckPlannableQuery(q2.program, views));

    const std::set<SymbolId>& sources = views.SourcePredicates();
    const std::set<SymbolId>& mediated = views.MediatedPredicates();
    // Factorization precondition: a query IDB colliding with a catalog
    // predicate would resolve against BOTH definitions in the joint
    // unfold; the two-level factorization cannot mirror that, so the scan
    // decides (identical verdict by construction).
    for (const Program* prog : {&q1.program, &q2.program}) {
      for (SymbolId idb : prog->IdbPredicates()) {
        if (mediated.count(idb) > 0 || sources.count(idb) > 0) {
          return ScanFallback(q1, q2, views, interner, options);
        }
      }
    }

    RELCONT_ASSIGN_OR_RETURN(
        UnionQuery t1,
        UnfoldToUnion(q1.program, q1.goal, interner));
    RELCONT_ASSIGN_OR_RETURN(
        UnionQuery t2,
        UnfoldToUnion(q2.program, q2.goal, interner));

    // The width (number of option combinations) of Q1's answerable
    // templates, and the fresh ids renaming their options apart mints,
    // both read off the option counts before anything is renamed.
    int64_t left_ids = 0;
    for (const Rule& d : t1.disjuncts) {
      int64_t width = 1;
      bool answerable = true;
      for (const Atom& a : d.body) {
        std::span<const NumberedRule> opts =
            views.InverseRulesWithHead(a.predicate);
        if (opts.empty()) {
          answerable = false;
          break;
        }
        for (const NumberedRule& r : opts) left_ids += r.num_vars();
        width = SatMul(width, static_cast<int64_t>(opts.size()));
      }
      if (answerable) estimate = SatAdd(estimate, width);
    }

    if (options.strategy == ContainmentStrategy::kAuto &&
        estimate < options.cegar.auto_width_threshold) {
      // The scan decides. One block reserves the ids the templates would
      // have minted, so fresh numbering is that of a run that built them.
      if (left_ids > 0) {
        interner->FreshBlock("_R", static_cast<int32_t>(left_ids));
      }
      return ScanFallback(q1, q2, views, interner, options);
    }

    // The inverse rules that can resolve a mediated atom, each renamed
    // apart.
    auto options_for = [&](const Atom& a) {
      std::vector<Rule> out;
      for (const NumberedRule& r : views.InverseRulesWithHead(a.predicate)) {
        out.push_back(r.RenameApart(interner));
      }
      return out;
    };

    for (const Rule& d : t1.disjuncts) {
      LeftTemplate lt;
      lt.rule = d;
      bool answerable = true;
      for (const Atom& a : d.body) {
        LeftPosition pos;
        pos.goal = a;
        pos.options = options_for(a);
        if (pos.options.empty()) {
          // A mediated atom no source covers: the whole template is
          // unanswerable (UnionPlan drops these disjuncts).
          answerable = false;
          break;
        }
        lt.positions.push_back(std::move(pos));
      }
      if (!answerable) continue;
      // Deterministic (single-option) positions first: the DFS then
      // resolves them once as a shared prefix instead of re-unifying them
      // under every combination of the real choice points. Stable, so the
      // enumeration order — and with it the reported witness — stays
      // deterministic.
      std::stable_partition(
          lt.positions.begin(), lt.positions.end(),
          [](const LeftPosition& p) { return p.options.size() <= 1; });
      for (const LeftPosition& p : lt.positions) {
        if (p.options.size() > 1) ++lt.num_branching;
      }
      ComputeComponents(&lt);
      left.push_back(std::move(lt));
    }

    // Every variable minted from here on is a right-hand one.
    first_right_var = interner->FreshBlock("_R", 0);
    for (const Rule& d : t2.disjuncts) {
      RightTemplate rt;
      rt.rule = RenameApart(d, interner);
      bool feasible = true;
      for (const Atom& a : rt.rule.body) {
        std::vector<Rule> opts = options_for(a);
        if (opts.empty()) {
          feasible = false;
          break;
        }
        rt.options.push_back(std::move(opts));
      }
      if (!feasible) continue;
      right.push_back(std::move(rt));
    }
  }

  RELCONT_TRACE_SPAN("cegar_search");
  CegarSearch search(std::move(left), std::move(right), first_right_var,
                     options.cegar);
  RELCONT_ASSIGN_OR_RETURN(bool found, search.Run());
  RelativeContainmentResult out;
  out.contained = !found;
  if (found) out.witness = search.witness();
  // plan1/plan2 stay empty by design: the engine never materializes them.
  return out;
}

}  // namespace relcont

#include "binding/dom_containment.h"

#include <algorithm>
#include <deque>
#include <functional>
#include <map>
#include <set>
#include <string>

#include "common/budget.h"
#include "containment/expansion.h"
#include "datalog/substitution.h"
#include "trace/trace.h"

namespace relcont {

namespace {

// ---------------------------------------------------------------------------
// Preprocessed shapes.
// ---------------------------------------------------------------------------

// A UCQ disjunct with indexed variables and occurrence bitmasks.
struct DisjunctInfo {
  Rule rule;
  std::vector<SymbolId> vars;          // index -> symbol
  std::map<SymbolId, int> var_index;   // symbol -> index
  std::vector<uint64_t> occurrence;    // per var: atoms containing it
  std::vector<bool> in_head;           // per var: occurs in the head
};

// A dom node rule  dom(X) :- dom(Y1), ..., dom(Yk), e1, ..., em  renamed
// apart for one run.
struct NodeRule {
  const DomNodeRule* numbered;
  SymbolId output_var;
  std::vector<SymbolId> guard_vars;  // distinct, in first-occurrence order
  std::vector<Atom> body_edb;
};

// How a variable of a disjunct relates to the outside of a tree.
struct ProfileEntry {
  int disjunct = 0;
  uint64_t atoms = 0;     // subset of the disjunct's atoms absorbed
  uint64_t boundary = 0;  // vars mapped to the tree's attachment term
  std::vector<std::pair<int, int>> consts;  // (var index, const index)

  friend bool operator<(const ProfileEntry& a, const ProfileEntry& b) {
    return std::tie(a.disjunct, a.atoms, a.boundary, a.consts) <
           std::tie(b.disjunct, b.atoms, b.boundary, b.consts);
  }
};

// A reference to a resolved dom subgoal inside a tree: either a constant
// leaf (dom fact) or another tree type.
struct ChildRef {
  bool is_const = false;
  int index = 0;  // const table index or tree option index
};

// Enough structure to materialize one concrete tree of this type.
struct TreeRep {
  int rule_index = 0;
  int output_const = -1;  // -1: variable/opaque boundary
  std::vector<ChildRef> children;
};

// A reachable tree type: its complete embedding profile.
struct TreeOption {
  int output_const = -1;
  std::set<ProfileEntry> entries;
  TreeRep rep;
  // Per disjunct: union of atom masks over entries (placement prefilter).
  std::map<int, uint64_t> atom_union;
};

// Orders tree types by profile: output and entries (the type's identity).
struct ProfileLess {
  bool operator()(const TreeOption* a, const TreeOption* b) const {
    return std::tie(a->output_const, a->entries) <
           std::tie(b->output_const, b->entries);
  }
};

// ---------------------------------------------------------------------------
// The decider.
// ---------------------------------------------------------------------------

class DomDecider {
 public:
  DomDecider(const DomProgram& program, SymbolId goal, SymbolId dom_pred,
             const UnionQuery& q2, Interner* interner)
      : goal_(goal),
        dom_(dom_pred),
        interner_(interner),
        program_(program),
        rest_(program.rest),
        q2_(q2) {}

  Result<DomContainmentResult> Run() {
    RELCONT_RETURN_NOT_OK(Preprocess());
    RELCONT_RETURN_NOT_OK(BuildCores());
    RELCONT_RETURN_NOT_OK(Saturate());
    return CheckCores();
  }

 private:
  // ---- setup ------------------------------------------------------------

  int InternConst(const Value& v) {
    for (size_t i = 0; i < const_table_.size(); ++i) {
      if (const_table_[i] == v) return static_cast<int>(i);
    }
    const_table_.push_back(v);
    return static_cast<int>(const_table_.size()) - 1;
  }

  Status Preprocess() {
    // Rename the node rules apart, one block of fresh ids each.
    for (const DomNodeRule& n : program_.nodes) {
      SymbolId first = interner_->FreshBlock("_R", n.num_vars);
      NodeRule node{&n, first + n.output, {}, {}};
      for (int32_t g : n.guards) node.guard_vars.push_back(first + g);
      for (const Atom& a : n.body_edb) {
        node.body_edb.push_back(InstantiateNumbered(a, first));
      }
      node_rules_.push_back(std::move(node));
    }
    for (const Value& v : program_.constants) InternConst(v);
    for (const Value& v : program_.facts) {
      dom_fact_consts_.insert(InternConst(v));
    }
    if (rest_.IsRecursive()) {
      return Status::Unsupported(
          "recursion outside the dom predicate is not in the decidable "
          "shape");
    }
    std::set<SymbolId> rest_idb;
    for (const Rule& r : program_.rest) rest_idb.insert(r.head.predicate);
    if (rest_idb.count(dom_) > 0) {
      return Status::Internal("dom rules were not split out");
    }
    for (const NodeRule& n : node_rules_) {
      for (const Atom& a : n.body_edb) {
        if (rest_idb.count(a.predicate) > 0) {
          return Status::Unsupported(
              "dom rules must be over EDB relations only");
        }
      }
    }
    // Constant table: the program's (above), then the UCQ's.
    for (const Rule& d : q2_.disjuncts) {
      if (!d.comparisons.empty()) {
        return Status::Unsupported("UCQ must be comparison-free");
      }
      for (const Value& v : d.Constants()) InternConst(v);
      for (const Atom& a : d.body) {
        if (a.predicate == dom_) {
          return Status::Unsupported("UCQ must not mention dom");
        }
      }
    }
    // Disjunct infos.
    RELCONT_RETURN_NOT_OK(CheckDisjunctSizes(q2_));
    for (const Rule& d : q2_.disjuncts) {
      DisjunctInfo info;
      info.rule = d;
      std::vector<SymbolId> vars = d.Variables();
      for (SymbolId v : vars) {
        info.var_index[v] = static_cast<int>(info.vars.size());
        info.vars.push_back(v);
      }
      info.occurrence.assign(info.vars.size(), 0);
      info.in_head.assign(info.vars.size(), false);
      for (size_t i = 0; i < d.body.size(); ++i) {
        std::vector<SymbolId> atom_vars;
        d.body[i].CollectVars(&atom_vars);
        for (SymbolId v : atom_vars) {
          info.occurrence[info.var_index[v]] |= uint64_t{1} << i;
        }
      }
      std::vector<SymbolId> head_vars;
      d.head.CollectVars(&head_vars);
      for (SymbolId v : head_vars) info.in_head[info.var_index[v]] = true;
      disjuncts_.push_back(std::move(info));
    }
    return Status::OK();
  }

  // ---- cores ------------------------------------------------------------

  struct Core {
    Rule unfolded;                  // head + full body (dom atoms included)
    std::vector<Atom> edb_atoms;
    std::vector<Term> attachments;  // distinct dom arguments
  };

  Status BuildCores() {
    RELCONT_ASSIGN_OR_RETURN(UnionQuery cores,
                             UnfoldToUnion(rest_, goal_, interner_));
    const SkolemFilter skolems(program_.rest);
    for (Rule& r : cores.disjuncts) {
      if (skolems.DerivesNothing(r)) continue;
      Core core;
      core.unfolded = r;
      std::vector<Term> seen;
      for (const Atom& a : r.body) {
        if (a.predicate == dom_) {
          const Term& t = a.args[0];
          if (std::find(seen.begin(), seen.end(), t) == seen.end()) {
            seen.push_back(t);
          }
        } else {
          core.edb_atoms.push_back(a);
        }
      }
      core.attachments = std::move(seen);
      // Needed constant outputs: dom(c) attachments.
      for (const Term& t : core.attachments) {
        if (t.is_constant()) needed_const_outputs_.insert(InternConst(t.value()));
      }
      cores_.push_back(std::move(core));
    }
    return Status::OK();
  }

  // ---- tree saturation ----------------------------------------------------

  // Builds the concrete atoms of a node with the given output and children
  // and computes its profile entries.
  Result<TreeOption> BuildOption(int rule_index, int output_const,
                                 const std::vector<ChildRef>& children) {
    // One budget step per candidate tree: saturation keeps at most one
    // option per call, so the budget bounds the option count too.
    RELCONT_RETURN_NOT_OK(BudgetChargeOr("dom_saturation"));
    const NodeRule& node = node_rules_[rule_index];
    Substitution mapping;
    if (output_const >= 0) {
      mapping.Bind(node.output_var,
                   Term::Constant(const_table_[output_const]));
    } else {
      mapping.Bind(node.output_var, Term::Var(BoundaryMarker()));
    }
    for (size_t i = 0; i < children.size(); ++i) {
      if (children[i].is_const) {
        mapping.Bind(node.guard_vars[i],
                     Term::Constant(const_table_[children[i].index]));
      } else {
        mapping.Bind(node.guard_vars[i],
                     Term::Var(ChildMarker(static_cast<int>(i))));
      }
    }
    TreeOption option;
    option.output_const = output_const;
    option.rep.rule_index = rule_index;
    option.rep.output_const = output_const;
    option.rep.children = children;
    std::vector<Atom> node_atoms;
    for (const Atom& a : node.body_edb) node_atoms.push_back(mapping.Apply(a));

    for (size_t di = 0; di < disjuncts_.size(); ++di) {
      ComputeEntries(static_cast<int>(di), node_atoms, children, &option);
    }
    for (const ProfileEntry& e : option.entries) {
      option.atom_union[e.disjunct] |= e.atoms;
    }
    return option;
  }

  SymbolId BoundaryMarker() {
    if (boundary_marker_ == kInvalidSymbol) {
      boundary_marker_ = interner_->Intern("__dom_boundary__");
    }
    return boundary_marker_;
  }
  SymbolId ChildMarker(int i) {
    while (static_cast<int>(child_markers_.size()) <= i) {
      child_markers_.push_back(interner_->Intern(
          "__dom_child" + std::to_string(child_markers_.size()) + "__"));
    }
    return child_markers_[i];
  }

  // Enumerates placements of disjunct `di`'s atoms into {outside, node,
  // child_0..k-1} and records every consistent profile entry.
  void ComputeEntries(int di, const std::vector<Atom>& node_atoms,
                      const std::vector<ChildRef>& children,
                      TreeOption* option) {
    const DisjunctInfo& d = disjuncts_[di];
    int m = static_cast<int>(d.rule.body.size());
    // Prefilters.
    std::vector<bool> can_node(m, false);
    std::vector<std::vector<bool>> can_child(children.size(),
                                             std::vector<bool>(m, false));
    for (int a = 0; a < m; ++a) {
      for (const Atom& na : node_atoms) {
        if (na.predicate == d.rule.body[a].predicate &&
            na.args.size() == d.rule.body[a].args.size()) {
          can_node[a] = true;
          break;
        }
      }
      for (size_t c = 0; c < children.size(); ++c) {
        if (children[c].is_const) continue;
        const TreeOption& child = tree_options_[children[c].index];
        auto it = child.atom_union.find(di);
        if (it != child.atom_union.end() && (it->second >> a) & 1) {
          can_child[c][a] = true;
        }
      }
    }
    std::vector<int> placement(m, -1);  // -1 outside, 0 node, 1+c child c
    PlacementRec(di, node_atoms, children, can_node, can_child, 0, &placement,
                 option);
  }

  void PlacementRec(int di, const std::vector<Atom>& node_atoms,
                    const std::vector<ChildRef>& children,
                    const std::vector<bool>& can_node,
                    const std::vector<std::vector<bool>>& can_child, int a,
                    std::vector<int>* placement, TreeOption* option) {
    const DisjunctInfo& d = disjuncts_[di];
    int m = static_cast<int>(d.rule.body.size());
    if (a == m) {
      FinishPlacement(di, node_atoms, children, *placement, option);
      return;
    }
    (*placement)[a] = -1;
    PlacementRec(di, node_atoms, children, can_node, can_child, a + 1,
                 placement, option);
    if (can_node[a]) {
      (*placement)[a] = 0;
      PlacementRec(di, node_atoms, children, can_node, can_child, a + 1,
                   placement, option);
    }
    for (size_t c = 0; c < children.size(); ++c) {
      if (!can_child[c][a]) continue;
      (*placement)[a] = 1 + static_cast<int>(c);
      PlacementRec(di, node_atoms, children, can_node, can_child, a + 1,
                   placement, option);
    }
    (*placement)[a] = -1;
  }

  void FinishPlacement(int di, const std::vector<Atom>& node_atoms,
                       const std::vector<ChildRef>& children,
                       const std::vector<int>& placement,
                       TreeOption* option) {
    const DisjunctInfo& d = disjuncts_[di];
    int m = static_cast<int>(d.rule.body.size());
    uint64_t s_mask = 0;
    std::vector<uint64_t> child_mask(children.size(), 0);
    std::vector<int> node_atoms_chosen;
    for (int a = 0; a < m; ++a) {
      if (placement[a] < 0) continue;
      s_mask |= uint64_t{1} << a;
      if (placement[a] == 0) {
        node_atoms_chosen.push_back(a);
      } else {
        child_mask[placement[a] - 1] |= uint64_t{1} << a;
      }
    }
    if (s_mask == 0) return;
    // Candidate entries per involved child.
    std::vector<std::vector<const ProfileEntry*>> child_entries;
    std::vector<int> involved_children;
    for (size_t c = 0; c < children.size(); ++c) {
      if (child_mask[c] == 0) continue;
      involved_children.push_back(static_cast<int>(c));
      const TreeOption& child = tree_options_[children[c].index];
      std::vector<const ProfileEntry*> matches;
      for (const ProfileEntry& e : child.entries) {
        if (e.disjunct == di && e.atoms == child_mask[c]) matches.push_back(&e);
      }
      if (matches.empty()) return;  // unrealizable placement
      child_entries.push_back(std::move(matches));
    }
    // Enumerate entry combinations.
    std::vector<size_t> pick(child_entries.size(), 0);
    for (;;) {
      TryEntryCombo(di, node_atoms, node_atoms_chosen, s_mask,
                    involved_children, child_entries, pick, option);
      // Advance the odometer.
      size_t i = 0;
      while (i < pick.size() && ++pick[i] == child_entries[i].size()) {
        pick[i] = 0;
        ++i;
      }
      if (i == pick.size()) break;
      if (pick.empty()) break;
    }
  }

  void TryEntryCombo(
      int di, const std::vector<Atom>& node_atoms,
      const std::vector<int>& node_atoms_chosen, uint64_t s_mask,
      const std::vector<int>& involved_children,
      const std::vector<std::vector<const ProfileEntry*>>& child_entries,
      const std::vector<size_t>& pick, TreeOption* option) {
    const DisjunctInfo& d = disjuncts_[di];
    // Seed the assignment from the chosen child entries: boundary vars of
    // child c map to the child's marker; const vars to their constants.
    Substitution seed;
    for (size_t j = 0; j < involved_children.size(); ++j) {
      const ProfileEntry& e = *child_entries[j][pick[j]];
      Term marker = Term::Var(ChildMarker(involved_children[j]));
      for (size_t v = 0; v < d.vars.size(); ++v) {
        if ((e.boundary >> v) & 1) {
          const Term* prev = seed.Find(d.vars[v]);
          if (prev != nullptr && !(*prev == marker)) return;
          seed.Bind(d.vars[v], marker);
        }
      }
      for (const auto& [v, cidx] : e.consts) {
        Term cterm = Term::Constant(const_table_[cidx]);
        const Term* prev = seed.Find(d.vars[v]);
        if (prev != nullptr && !(*prev == cterm)) return;
        seed.Bind(d.vars[v], cterm);
      }
    }
    // Backtracking hom for the node-placed atoms; each complete hom yields
    // one profile entry.
    HomRec(di, node_atoms, node_atoms_chosen, 0, &seed, s_mask, option);
  }

  void HomRec(int di, const std::vector<Atom>& node_atoms,
              const std::vector<int>& chosen, size_t idx, Substitution* subst,
              uint64_t s_mask, TreeOption* option) {
    const DisjunctInfo& d = disjuncts_[di];
    if (idx == chosen.size()) {
      EmitEntry(di, *subst, s_mask, option);
      return;
    }
    const Atom& pattern = d.rule.body[chosen[idx]];
    for (const Atom& target : node_atoms) {
      if (target.predicate != pattern.predicate ||
          target.args.size() != pattern.args.size()) {
        continue;
      }
      const size_t mark = subst->Mark();
      if (MatchAtomAgainstGround(pattern, target.args, subst)) {
        HomRec(di, node_atoms, chosen, idx + 1, subst, s_mask, option);
      }
      subst->Undo(mark);
    }
  }

  void EmitEntry(int di, const Substitution& subst, uint64_t s_mask,
                 TreeOption* option) {
    const DisjunctInfo& d = disjuncts_[di];
    ProfileEntry entry;
    entry.disjunct = di;
    entry.atoms = s_mask;
    for (size_t v = 0; v < d.vars.size(); ++v) {
      const Term* t = subst.Find(d.vars[v]);
      if (t == nullptr) continue;
      bool fully_inside =
          !d.in_head[v] && (d.occurrence[v] & ~s_mask) == 0;
      if (t->is_variable() && t->symbol() == boundary_marker_) {
        if (!fully_inside) entry.boundary |= uint64_t{1} << v;
        continue;
      }
      if (t->is_constant()) {
        if (!fully_inside) {
          entry.consts.emplace_back(static_cast<int>(v),
                                    InternConst(t->value()));
        }
        continue;
      }
      // Child marker or node-internal variable (or a function term over
      // internal variables): invisible outside, so the variable must not
      // escape the absorbed atoms.
      if (!fully_inside) return;
    }
    std::sort(entry.consts.begin(), entry.consts.end());
    option->entries.insert(std::move(entry));
  }

  // Computes the saturated set of variable-output tree types, then the
  // constant-output types the cores need. Semi-naive: a rule's child
  // combination whose tree children were all kept before the rule was last
  // enumerated was built then, and builds the same type again, so from
  // its second enumeration on a rule builds only the combinations with a
  // child kept since. The kept types, their order and the rounds are the
  // naive loop's.
  Status Saturate() {
    RELCONT_TRACE_SPAN("dom_saturate");
    std::set<const TreeOption*, ProfileLess> seen;
    // Keeps `option` if its type is new; true if kept.
    auto keep = [&](TreeOption&& option) {
      if (seen.count(&option) > 0) return false;
      RELCONT_TRACE_COUNT(kDomTreeOptions, 1);
      tree_options_.push_back(std::move(option));
      seen.insert(&tree_options_.back());
      return true;
    };
    // Per rule: the pool size when it was last enumerated (-1: never).
    std::vector<int> enumerated(node_rules_.size(), -1);
    bool changed = true;
    while (changed) {
      RELCONT_TRACE_COUNT(kDomSaturationRounds, 1);
      changed = false;
      for (size_t r = 0; r < node_rules_.size(); ++r) {
        std::vector<std::vector<ChildRef>> combos;
        int since = enumerated[r];
        enumerated[r] = static_cast<int>(tree_options_.size());
        RELCONT_RETURN_NOT_OK(ChildCombos(node_rules_[r], since, &combos));
        for (const std::vector<ChildRef>& children : combos) {
          RELCONT_ASSIGN_OR_RETURN(
              TreeOption option,
              BuildOption(static_cast<int>(r), /*output_const=*/-1, children));
          changed |= keep(std::move(option));
        }
      }
    }
    var_option_count_ = static_cast<int>(tree_options_.size());
    // Constant-output types (attachments dom(c)); children come from the
    // saturated variable-output set, so one pass suffices.
    for (int cidx : needed_const_outputs_) {
      for (size_t r = 0; r < node_rules_.size(); ++r) {
        std::vector<std::vector<ChildRef>> combos;
        RELCONT_RETURN_NOT_OK(ChildCombos(node_rules_[r], -1, &combos));
        for (const std::vector<ChildRef>& children : combos) {
          RELCONT_ASSIGN_OR_RETURN(
              TreeOption option,
              BuildOption(static_cast<int>(r), cidx, children));
          keep(std::move(option));
        }
      }
    }
    return Status::OK();
  }

  // All assignments of the rule's guards to {dom-fact constants} ∪
  // {existing variable-output tree types}, in odometer order; with `since`
  // >= 0 only those with a tree child at index `since` or later. Children
  // always come from the variable-output pool: guard resolution unifies a
  // VARIABLE with the child rule's head, so constant-output types never
  // serve as children.
  Status ChildCombos(const NodeRule& node, int since,
                     std::vector<std::vector<ChildRef>>* out) {
    std::vector<ChildRef> choices;
    for (int c : dom_fact_consts_) choices.push_back({true, c});
    int pool = var_option_count_ > 0 ? var_option_count_
                                     : static_cast<int>(tree_options_.size());
    for (int i = 0; i < pool; ++i) {
      if (tree_options_[i].output_const == -1) choices.push_back({false, i});
    }
    size_t k = node.guard_vars.size();
    // Representational guard, not an effort cap: the combinations are
    // materialized in full before any is built, so their count bounds
    // memory rather than work.
    int64_t total = 1;
    for (size_t i = 0; i < k; ++i) {
      total *= static_cast<int64_t>(choices.size());
      if (total > 100000) {
        return BoundReachedAt("dom_saturation", "child combination cap hit");
      }
    }
    std::vector<ChildRef> current(k);
    // Children at index `since` or later among the current choices.
    int recent = 0;
    std::function<void(size_t)> rec = [&](size_t i) {
      if (i == k) {
        if (since < 0 || recent > 0) out->push_back(current);
        return;
      }
      for (const ChildRef& c : choices) {
        current[i] = c;
        bool is_recent = !c.is_const && c.index >= since;
        recent += is_recent;
        rec(i + 1);
        recent -= is_recent;
      }
    };
    if (k == 0) {
      if (since < 0) out->push_back({});
    } else {
      if (choices.empty()) return Status::OK();  // no way to feed guards
      rec(0);
    }
    return Status::OK();
  }

  // ---- the ∀∃ check over cores -------------------------------------------

  Result<DomContainmentResult> CheckCores() {
    RELCONT_TRACE_SPAN("dom_check_cores");
    DomContainmentResult result;
    for (const Core& core : cores_) {
      // Option lists per attachment (OptionsFor is the single source of
      // truth; pick indices below index into the same lists).
      std::vector<std::vector<ChildRef>> option_lists;
      bool dead_core = false;
      for (const Term& t : core.attachments) {
        std::vector<ChildRef> opts = OptionsFor(t);
        if (opts.empty()) {
          dead_core = true;  // this dom subgoal can never be satisfied
          break;
        }
        option_lists.push_back(std::move(opts));
      }
      if (dead_core) continue;
      // Enumerate assignments.
      std::vector<size_t> pick(option_lists.size(), 0);
      for (;;) {
        RELCONT_TRACE_COUNT(kDomCoresChecked, 1);
        // CheckAssignment's embedding search is budget-free (so a negative
        // is always a real counterexample); the charge here makes the ∀∃
        // sweep interruptible between assignments.
        RELCONT_RETURN_NOT_OK(BudgetChargeOr("dom_check_cores"));
        RELCONT_ASSIGN_OR_RETURN(bool embeds, CheckAssignment(core, pick));
        if (!embeds) {
          result.contained = false;
          RELCONT_ASSIGN_OR_RETURN(result.counterexample,
                                   Materialize(core, pick));
          return result;
        }
        size_t i = 0;
        while (i < pick.size() && ++pick[i] == option_lists[i].size()) {
          pick[i] = 0;
          ++i;
        }
        if (i == pick.size()) break;
        if (pick.empty()) break;
      }
    }
    return result;
  }

  // Rebuilds the option list for one attachment (deterministic).
  std::vector<ChildRef> OptionsFor(const Term& t) {
    std::vector<ChildRef> opts;
    if (t.is_variable()) {
      for (int c : dom_fact_consts_) opts.push_back(ChildRef{true, c});
      for (int i = 0; i < static_cast<int>(tree_options_.size()); ++i) {
        if (tree_options_[i].output_const == -1) {
          opts.push_back(ChildRef{false, i});
        }
      }
    } else if (t.is_constant()) {
      int cidx = InternConst(t.value());
      if (dom_fact_consts_.count(cidx) > 0) {
        opts.push_back(ChildRef{true, cidx});
      }
      for (int i = 0; i < static_cast<int>(tree_options_.size()); ++i) {
        if (tree_options_[i].output_const == cidx) {
          opts.push_back(ChildRef{false, i});
        }
      }
    } else {
      for (int i = 0; i < static_cast<int>(tree_options_.size()); ++i) {
        if (tree_options_[i].output_const == -1) {
          opts.push_back(ChildRef{false, i});
        }
      }
    }
    return opts;
  }

  // Applies ConstLeaf substitutions of an assignment to the core and
  // returns (effective atoms, effective head, live trees).
  struct EffectiveCore {
    std::vector<Atom> atoms;
    Atom head;
    // (attachment term after substitution, tree option index)
    std::vector<std::pair<Term, int>> trees;
  };

  EffectiveCore BuildEffectiveCore(const Core& core,
                                   const std::vector<size_t>& pick) {
    Substitution leaf_subst;
    std::vector<std::pair<const Term*, int>> trees_raw;
    for (size_t i = 0; i < core.attachments.size(); ++i) {
      const Term& t = core.attachments[i];
      std::vector<ChildRef> opts = OptionsFor(t);
      const ChildRef& chosen = opts[pick[i]];
      if (chosen.is_const) {
        if (t.is_variable()) {
          leaf_subst.Bind(t.symbol(),
                          Term::Constant(const_table_[chosen.index]));
        }
        // Constant attachments resolved by facts contribute nothing.
      } else {
        trees_raw.emplace_back(&t, chosen.index);
      }
    }
    EffectiveCore out;
    for (const Atom& a : core.edb_atoms) out.atoms.push_back(leaf_subst.Apply(a));
    out.head = leaf_subst.Apply(core.unfolded.head);
    for (const auto& [t, idx] : trees_raw) {
      out.trees.emplace_back(leaf_subst.Apply(*t), idx);
    }
    return out;
  }

  Result<bool> CheckAssignment(const Core& core,
                               const std::vector<size_t>& pick) {
    EffectiveCore eff = BuildEffectiveCore(core, pick);
    for (size_t di = 0; di < disjuncts_.size(); ++di) {
      if (EmbedsDisjunct(static_cast<int>(di), eff)) return true;
    }
    return false;
  }

  bool EmbedsDisjunct(int di, const EffectiveCore& eff) {
    const DisjunctInfo& d = disjuncts_[di];
    if (d.rule.head.arity() != eff.head.arity()) return false;
    int m = static_cast<int>(d.rule.body.size());
    // Placement prefilters.
    std::vector<bool> can_core(m, false);
    std::vector<std::vector<bool>> can_tree(eff.trees.size(),
                                            std::vector<bool>(m, false));
    for (int a = 0; a < m; ++a) {
      for (const Atom& ca : eff.atoms) {
        if (ca.predicate == d.rule.body[a].predicate &&
            ca.args.size() == d.rule.body[a].args.size()) {
          can_core[a] = true;
          break;
        }
      }
      for (size_t t = 0; t < eff.trees.size(); ++t) {
        const TreeOption& opt = tree_options_[eff.trees[t].second];
        auto it = opt.atom_union.find(di);
        if (it != opt.atom_union.end() && (it->second >> a) & 1) {
          can_tree[t][a] = true;
        }
      }
    }
    std::vector<int> placement(m, 0);  // 0 core, 1+t tree t
    return PlaceAndEmbed(di, eff, can_core, can_tree, 0, &placement);
  }

  bool PlaceAndEmbed(int di, const EffectiveCore& eff,
                     const std::vector<bool>& can_core,
                     const std::vector<std::vector<bool>>& can_tree, int a,
                     std::vector<int>* placement) {
    const DisjunctInfo& d = disjuncts_[di];
    int m = static_cast<int>(d.rule.body.size());
    if (a == m) return TryPlacement(di, eff, *placement);
    if (can_core[a]) {
      (*placement)[a] = 0;
      if (PlaceAndEmbed(di, eff, can_core, can_tree, a + 1, placement)) {
        return true;
      }
    }
    for (size_t t = 0; t < eff.trees.size(); ++t) {
      if (!can_tree[t][a]) continue;
      (*placement)[a] = 1 + static_cast<int>(t);
      if (PlaceAndEmbed(di, eff, can_core, can_tree, a + 1, placement)) {
        return true;
      }
    }
    return false;
  }

  bool TryPlacement(int di, const EffectiveCore& eff,
                    const std::vector<int>& placement) {
    const DisjunctInfo& d = disjuncts_[di];
    int m = static_cast<int>(d.rule.body.size());
    std::vector<int> core_atoms;
    std::vector<uint64_t> tree_mask(eff.trees.size(), 0);
    for (int a = 0; a < m; ++a) {
      if (placement[a] == 0) {
        core_atoms.push_back(a);
      } else {
        tree_mask[placement[a] - 1] |= uint64_t{1} << a;
      }
    }
    // Candidate entries per involved tree.
    std::vector<std::vector<const ProfileEntry*>> tree_entries;
    std::vector<int> involved;
    for (size_t t = 0; t < eff.trees.size(); ++t) {
      if (tree_mask[t] == 0) continue;
      involved.push_back(static_cast<int>(t));
      const TreeOption& opt = tree_options_[eff.trees[t].second];
      std::vector<const ProfileEntry*> matches;
      for (const ProfileEntry& e : opt.entries) {
        if (e.disjunct == di && e.atoms == tree_mask[t]) matches.push_back(&e);
      }
      if (matches.empty()) return false;
      tree_entries.push_back(std::move(matches));
    }
    std::vector<size_t> pick(tree_entries.size(), 0);
    for (;;) {
      if (TryEntryComboAtCore(di, eff, core_atoms, involved, tree_entries,
                              pick)) {
        return true;
      }
      size_t i = 0;
      while (i < pick.size() && ++pick[i] == tree_entries[i].size()) {
        pick[i] = 0;
        ++i;
      }
      if (i == pick.size() || pick.empty()) break;
    }
    return false;
  }

  bool TryEntryComboAtCore(
      int di, const EffectiveCore& eff, const std::vector<int>& core_atoms,
      const std::vector<int>& involved,
      const std::vector<std::vector<const ProfileEntry*>>& tree_entries,
      const std::vector<size_t>& pick) {
    const DisjunctInfo& d = disjuncts_[di];
    Substitution subst;
    for (size_t j = 0; j < involved.size(); ++j) {
      const ProfileEntry& e = *tree_entries[j][pick[j]];
      const Term& attachment = eff.trees[involved[j]].first;
      for (size_t v = 0; v < d.vars.size(); ++v) {
        if ((e.boundary >> v) & 1) {
          const Term* prev = subst.Find(d.vars[v]);
          if (prev != nullptr && !(*prev == attachment)) return false;
          subst.Bind(d.vars[v], attachment);
        }
      }
      for (const auto& [v, cidx] : e.consts) {
        Term cterm = Term::Constant(const_table_[cidx]);
        const Term* prev = subst.Find(d.vars[v]);
        if (prev != nullptr && !(*prev == cterm)) return false;
        subst.Bind(d.vars[v], cterm);
      }
    }
    // Head match.
    if (d.rule.head.arity() != eff.head.arity()) return false;
    for (int i = 0; i < d.rule.head.arity(); ++i) {
      if (!MatchTermAgainstGround(d.rule.head.args[i], eff.head.args[i],
                                  &subst)) {
        return false;
      }
    }
    return CoreHomRec(di, eff, core_atoms, 0, &subst);
  }

  bool CoreHomRec(int di, const EffectiveCore& eff,
                  const std::vector<int>& core_atoms, size_t idx,
                  Substitution* subst) {
    const DisjunctInfo& d = disjuncts_[di];
    if (idx == core_atoms.size()) return true;
    const Atom& pattern = d.rule.body[core_atoms[idx]];
    for (const Atom& target : eff.atoms) {
      if (target.predicate != pattern.predicate ||
          target.args.size() != pattern.args.size()) {
        continue;
      }
      const size_t mark = subst->Mark();
      if (MatchAtomAgainstGround(pattern, target.args, subst) &&
          CoreHomRec(di, eff, core_atoms, idx + 1, subst)) {
        return true;
      }
      subst->Undo(mark);
    }
    return false;
  }

  // ---- witness materialization --------------------------------------------

  Result<Rule> Materialize(const Core& core, const std::vector<size_t>& pick) {
    Substitution subst;
    std::vector<Atom> atoms;
    // Leaf substitutions and tree expansions.
    for (size_t i = 0; i < core.attachments.size(); ++i) {
      const Term& t = core.attachments[i];
      std::vector<ChildRef> opts = OptionsFor(t);
      const ChildRef& chosen = opts[pick[i]];
      if (chosen.is_const) {
        if (t.is_variable()) {
          subst.Bind(t.symbol(), Term::Constant(const_table_[chosen.index]));
        }
      } else {
        RELCONT_RETURN_NOT_OK(MaterializeTree(
            tree_options_[chosen.index].rep, t, &subst, &atoms));
      }
    }
    Rule out;
    out.head = subst.Apply(core.unfolded.head);
    for (const Atom& a : core.edb_atoms) out.body.push_back(subst.Apply(a));
    for (const Atom& a : atoms) out.body.push_back(subst.Apply(a));
    return out;
  }

  Status MaterializeTree(const TreeRep& rep, const Term& attachment,
                         Substitution* subst, std::vector<Atom>* atoms) {
    // A fresh copy of the node rule.
    const DomNodeRule& node = *node_rules_[rep.rule_index].numbered;
    SymbolId first = interner_->FreshBlock("_R", node.num_vars);
    if (!UnifyTerms(Term::Var(first + node.output), attachment, subst)) {
      return Status::Internal("tree output failed to unify with attachment");
    }
    for (size_t i = 0; i < rep.children.size() && i < node.guards.size();
         ++i) {
      SymbolId guard = first + node.guards[i];
      if (rep.children[i].is_const) {
        if (!UnifyTerms(Term::Var(guard),
                        Term::Constant(const_table_[rep.children[i].index]),
                        subst)) {
          return Status::Internal("guard failed to unify with constant");
        }
      } else {
        RELCONT_RETURN_NOT_OK(
            MaterializeTree(tree_options_[rep.children[i].index].rep,
                            Term::Var(guard), subst, atoms));
      }
    }
    for (const Atom& a : node.body_edb) {
      atoms->push_back(InstantiateNumbered(a, first));
    }
    return Status::OK();
  }

  // ---- state ------------------------------------------------------------

  SymbolId goal_;
  SymbolId dom_;
  Interner* interner_;
  const DomProgram& program_;
  Resolver rest_;
  const UnionQuery& q2_;

  std::vector<NodeRule> node_rules_;
  std::set<int> dom_fact_consts_;
  std::vector<Value> const_table_;
  std::vector<DisjunctInfo> disjuncts_;
  std::vector<Core> cores_;
  std::set<int> needed_const_outputs_;
  // A deque: kept types stay put, so Saturate can index them by address.
  std::deque<TreeOption> tree_options_;
  int var_option_count_ = 0;
  SymbolId boundary_marker_ = kInvalidSymbol;
  std::vector<SymbolId> child_markers_;
};

}  // namespace

Status CheckDisjunctSizes(const UnionQuery& q) {
  for (const Rule& d : q.disjuncts) {
    if (static_cast<int>(d.body.size()) > kMaxDisjunctSize ||
        static_cast<int>(d.Variables().size()) > kMaxDisjunctSize) {
      return Status::Unsupported(
          "UCQ disjunct has more than " + std::to_string(kMaxDisjunctSize) +
          " atoms or variables (bitmask representation)");
    }
  }
  return Status::OK();
}

Result<DomContainmentResult> DomProgramContainedInUcq(
    const DomProgram& program, SymbolId goal, SymbolId dom_pred,
    const UnionQuery& q2, Interner* interner) {
  RELCONT_TRACE_SPAN("dom_containment");
  return DomDecider(program, goal, dom_pred, q2, interner).Run();
}

namespace {

// Checks the node shape of `rule` (a unary `dom` head over a variable;
// unary dom guards over variables or constants, none over the head
// variable; no comparisons) and numbers it; kUnsupported otherwise.
Result<DomNodeRule> AnalyzeNodeRule(const Rule& rule, SymbolId dom) {
  if (!rule.comparisons.empty()) {
    return Status::Unsupported("program must be comparison-free");
  }
  if (rule.head.predicate != dom || rule.head.arity() != 1) {
    return Status::Unsupported("dom predicate must be unary");
  }
  const Term& head_arg = rule.head.args[0];
  if (!head_arg.is_variable()) {
    return Status::Unsupported("dom rule heads must be variables");
  }
  NumberedRule numbered(rule);
  DomNodeRule out;
  out.num_vars = numbered.num_vars();
  out.output = 0;  // the head variable occurs first
  std::vector<bool> guarded(out.num_vars, false);
  for (size_t i = 0; i < rule.body.size(); ++i) {
    const Atom& a = rule.body[i];
    if (a.predicate != dom) {
      out.body_edb.push_back(numbered.body()[i]);
      continue;
    }
    if (a.arity() != 1) {
      return Status::Unsupported("dom predicate must be unary");
    }
    const Term& arg = a.args[0];
    if (arg.is_constant()) {
      out.constant_guards.push_back(arg.value());
      continue;
    }
    if (!arg.is_variable()) {
      return Status::Unsupported("dom guards must be variables");
    }
    if (arg.symbol() == head_arg.symbol()) {
      return Status::Unsupported("dom rule output guarded by itself");
    }
    int32_t v = numbered.body()[i].args[0].symbol();
    if (!guarded[v]) {
      guarded[v] = true;
      out.guards.push_back(v);
    }
  }
  return out;
}

}  // namespace

Result<DomContainmentResult> DomPlanContainedInUcq(
    const Program& program, SymbolId goal, SymbolId dom_pred,
    const UnionQuery& q2, Interner* interner) {
  RELCONT_RETURN_NOT_OK(program.CheckSafe());
  // Split the program into dom facts, dom node rules, and the rest.
  std::vector<Rule> rest;
  std::vector<DomNodeRule> nodes;
  DomProgram split;
  for (const Rule& r : program.rules) {
    if (!r.comparisons.empty()) {
      return Status::Unsupported("program must be comparison-free");
    }
    if (r.head.predicate != dom_pred) {
      rest.push_back(r);
      continue;
    }
    if (r.head.arity() != 1) {
      return Status::Unsupported("dom predicate must be unary");
    }
    if (r.body.empty()) {
      if (!r.head.args[0].is_constant()) {
        return Status::Unsupported("dom facts must be constants");
      }
      split.facts.push_back(r.head.args[0].value());
      split.constants.push_back(r.head.args[0].value());
      continue;
    }
    RELCONT_ASSIGN_OR_RETURN(DomNodeRule node,
                             AnalyzeNodeRule(r, dom_pred));
    for (const Value& c : node.constant_guards) {
      // A constant guard is only tractable when a dom fact satisfies it.
      split.constants.push_back(c);
      if (std::ranges::find(split.facts, c) == split.facts.end()) {
        return Status::Unsupported(
            "constant dom guard without a matching dom fact");
      }
    }
    nodes.push_back(std::move(node));
  }
  std::vector<Value> constants = program.Constants();
  split.constants.insert(split.constants.end(), constants.begin(),
                         constants.end());
  split.rest = rest;
  split.nodes = nodes;
  return DomProgramContainedInUcq(split, goal, dom_pred, q2, interner);
}

}  // namespace relcont

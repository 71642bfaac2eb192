#include "datalog/substitution.h"

#include <algorithm>

namespace relcont {

const Term* Substitution::Find(SymbolId var) const {
  const Window& w = WindowOf(var);
  // Ids below the window wrap to large offsets.
  uint32_t offset = static_cast<uint32_t>(var - w.lo);
  if (offset >= w.at.size() || w.at[offset] == 0) return nullptr;
  return &trail_[w.at[offset] - 1].term;
}

int32_t& Substitution::Cell(SymbolId var) {
  Window& w = windows_[var >= Interner::kFreshBase ? 1 : 0];
  const int64_t size = static_cast<int64_t>(w.at.size());
  if (size == 0) {
    w.lo = var;
    w.at.assign(1, 0);
  } else if (var < w.lo) {
    // Grow down by at least the current size, not below the range's floor.
    const int64_t floor = var >= Interner::kFreshBase ? Interner::kFreshBase
                                                      : 0;
    const SymbolId lo =
        static_cast<SymbolId>(std::max(floor, std::min<int64_t>(
                                                  var, w.lo - size)));
    w.at.insert(w.at.begin(), static_cast<size_t>(w.lo - lo), 0);
    w.lo = lo;
  } else if (var - w.lo >= size) {
    w.at.resize(static_cast<size_t>(std::max<int64_t>(var - w.lo + 1,
                                                      2 * size)),
                0);
  }
  return w.at[var - w.lo];
}

void Substitution::Bind(SymbolId var, Term term) {
  int32_t& cell = Cell(var);
  if (cell == 0) ++size_;
  if (trail_.capacity() == 0) trail_.reserve(16);
  trail_.push_back({var, cell, std::move(term)});
  cell = static_cast<int32_t>(trail_.size());
}

void Substitution::Undo(size_t mark) {
  while (trail_.size() > mark) {
    const Entry& e = trail_.back();
    Window& w = windows_[e.var >= Interner::kFreshBase ? 1 : 0];
    w.at[e.var - w.lo] = e.shadowed;
    if (e.shadowed == 0) --size_;
    trail_.pop_back();
  }
}

namespace {

// Function term `t` with each argument mapped by `f`.
template <typename F>
Term MapArgs(const Term& t, F f) {
  std::vector<Term> args;
  args.reserve(t.args().size());
  for (const Term& a : t.args()) args.push_back(f(a));
  return Term::Function(t.symbol(), std::move(args));
}

template <typename F>
Atom MapAtom(const Atom& a, F f) {
  Atom out;
  out.predicate = a.predicate;
  out.args.reserve(a.args.size());
  for (const Term& t : a.args) out.args.push_back(f(t));
  return out;
}

template <typename F>
Rule MapRule(const Rule& r, F f) {
  Rule out;
  out.head = MapAtom(r.head, f);
  out.body.reserve(r.body.size());
  for (const Atom& a : r.body) out.body.push_back(MapAtom(a, f));
  out.comparisons.reserve(r.comparisons.size());
  for (const Comparison& c : r.comparisons) {
    out.comparisons.emplace_back(f(c.lhs), c.op, f(c.rhs));
  }
  return out;
}

}  // namespace

bool Substitution::Touches(const Term& t) const {
  switch (t.kind()) {
    case Term::Kind::kVariable:
      return Find(t.symbol()) != nullptr;
    case Term::Kind::kConstant:
      return false;
    case Term::Kind::kFunction:
      return std::any_of(t.args().begin(), t.args().end(),
                         [this](const Term& a) { return Touches(a); });
  }
  return false;
}

Term Substitution::Apply(const Term& t) const {
  switch (t.kind()) {
    case Term::Kind::kConstant:
      return t;
    case Term::Kind::kVariable: {
      // Follow chains var -> var -> term created during unification, in a
      // loop: the unfold driver's trail links one variable per resolution
      // step, so a long chain query builds chains thousands of links long.
      const Term* cur = &t;
      while (const Term* bound = Find(cur->symbol())) {
        if (bound->is_function()) return Apply(*bound);
        if (!bound->is_variable() || bound->symbol() == cur->symbol()) {
          return *bound;
        }
        cur = bound;
      }
      return *cur;
    }
    case Term::Kind::kFunction:
      if (!Touches(t)) return t;
      return MapArgs(t, [this](const Term& a) { return Apply(a); });
  }
  return t;
}

Atom Substitution::Apply(const Atom& a) const {
  return MapAtom(a, [this](const Term& t) { return Apply(t); });
}

Comparison Substitution::Apply(const Comparison& c) const {
  return Comparison(Apply(c.lhs), c.op, Apply(c.rhs));
}

Rule Substitution::Apply(const Rule& r) const {
  return MapRule(r, [this](const Term& t) { return Apply(t); });
}

Term Substitution::ApplyOnce(const Term& t) const {
  switch (t.kind()) {
    case Term::Kind::kConstant:
      return t;
    case Term::Kind::kVariable: {
      const Term* bound = Find(t.symbol());
      return bound == nullptr ? t : *bound;
    }
    case Term::Kind::kFunction:
      if (!Touches(t)) return t;
      return MapArgs(t, [this](const Term& a) { return ApplyOnce(a); });
  }
  return t;
}

Atom Substitution::ApplyOnce(const Atom& a) const {
  return MapAtom(a, [this](const Term& t) { return ApplyOnce(t); });
}

Comparison Substitution::ApplyOnce(const Comparison& c) const {
  return Comparison(ApplyOnce(c.lhs), c.op, ApplyOnce(c.rhs));
}

Rule Substitution::ApplyOnce(const Rule& r) const {
  return MapRule(r, [this](const Term& t) { return ApplyOnce(t); });
}

namespace {

// Resolves `t` through the substitution until it is not a bound variable.
const Term& Walk(const Term& t, const Substitution& subst) {
  const Term* cur = &t;
  while (cur->is_variable()) {
    const Term* next = subst.Find(cur->symbol());
    if (next == nullptr) break;
    cur = next;
  }
  return *cur;
}

bool OccursIn(SymbolId var, const Term& t, const Substitution& subst) {
  const Term& w = Walk(t, subst);
  switch (w.kind()) {
    case Term::Kind::kVariable:
      return w.symbol() == var;
    case Term::Kind::kConstant:
      return false;
    case Term::Kind::kFunction:
      for (const Term& a : w.args()) {
        if (OccursIn(var, a, subst)) return true;
      }
      return false;
  }
  return false;
}

}  // namespace

bool UnifyTerms(const Term& a, const Term& b, Substitution* subst,
                SymbolId first_bindable) {
  const Term& x = Walk(a, *subst);
  const Term& y = Walk(b, *subst);
  if (x.is_variable() && y.is_variable() && x.symbol() == y.symbol()) {
    return true;
  }
  if (x.is_variable() && x.symbol() >= first_bindable) {
    if (OccursIn(x.symbol(), y, *subst)) return false;
    subst->Bind(x.symbol(), y);
    return true;
  }
  if (y.is_variable() && y.symbol() >= first_bindable) {
    if (OccursIn(y.symbol(), x, *subst)) return false;
    subst->Bind(y.symbol(), x);
    return true;
  }
  // A rigid variable equals nothing but itself.
  if (x.is_variable() || y.is_variable()) return false;
  if (x.is_constant() && y.is_constant()) return x.value() == y.value();
  if (x.is_function() && y.is_function()) {
    if (x.symbol() != y.symbol() || x.args().size() != y.args().size()) {
      return false;
    }
    // Copies: a Bind below may move the store's terms that x and y are.
    const Term xf = x;
    const Term yf = y;
    for (size_t i = 0; i < xf.args().size(); ++i) {
      if (!UnifyTerms(xf.args()[i], yf.args()[i], subst, first_bindable)) {
        return false;
      }
    }
    return true;
  }
  return false;  // constant vs function
}

bool UnifyAtoms(const Atom& a, const Atom& b, Substitution* subst,
                SymbolId first_bindable) {
  if (a.predicate != b.predicate || a.args.size() != b.args.size()) {
    return false;
  }
  for (size_t i = 0; i < a.args.size(); ++i) {
    if (!UnifyTerms(a.args[i], b.args[i], subst, first_bindable)) {
      return false;
    }
  }
  return true;
}

bool MatchTermAgainstGround(const Term& pattern, const Term& ground,
                            Substitution* subst) {
  switch (pattern.kind()) {
    case Term::Kind::kConstant:
      return ground.is_constant() && pattern.value() == ground.value();
    case Term::Kind::kVariable: {
      const Term* bound = subst->Find(pattern.symbol());
      if (bound != nullptr) return *bound == ground;
      subst->Bind(pattern.symbol(), ground);
      return true;
    }
    case Term::Kind::kFunction: {
      if (!ground.is_function() || ground.symbol() != pattern.symbol() ||
          ground.args().size() != pattern.args().size()) {
        return false;
      }
      for (size_t i = 0; i < pattern.args().size(); ++i) {
        if (!MatchTermAgainstGround(pattern.args()[i], ground.args()[i],
                                    subst)) {
          return false;
        }
      }
      return true;
    }
  }
  return false;
}

bool MatchAtomAgainstGround(const Atom& pattern,
                            const std::vector<Term>& tuple,
                            Substitution* subst) {
  if (pattern.args.size() != tuple.size()) return false;
  for (size_t i = 0; i < pattern.args.size(); ++i) {
    if (!MatchTermAgainstGround(pattern.args[i], tuple[i], subst)) {
      return false;
    }
  }
  return true;
}

namespace {

// A numbered-rule term with variable i renamed to `first` + i.
Term Renamed(const Term& t, SymbolId first) {
  switch (t.kind()) {
    case Term::Kind::kVariable:
      return Term::Var(first + t.symbol());
    case Term::Kind::kConstant:
      return t;
    case Term::Kind::kFunction:
      return MapArgs(t, [first](const Term& a) { return Renamed(a, first); });
  }
  return t;
}

}  // namespace

NumberedRule::NumberedRule(const Rule& rule) {
  std::vector<SymbolId> vars = rule.Variables();
  num_vars_ = static_cast<int32_t>(vars.size());
  Substitution numbering;
  for (size_t i = 0; i < vars.size(); ++i) {
    numbering.Bind(vars[i], Term::Var(static_cast<SymbolId>(i)));
  }
  rule_ = numbering.ApplyOnce(rule);
}

NumberedRule::NumberedRule(const Rule& rule, std::span<const SymbolId> order)
    : num_vars_(static_cast<int32_t>(order.size())) {
  Substitution numbering;
  for (size_t i = 0; i < order.size(); ++i) {
    numbering.Bind(order[i], Term::Var(static_cast<SymbolId>(i)));
  }
  rule_ = numbering.ApplyOnce(rule);
}

Rule NumberedRule::RenameApart(Interner* interner) const {
  return Instantiate(interner->FreshBlock("_R", num_vars_));
}

Rule NumberedRule::Instantiate(SymbolId first) const {
  return MapRule(rule_, [first](const Term& t) { return Renamed(t, first); });
}

Atom InstantiateNumbered(const Atom& numbered, SymbolId first) {
  return MapAtom(numbered, [first](const Term& t) { return Renamed(t, first); });
}

Term InstantiateNumbered(const Term& numbered, SymbolId first) {
  return Renamed(numbered, first);
}

Rule RenameApart(const Rule& rule, Interner* interner) {
  return NumberedRule(rule).RenameApart(interner);
}

}  // namespace relcont

#ifndef RELCONT_DATALOG_SUBSTITUTION_H_
#define RELCONT_DATALOG_SUBSTITUTION_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "datalog/program.h"

namespace relcont {

/// The binding store: a mapping from variables to terms, applied
/// simultaneously, with a trail for undo.
///
/// Bindings are indexed by variable id, not hashed: one dense window over
/// the named ids and one over the fresh ids (Interner::kFreshBase), each
/// spanning the ids bound so far. Every Bind appends to the trail, and
/// Undo(mark) pops back to an earlier Mark(), so a search extends one store
/// in place and retracts a failed branch instead of copying the store.
class Substitution {
 public:
  Substitution() = default;

  /// Binds `var` to `term`, overwriting any previous binding (which an Undo
  /// past this Bind restores).
  void Bind(SymbolId var, Term term);

  /// The binding of `var`, or nullptr. Valid until the next Bind or Undo.
  const Term* Find(SymbolId var) const;

  bool Contains(SymbolId var) const { return Find(var) != nullptr; }
  bool empty() const { return size_ == 0; }
  /// Number of bound variables.
  size_t size() const { return size_; }

  /// The current trail position, to Undo back to.
  size_t Mark() const { return trail_.size(); }
  /// Retracts every Bind made since `mark`. Marks nest: undo the innermost
  /// outstanding one first.
  void Undo(size_t mark);

  /// Applies the substitution to a term / atom / comparison / rule.
  /// Application recurses through function terms and is repeated until
  /// fixpoint on the *result* of a lookup (i.e. bindings may map variables
  /// to terms containing other bound variables, as produced by unification).
  /// Only safe for idempotent-after-chasing substitutions such as the ones
  /// unification builds; for containment mappings use ApplyOnce.
  Term Apply(const Term& t) const;
  Atom Apply(const Atom& a) const;
  Comparison Apply(const Comparison& c) const;
  Rule Apply(const Rule& r) const;

  /// Single-step application: each variable is replaced by its binding
  /// verbatim, with no chasing. This is the right semantics for
  /// containment mappings (homomorphisms), whose domain and range may
  /// share variable names — e.g. {X -> Y, Y -> X} — where chasing would
  /// not terminate.
  Term ApplyOnce(const Term& t) const;
  Atom ApplyOnce(const Atom& a) const;
  Comparison ApplyOnce(const Comparison& c) const;
  Rule ApplyOnce(const Rule& r) const;

 private:
  struct Entry {
    SymbolId var;
    int32_t shadowed;  // the binding this one overwrote, as in Window::at
    Term term;
  };
  /// at[v - lo] is 1 + the trail index of v's live binding, or 0.
  struct Window {
    SymbolId lo = 0;
    std::vector<int32_t> at;
  };

  const Window& WindowOf(SymbolId var) const {
    return windows_[var >= Interner::kFreshBase ? 1 : 0];
  }
  /// The window cell of `var`, growing the window to cover it.
  int32_t& Cell(SymbolId var);
  /// True iff some variable of `t` is bound.
  bool Touches(const Term& t) const;

  Window windows_[2];
  std::vector<Entry> trail_;
  size_t size_ = 0;
};

/// Computes the most general unifier of `a` and `b` (with occurs check),
/// extending `subst` in place. Variables with ids below `first_bindable`
/// are rigid: each unifies only with itself, like a distinct constant. The
/// CEGAR cover search passes the first id of its right-hand templates so
/// the candidate instance's variables stay frozen; every other caller
/// leaves all variables bindable. Returns false if unification fails; on
/// failure `subst` may be partially extended, so Undo to a Mark taken
/// before the call.
bool UnifyTerms(const Term& a, const Term& b, Substitution* subst,
                SymbolId first_bindable = 0);

/// Unifies two atoms (same predicate and arity required).
bool UnifyAtoms(const Atom& a, const Atom& b, Substitution* subst,
                SymbolId first_bindable = 0);

/// A rule with its k distinct variables numbered 0..k-1 in first-occurrence
/// order (head, then body, then comparisons); each variable occurrence
/// holds its number where a symbol would be. Renaming it apart mints one
/// block of k fresh ids and offsets each occurrence by the block's first
/// id: no map, and no variable scan per copy. Build one per rule that a
/// search renames apart repeatedly.
class NumberedRule {
 public:
  explicit NumberedRule(const Rule& rule);
  /// Numbers `rule`'s variables by their position in `order`, which lists
  /// every variable of the rule once (e.g. a view's variables, so that
  /// rules built from one view share its numbering).
  NumberedRule(const Rule& rule, std::span<const SymbolId> order);

  int32_t num_vars() const { return num_vars_; }
  /// The head, body atoms and comparisons, variables numbered: read them
  /// through InstantiateNumbered (or for their predicates alone).
  const Atom& head() const { return rule_.head; }
  const std::vector<Atom>& body() const { return rule_.body; }
  const std::vector<Comparison>& comparisons() const {
    return rule_.comparisons;
  }

  /// A copy whose variables are fresh "_R" symbols: the names k
  /// Interner::Fresh("_R") calls would give, in first-occurrence order.
  Rule RenameApart(Interner* interner) const;
  /// The copy with variable i renamed to `first` + i, for a block of
  /// num_vars() fresh ids minted by the caller.
  Rule Instantiate(SymbolId first) const;

 private:
  Rule rule_;
  int32_t num_vars_ = 0;
};

/// `numbered` (an atom whose variables hold numbers, as in NumberedRule)
/// with variable i renamed to `first` + i.
Atom InstantiateNumbered(const Atom& numbered, SymbolId first);
Term InstantiateNumbered(const Term& numbered, SymbolId first);

/// Renames every variable of `rule` to a fresh variable from `interner`,
/// making it variable-disjoint from everything interned so far.
Rule RenameApart(const Rule& rule, Interner* interner);

/// One-way matching of a rule term pattern against a target term,
/// extending `subst`. Unlike unification the target contributes no
/// variables: a variable in it is an opaque symbol (a frozen variable), so
/// this is the step of both evaluation and containment-mapping search.
bool MatchTermAgainstGround(const Term& pattern, const Term& ground,
                            Substitution* subst);

/// Matches an atom's arguments against a tuple of the same arity.
bool MatchAtomAgainstGround(const Atom& pattern,
                            const std::vector<Term>& tuple,
                            Substitution* subst);

}  // namespace relcont

#endif  // RELCONT_DATALOG_SUBSTITUTION_H_

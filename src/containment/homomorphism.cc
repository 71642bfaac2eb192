#include "containment/homomorphism.h"

#include <algorithm>

#include "common/budget.h"
#include "trace/trace.h"

namespace relcont {

namespace {

// Search statistics accumulated on the stack during one mapping search and
// counted once at the end — the innermost loop never touches thread-local
// state.
struct SearchStats {
  uint64_t candidates = 0;
  uint64_t backtracks = 0;
  uint64_t found = 0;
};

// Matches a body atom: variables of `from` are match variables, variables
// of `to` are opaque, frozen symbols.
bool MatchAtomFrozen(const Atom& pattern, const Atom& target,
                     Substitution* subst) {
  return pattern.predicate == target.predicate &&
         MatchAtomAgainstGround(pattern, target.args, subst);
}

bool Backtrack(const Rule& from, const Rule& to,
               const std::vector<int>& order, size_t depth,
               Substitution* subst,
               const std::function<bool(const Substitution&)>& visit,
               SearchStats* stats, WorkBudget* budget) {
  // One budget step per search node. On exhaustion the search unwinds
  // reporting "not found"; callers must treat that negative as
  // inconclusive (the BudgetOkOrBound idiom) — a visited mapping is still
  // a real mapping.
  if (budget != nullptr && !budget->Charge(1)) return false;
  if (depth == order.size()) {
    ++stats->found;
    return visit(*subst);
  }
  const Atom& pattern = from.body[order[depth]];
  for (const Atom& candidate : to.body) {
    ++stats->candidates;
    const size_t mark = subst->Mark();
    if (MatchAtomFrozen(pattern, candidate, subst)) {
      if (Backtrack(from, to, order, depth + 1, subst, visit, stats,
                    budget)) {
        return true;
      }
      ++stats->backtracks;
    }
    subst->Undo(mark);
  }
  return false;
}

}  // namespace

bool ForEachContainmentMapping(
    const Rule& from, const Rule& to,
    const std::function<bool(const Substitution&)>& visit) {
  RELCONT_TRACE_COUNT(kHomMappingCalls, 1);
  Substitution subst;
  // Heads match positionally; the head predicate symbol is ignored.
  if (!MatchAtomAgainstGround(from.head, to.head.args, &subst)) return false;
  // Visit atoms with fewer candidate targets first; this prunes early.
  std::vector<int> order(from.body.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  std::vector<int> candidates(from.body.size(), 0);
  for (size_t i = 0; i < from.body.size(); ++i) {
    for (const Atom& a : to.body) {
      if (a.predicate == from.body[i].predicate &&
          a.args.size() == from.body[i].args.size()) {
        ++candidates[i];
      }
    }
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](int a, int b) { return candidates[a] < candidates[b]; });
  SearchStats stats;
  bool result =
      Backtrack(from, to, order, 0, &subst, visit, &stats, CurrentBudget());
  RELCONT_TRACE_COUNT(kHomCandidatesTried, stats.candidates);
  RELCONT_TRACE_COUNT(kHomBacktracks, stats.backtracks);
  RELCONT_TRACE_COUNT(kHomMappingsFound, stats.found);
  return result;
}

std::optional<Substitution> FindContainmentMapping(const Rule& from,
                                                   const Rule& to) {
  std::optional<Substitution> found;
  ForEachContainmentMapping(from, to, [&](const Substitution& h) {
    found = h;
    return true;
  });
  return found;
}

}  // namespace relcont

#include "relcont/certain_answers.h"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_set>

#include "datalog/substitution.h"
#include "rewriting/comparison_plans.h"

namespace relcont {

Result<std::vector<Tuple>> CertainAnswers(const Program& query, SymbolId goal,
                                          const ViewSet& views,
                                          const Database& instance,
                                          Interner* interner) {
  RELCONT_ASSIGN_OR_RETURN(Program plan,
                           MaximallyContainedPlan(query, views, interner));
  return EvaluateGoal(plan, goal, instance);
}

Result<ProvenanceResult> CertainAnswersWithProvenance(
    const Program& query, SymbolId goal, const ViewSet& views,
    const Database& instance, Interner* interner) {
  ProvenanceResult out;
  RELCONT_ASSIGN_OR_RETURN(out.plan,
                           UnionPlan(query, goal, views, interner));
  std::map<Tuple, int> index_of;  // answer -> position in out.answers
  for (size_t d = 0; d < out.plan.disjuncts.size(); ++d) {
    Program single;
    single.rules.push_back(out.plan.disjuncts[d]);
    RELCONT_ASSIGN_OR_RETURN(std::vector<Tuple> tuples,
                             EvaluateGoal(single, goal, instance));
    for (Tuple& t : tuples) {
      auto [it, inserted] = index_of.emplace(t, out.answers.size());
      if (inserted) {
        ProvenancedAnswer answer;
        answer.tuple = std::move(t);
        out.answers.push_back(std::move(answer));
      }
      ProvenancedAnswer& answer = out.answers[it->second];
      answer.disjuncts.push_back(static_cast<int>(d));
      for (const Atom& a : out.plan.disjuncts[d].body) {
        answer.sources.insert(a.predicate);
      }
    }
  }
  return out;
}

Result<std::vector<Tuple>> CertainAnswersWithComparisons(
    const Program& query, SymbolId goal, const ViewSet& views,
    const Database& instance, Interner* interner) {
  RELCONT_ASSIGN_OR_RETURN(
      UnionQuery plan, ComparisonAwarePlan(query, goal, views, interner));
  if (plan.disjuncts.empty()) return std::vector<Tuple>{};
  Program program;
  for (Rule& d : plan.disjuncts) program.rules.push_back(std::move(d));
  return EvaluateGoal(program, goal, instance);
}

Result<Database> CanonicalDatabase(const ViewSet& views,
                                   const Database& instance,
                                   Interner* interner) {
  Database chase;
  for (SymbolId source : instance.Predicates()) {
    const ViewDefinition* view = views.Find(source);
    if (view == nullptr) {
      return Status::InvalidArgument(
          "instance has facts for an unknown source predicate");
    }
    for (const Tuple& tuple : instance.Tuples(source)) {
      Substitution binding;
      if (!MatchAtomAgainstGround(view->rule.head, tuple, &binding)) {
        return Status::InvalidArgument(
            "source tuple does not match its view head");
      }
      // Labelled nulls for the existential variables of this tuple.
      for (SymbolId v : view->rule.BodyVariables()) {
        if (!binding.Contains(v)) {
          binding.Bind(v, Term::Symbol(interner->Fresh("_null")));
        }
      }
      for (const Atom& a : view->rule.body) {
        chase.Add(binding.Apply(a));
      }
    }
  }
  return chase;
}

Result<std::vector<Tuple>> CertainAnswersViaCanonical(const Program& query,
                                                      SymbolId goal,
                                                      const ViewSet& views,
                                                      const Database& instance,
                                                      Interner* interner) {
  RELCONT_ASSIGN_OR_RETURN(Database chase,
                           CanonicalDatabase(views, instance, interner));
  RELCONT_ASSIGN_OR_RETURN(std::vector<Tuple> answers,
                           EvaluateGoal(query, goal, chase));
  // Keep null-free tuples. Nulls are the fresh "_null" ids minted above;
  // a data constant that merely spells like one is not a null.
  std::vector<Tuple> out;
  for (const Tuple& t : answers) {
    bool has_null = false;
    for (const Term& term : t) {
      if (term.is_constant() && term.value().is_symbol() &&
          interner->IsFresh(term.value().symbol(), "_null")) {
        has_null = true;
        break;
      }
    }
    if (!has_null) out.push_back(t);
  }
  return out;
}

namespace {

// Evaluates a single view on a database, returning its answer tuples.
Result<std::unordered_set<Tuple, TermVecHash>> ViewAnswers(
    const ViewDefinition& view, const Database& db) {
  Program p;
  p.rules.push_back(view.rule);
  RELCONT_ASSIGN_OR_RETURN(std::vector<Tuple> tuples,
                           EvaluateGoal(p, view.source_predicate(), db));
  return std::unordered_set<Tuple, TermVecHash>(tuples.begin(), tuples.end());
}

}  // namespace

Result<std::vector<Tuple>> BruteForceCertainAnswers(
    const Program& query, SymbolId goal, const ViewSet& views,
    const Database& instance, Interner* interner,
    const BruteForceOptions& options) {
  // Domain: instance active domain + constants of query and views + fresh
  // constants.
  std::vector<Value> domain = instance.ActiveDomain();
  auto add_value = [&](const Value& v) {
    for (const Value& w : domain) {
      if (w == v) return;
    }
    domain.push_back(v);
  };
  for (const Value& v : views.Constants()) add_value(v);
  for (const Value& v : query.Constants()) add_value(v);
  std::vector<Value> fresh;
  for (int i = 0; i < options.extra_constants; ++i) {
    fresh.push_back(Value::Symbol(interner->Fresh("_w")));
    add_value(fresh.back());
  }

  // Mediated predicates and their arities.
  std::map<SymbolId, int> arity;
  for (const ViewDefinition& v : views.views()) {
    for (const Atom& a : v.rule.body) arity[a.predicate] = a.arity();
  }
  std::set<SymbolId> idb = query.IdbPredicates();
  for (const Rule& r : query.rules) {
    for (const Atom& a : r.body) {
      if (idb.count(a.predicate) == 0) arity[a.predicate] = a.arity();
    }
  }

  // All potential mediated facts.
  std::vector<Atom> potential;
  for (const auto& [pred, n] : arity) {
    std::vector<Tuple> tuples = {{}};
    for (int i = 0; i < n; ++i) {
      std::vector<Tuple> next;
      for (const Tuple& t : tuples) {
        for (const Value& v : domain) {
          Tuple extended = t;
          extended.push_back(Term::Constant(v));
          next.push_back(std::move(extended));
        }
      }
      tuples = std::move(next);
    }
    for (Tuple& t : tuples) potential.emplace_back(pred, std::move(t));
  }
  if (static_cast<int>(potential.size()) > kMaxPotentialFacts) {
    return Status::BoundReached(
        "brute-force space too large: " + std::to_string(potential.size()) +
        " potential facts");
  }

  bool any_consistent = false;
  bool first = true;
  std::vector<Tuple> certain;
  const uint64_t limit = uint64_t{1} << potential.size();
  for (uint64_t mask = 0; mask < limit; ++mask) {
    Database d;
    for (size_t i = 0; i < potential.size(); ++i) {
      if (mask & (uint64_t{1} << i)) d.Add(potential[i]);
    }
    // Consistency with the instance: v ⊆ view(D), and equality for
    // complete views.
    bool consistent = true;
    for (const ViewDefinition& view : views.views()) {
      Result<std::unordered_set<Tuple, TermVecHash>> answers =
          ViewAnswers(view, d);
      if (!answers.ok()) return answers.status();
      for (const Tuple& t : instance.Tuples(view.source_predicate())) {
        if (answers->count(t) == 0) {
          consistent = false;
          break;
        }
      }
      if (consistent && view.complete) {
        if (answers->size() !=
            static_cast<size_t>(instance.Count(view.source_predicate()))) {
          consistent = false;
        }
      }
      if (!consistent) break;
    }
    if (!consistent) continue;
    any_consistent = true;
    RELCONT_ASSIGN_OR_RETURN(std::vector<Tuple> answers,
                             EvaluateGoal(query, goal, d));
    if (first) {
      certain = std::move(answers);
      first = false;
    } else {
      std::unordered_set<Tuple, TermVecHash> keep(answers.begin(),
                                                  answers.end());
      std::vector<Tuple> next;
      for (const Tuple& t : certain) {
        if (keep.count(t) > 0) next.push_back(t);
      }
      certain = std::move(next);
    }
    if (!first && certain.empty()) break;  // intersection cannot grow
  }
  if (!any_consistent) {
    return Status::InvalidArgument(
        "no candidate database is consistent with the instance");
  }
  // A genuine certain answer can never mention the enumeration's fresh
  // constants: unbounded candidate databases include ones that avoid any
  // given fresh value entirely, while every BOUNDED candidate here shares
  // the same fresh values, so tuples mentioning them can spuriously
  // survive the intersection. Dropping them also makes the result
  // reproducible across calls, which mint different fresh symbols.
  certain.erase(std::remove_if(certain.begin(), certain.end(),
                               [&](const Tuple& t) {
                                 for (const Term& term : t) {
                                   for (const Value& v : fresh) {
                                     if (term == Term::Constant(v)) {
                                       return true;
                                     }
                                   }
                                 }
                                 return false;
                               }),
                certain.end());
  return certain;
}

}  // namespace relcont

#include "relcont/cwa.h"

#include <algorithm>
#include <functional>

namespace relcont {

namespace {

// Enumerates candidate tuples for every source predicate over the domain.
std::vector<Atom> PotentialFacts(const ViewSet& views,
                                 const std::vector<Value>& domain) {
  std::vector<Atom> out;
  for (const ViewDefinition& v : views.views()) {
    int arity = v.rule.head.arity();
    std::vector<Tuple> tuples = {{}};
    for (int i = 0; i < arity; ++i) {
      std::vector<Tuple> next;
      for (const Tuple& t : tuples) {
        for (const Value& val : domain) {
          Tuple extended = t;
          extended.push_back(Term::Constant(val));
          next.push_back(std::move(extended));
        }
      }
      tuples = std::move(next);
    }
    for (Tuple& t : tuples) {
      out.emplace_back(v.source_predicate(), std::move(t));
    }
  }
  return out;
}

}  // namespace

Result<std::optional<CwaRefutation>> RefuteCwaContainment(
    const GoalQuery& q1, const GoalQuery& q2, const ViewSet& views,
    Interner* interner, const CwaRefuterOptions& options) {
  // Mark every view complete.
  std::vector<ViewDefinition> defs = views.views();
  for (ViewDefinition& d : defs) d.complete = true;
  RELCONT_ASSIGN_OR_RETURN(ViewSet complete_views,
                           ViewSet::Make(std::move(defs), interner));

  // Domain: query/view constants plus fresh symbols.
  std::vector<Value> domain;
  auto add_value = [&](const Value& v) {
    for (const Value& w : domain) {
      if (w == v) return;
    }
    domain.push_back(v);
  };
  for (const Value& v : views.Constants()) add_value(v);
  for (const Value& v : q1.program.Constants()) add_value(v);
  for (const Value& v : q2.program.Constants()) add_value(v);
  for (int i = 0; i < options.domain_size; ++i) {
    add_value(Value::Symbol(interner->Fresh("_cw")));
  }

  std::vector<Atom> potential = PotentialFacts(complete_views, domain);

  // Enumerate instances with at most max_instance_facts facts.
  std::vector<int> chosen;
  std::optional<CwaRefutation> found;
  // Recursive combination enumeration with early exit.
  std::function<Result<bool>(int)> search =
      [&](int start) -> Result<bool> {
    // Test the current instance (including the empty one once).
    Database instance;
    for (int idx : chosen) instance.Add(potential[idx]);
    Result<std::vector<Tuple>> c1 = BruteForceCertainAnswers(
        q1.program, q1.goal, complete_views, instance, interner,
        options.brute_force);
    if (c1.ok()) {
      Result<std::vector<Tuple>> c2 = BruteForceCertainAnswers(
          q2.program, q2.goal, complete_views, instance, interner,
          options.brute_force);
      if (c2.ok()) {
        for (const Tuple& t : *c1) {
          if (std::find(c2->begin(), c2->end(), t) == c2->end()) {
            found = CwaRefutation{instance, t};
            return true;
          }
        }
      } else if (c2.status().code() == StatusCode::kBoundReached) {
        return c2.status();
      }
    } else if (c1.status().code() == StatusCode::kBoundReached) {
      return c1.status();
    }
    // (kInvalidArgument means the instance is inconsistent under CWA —
    // skip it and keep searching.)
    if (static_cast<int>(chosen.size()) >= options.max_instance_facts) {
      return false;
    }
    for (int i = start; i < static_cast<int>(potential.size()); ++i) {
      chosen.push_back(i);
      RELCONT_ASSIGN_OR_RETURN(bool done, search(i + 1));
      chosen.pop_back();
      if (done) return true;
    }
    return false;
  };
  RELCONT_ASSIGN_OR_RETURN(bool done, search(0));
  (void)done;
  return found;
}

}  // namespace relcont

#include "relcont/workload.h"

#include <algorithm>
#include <cmath>
#include <random>
#include <string>

namespace relcont {

namespace {

Term RandomTerm(std::mt19937_64* rng, const RandomQueryOptions& options,
                Interner* interner) {
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  if (coin(*rng) < options.constant_probability) {
    std::uniform_int_distribution<int> c(0, 2);
    return Term::Number(Rational(c(*rng)));
  }
  std::uniform_int_distribution<int> v(0, options.num_variables - 1);
  return Term::Var(interner->Intern("V" + std::to_string(v(*rng))));
}

}  // namespace

Rule RandomConjunctiveQuery(const RandomQueryOptions& options,
                            std::string_view head_name, Interner* interner) {
  std::mt19937_64 rng(options.seed);
  Rule rule;
  std::uniform_int_distribution<int> pred(0, options.num_predicates - 1);
  for (int i = 0; i < options.num_atoms; ++i) {
    Atom atom;
    atom.predicate = interner->Intern("p" + std::to_string(pred(rng)));
    for (int j = 0; j < options.arity; ++j) {
      atom.args.push_back(RandomTerm(&rng, options, interner));
    }
    rule.body.push_back(std::move(atom));
  }
  // Head variables drawn from the body (safety).
  std::vector<SymbolId> body_vars = rule.BodyVariables();
  rule.head.predicate = interner->Intern(std::string(head_name));
  if (!body_vars.empty()) {
    std::uniform_int_distribution<size_t> pick(0, body_vars.size() - 1);
    for (int i = 0; i < options.head_arity; ++i) {
      rule.head.args.push_back(Term::Var(body_vars[pick(rng)]));
    }
  }
  return rule;
}

Rule ChainQuery(int length, std::string_view head_name,
                std::string_view edge_name, Interner* interner) {
  Rule rule;
  SymbolId edge = interner->Intern(std::string(edge_name));
  auto var = [&](int i) {
    return Term::Var(interner->Intern("C" + std::to_string(i)));
  };
  for (int i = 0; i < length; ++i) {
    rule.body.emplace_back(edge, std::vector<Term>{var(i), var(i + 1)});
  }
  rule.head = Atom(interner->Intern(std::string(head_name)),
                   {var(0), var(length)});
  return rule;
}

Rule StarQuery(int rays, std::string_view head_name,
               std::string_view edge_name, Interner* interner) {
  Rule rule;
  SymbolId edge = interner->Intern(std::string(edge_name));
  Term center = Term::Var(interner->Intern("Center"));
  for (int i = 0; i < rays; ++i) {
    rule.body.emplace_back(
        edge, std::vector<Term>{
                  center, Term::Var(interner->Intern(
                              "R" + std::to_string(i)))});
  }
  rule.head = Atom(interner->Intern(std::string(head_name)), {center});
  return rule;
}

ViewSet RandomViews(const RandomQueryOptions& options, int num_views,
                    Interner* interner) {
  std::mt19937_64 rng(options.seed * 7919 + 13);
  std::vector<ViewDefinition> views;
  std::uniform_int_distribution<int> pred(0, options.num_predicates - 1);
  std::uniform_int_distribution<int> body_atoms(1, 2);
  for (int i = 0; i < num_views; ++i) {
    Rule rule;
    int atoms = body_atoms(rng);
    for (int a = 0; a < atoms; ++a) {
      Atom atom;
      atom.predicate = interner->Intern("p" + std::to_string(pred(rng)));
      for (int j = 0; j < options.arity; ++j) {
        atom.args.push_back(RandomTerm(&rng, options, interner));
      }
      rule.body.push_back(std::move(atom));
    }
    std::vector<SymbolId> vars = rule.BodyVariables();
    if (vars.empty()) continue;  // all-constant body; uninteresting
    // Project a random nonempty subset of the variables.
    std::vector<SymbolId> head_vars;
    for (SymbolId v : vars) {
      std::uniform_int_distribution<int> keep(0, 1);
      if (keep(rng) == 1) head_vars.push_back(v);
    }
    if (head_vars.empty()) head_vars.push_back(vars[0]);
    rule.head.predicate = interner->Intern("view" + std::to_string(i));
    for (SymbolId v : head_vars) rule.head.args.push_back(Term::Var(v));
    views.push_back({std::move(rule), false});
  }
  // Distinct view names, safe heads and "p" bodies: Make cannot fail.
  return std::move(*ViewSet::Make(std::move(views), interner));
}

Database RandomInstance(const ViewSet& views, int num_facts, int domain_size,
                        uint64_t seed, Interner* interner) {
  std::mt19937_64 rng(seed);
  Database out;
  if (views.empty()) return out;
  std::uniform_int_distribution<size_t> which(0, views.size() - 1);
  std::uniform_int_distribution<int> value(0, domain_size - 1);
  for (int i = 0; i < num_facts; ++i) {
    const ViewDefinition& view = views.views()[which(rng)];
    Tuple tuple;
    for (int j = 0; j < view.rule.head.arity(); ++j) {
      tuple.push_back(Term::Symbol(
          interner->Intern("d" + std::to_string(value(rng)))));
    }
    out.Add(view.source_predicate(), std::move(tuple));
  }
  return out;
}

Database RandomGraph(std::string_view edge_name, int num_nodes, int num_edges,
                     uint64_t seed, Interner* interner) {
  std::mt19937_64 rng(seed);
  Database out;
  SymbolId edge = interner->Intern(std::string(edge_name));
  std::uniform_int_distribution<int> node(0, num_nodes - 1);
  for (int i = 0; i < num_edges; ++i) {
    Tuple tuple{
        Term::Symbol(interner->Intern("n" + std::to_string(node(rng)))),
        Term::Symbol(interner->Intern("n" + std::to_string(node(rng))))};
    out.Add(edge, std::move(tuple));
  }
  return out;
}

namespace {

/// Draws a relation index in [0, num_relations) with weight (r+1)^-skew.
/// Inverse-CDF over precomputed cumulative weights, so the draw sequence
/// is a pure function of the rng stream.
class SkewedRelationPicker {
 public:
  SkewedRelationPicker(int num_relations, double skew) {
    double total = 0;
    cumulative_.reserve(num_relations);
    for (int r = 0; r < num_relations; ++r) {
      total += std::pow(static_cast<double>(r + 1), -skew);
      cumulative_.push_back(total);
    }
  }

  int Pick(std::mt19937_64* rng) const {
    std::uniform_real_distribution<double> u(0.0, cumulative_.back());
    double x = u(*rng);
    auto it = std::lower_bound(cumulative_.begin(), cumulative_.end(), x);
    return static_cast<int>(it - cumulative_.begin());
  }

 private:
  std::vector<double> cumulative_;
};

/// Renders "name(X0, XL) :- e_a(X0, X1), ..., e_b(X(L-1), XL)." with the
/// relation of each hop drawn from `pick`.
std::string RenderChainRule(const std::string& head_name, int length,
                            const SkewedRelationPicker& pick,
                            std::mt19937_64* rng) {
  std::string out = head_name + "(X0, X" + std::to_string(length) + ") :- ";
  for (int hop = 0; hop < length; ++hop) {
    if (hop > 0) out += ", ";
    out += "e" + std::to_string(pick.Pick(rng)) + "(X" +
           std::to_string(hop) + ", X" + std::to_string(hop + 1) + ")";
  }
  out += ".";
  return out;
}

}  // namespace

PathViewWorkload MakePathViewWorkload(const PathViewOptions& options) {
  std::mt19937_64 rng(options.seed);
  PathViewWorkload out;
  SkewedRelationPicker pick(std::max(1, options.num_relations),
                            options.skew);
  int min_length = std::max(1, options.min_length);
  int max_length = std::max(min_length, options.max_length);
  std::uniform_int_distribution<int> length(min_length, max_length);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  for (int i = 0; i < options.num_views; ++i) {
    std::string name = "v" + std::to_string(i);
    out.views_text += RenderChainRule(name, length(rng), pick, &rng);
    out.views_text += '\n';
    if (coin(rng) < options.bound_probability) {
      out.patterns.emplace_back(std::move(name), "bf");
    }
  }
  out.query_text =
      RenderChainRule("q", std::max(1, options.query_length), pick, &rng);
  return out;
}

}  // namespace relcont

#include "relcont/pi2p_reduction.h"

#include <random>
#include <string>

namespace relcont {

namespace {

bool ClauseSatisfied(const QbfClause& clause,
                     const std::vector<bool>& assignment) {
  for (const QbfLiteral& lit : clause.literals) {
    if (assignment[lit.variable] != lit.negated) return true;
  }
  return false;
}

bool AllClausesSatisfied(const QbfFormula& f,
                         const std::vector<bool>& assignment) {
  for (const QbfClause& c : f.clauses) {
    if (!ClauseSatisfied(c, assignment)) return false;
  }
  return true;
}

}  // namespace

bool Satisfiable(const QbfFormula& f) {
  int n = f.num_variables();
  std::vector<bool> assignment(n, false);
  for (uint64_t mask = 0; mask < (uint64_t{1} << n); ++mask) {
    for (int i = 0; i < n; ++i) assignment[i] = (mask >> i) & 1;
    if (AllClausesSatisfied(f, assignment)) return true;
  }
  return false;
}

bool ForallExistsSatisfiable(const QbfFormula& f) {
  std::vector<bool> assignment(f.num_variables(), false);
  for (uint64_t y = 0; y < (uint64_t{1} << f.num_forall); ++y) {
    for (int j = 0; j < f.num_forall; ++j) {
      assignment[f.num_exists + j] = (y >> j) & 1;
    }
    bool exists = false;
    for (uint64_t x = 0; x < (uint64_t{1} << f.num_exists) && !exists; ++x) {
      for (int i = 0; i < f.num_exists; ++i) assignment[i] = (x >> i) & 1;
      exists = AllClausesSatisfied(f, assignment);
    }
    if (!exists) return false;
  }
  return true;
}

Result<Pi2pInstance> BuildPi2pReduction(const QbfFormula& formula,
                                        Interner* interner) {
  if (formula.clauses.empty()) {
    return Status::InvalidArgument("formula must have at least one clause");
  }
  for (const QbfClause& c : formula.clauses) {
    if (c.literals[0].variable == c.literals[1].variable ||
        c.literals[0].variable == c.literals[2].variable ||
        c.literals[1].variable == c.literals[2].variable) {
      return Status::InvalidArgument(
          "reduction requires pairwise-distinct clause variables");
    }
    for (const QbfLiteral& lit : c.literals) {
      if (lit.variable < 0 || lit.variable >= formula.num_variables()) {
        return Status::InvalidArgument("literal variable out of range");
      }
    }
  }

  Pi2pInstance out;
  auto var_term = [&](int v) {
    // Existential x_i / universal y_j variables of the formula become
    // datalog variables of the same names.
    std::string name = v < formula.num_exists
                           ? "X" + std::to_string(v)
                           : "Y" + std::to_string(v - formula.num_exists);
    return Term::Var(interner->Intern(name));
  };
  Term zero = Term::Number(Rational(0));
  Term one = Term::Number(Rational(1));

  // --- Q1: records which variables occur in each clause, plus e_j(y_j).
  Rule q1;
  q1.head = Atom(interner->Intern("q1"), {});
  for (size_t i = 0; i < formula.clauses.size(); ++i) {
    const QbfClause& c = formula.clauses[i];
    SymbolId r_i = interner->Intern("r" + std::to_string(i));
    q1.body.emplace_back(
        r_i, std::vector<Term>{var_term(c.literals[0].variable),
                               var_term(c.literals[1].variable),
                               var_term(c.literals[2].variable)});
  }
  for (int j = 0; j < formula.num_forall; ++j) {
    SymbolId e_j = interner->Intern("e" + std::to_string(j));
    q1.body.emplace_back(
        e_j, std::vector<Term>{var_term(formula.num_exists + j)});
  }
  out.q1.program.rules.push_back(q1);
  out.q1.goal = q1.head.predicate;

  // --- Q2: the seven satisfying rows of each clause, plus e_j(u_j).
  Rule q2;
  q2.head = Atom(interner->Intern("q2"), {});
  for (size_t i = 0; i < formula.clauses.size(); ++i) {
    const QbfClause& c = formula.clauses[i];
    SymbolId r_i = interner->Lookup("r" + std::to_string(i));
    for (int bits = 0; bits < 8; ++bits) {
      bool a0 = bits & 1, a1 = (bits >> 1) & 1, a2 = (bits >> 2) & 1;
      bool satisfied = (a0 != c.literals[0].negated) ||
                       (a1 != c.literals[1].negated) ||
                       (a2 != c.literals[2].negated);
      if (!satisfied) continue;
      q2.body.emplace_back(
          r_i, std::vector<Term>{a0 ? one : zero, a1 ? one : zero,
                                 a2 ? one : zero});
    }
  }
  for (int j = 0; j < formula.num_forall; ++j) {
    SymbolId e_j = interner->Lookup("e" + std::to_string(j));
    Term u_j = Term::Var(interner->Intern("U" + std::to_string(j)));
    q2.body.emplace_back(e_j, std::vector<Term>{u_j});
  }
  out.q2.program.rules.push_back(q2);
  out.q2.goal = q2.head.predicate;

  // --- Views: v_i mirrors r_i; w_{j,0} / w_{j,1} fix each truth value of
  // the universal variables.
  std::vector<ViewDefinition> views;
  for (size_t i = 0; i < formula.clauses.size(); ++i) {
    ViewDefinition v;
    Term z1 = Term::Var(interner->Intern("Z1"));
    Term z2 = Term::Var(interner->Intern("Z2"));
    Term z3 = Term::Var(interner->Intern("Z3"));
    v.rule.head = Atom(interner->Intern("v" + std::to_string(i)),
                       {z1, z2, z3});
    v.rule.body.emplace_back(interner->Lookup("r" + std::to_string(i)),
                             std::vector<Term>{z1, z2, z3});
    views.push_back(std::move(v));
  }
  for (int j = 0; j < formula.num_forall; ++j) {
    for (int b = 0; b <= 1; ++b) {
      ViewDefinition w;
      w.rule.head =
          Atom(interner->Intern("w" + std::to_string(j) + "_" +
                                std::to_string(b)),
               {});
      w.rule.body.emplace_back(interner->Lookup("e" + std::to_string(j)),
                               std::vector<Term>{b == 0 ? zero : one});
      views.push_back(std::move(w));
    }
  }
  RELCONT_ASSIGN_OR_RETURN(out.views,
                           ViewSet::Make(std::move(views), interner));
  return out;
}

QbfFormula RandomQbf(int num_exists, int num_forall, int num_clauses,
                     uint64_t seed) {
  QbfFormula f;
  f.num_exists = num_exists;
  f.num_forall = num_forall;
  std::mt19937_64 rng(seed);
  int n = f.num_variables();
  std::uniform_int_distribution<int> var_dist(0, n - 1);
  std::uniform_int_distribution<int> bit(0, 1);
  for (int c = 0; c < num_clauses; ++c) {
    QbfClause clause;
    int v0 = var_dist(rng);
    int v1 = v0, v2 = v0;
    while (v1 == v0) v1 = var_dist(rng);
    while (v2 == v0 || v2 == v1) v2 = var_dist(rng);
    clause.literals[0] = {v0, bit(rng) == 1};
    clause.literals[1] = {v1, bit(rng) == 1};
    clause.literals[2] = {v2, bit(rng) == 1};
    f.clauses.push_back(clause);
  }
  return f;
}

}  // namespace relcont

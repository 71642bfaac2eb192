#include "gen.h"

#include <algorithm>
#include <cctype>
#include <map>

#include "relcont/workload.h"

namespace servebench {

uint64_t Mix(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::string CatalogText::ViewsText() const {
  std::string out;
  for (const std::string& v : views) out += v + "\n";
  return out;
}

std::string CatalogText::ProtocolLine() const {
  std::string out = "CATALOG " + name;
  for (const std::string& v : views) out += " VIEW " + v;
  for (const auto& [source, adornment] : patterns) {
    out += " PATTERN " + source + " " + adornment;
  }
  return out;
}

namespace {

struct Atom {
  std::string pred;
  std::vector<std::string> args;
};

std::string Var(int i) { return "V" + std::to_string(i); }

std::string RenderAtom(const Atom& a) {
  std::string out = a.pred + "(";
  for (size_t i = 0; i < a.args.size(); ++i) {
    if (i > 0) out += ", ";
    out += a.args[i];
  }
  return out + ")";
}

std::string RenderRule(const Atom& head, const std::vector<Atom>& body,
                       const std::vector<std::string>& comparisons = {}) {
  std::string out = RenderAtom(head) + " :- ";
  for (size_t i = 0; i < body.size(); ++i) {
    if (i > 0) out += ", ";
    out += RenderAtom(body[i]);
  }
  for (const std::string& c : comparisons) out += ", " + c;
  return out + ".";
}

bool IsVar(const std::string& t) {
  return !t.empty() && std::isupper(static_cast<unsigned char>(t[0]));
}

/// Distinct variables of `body` in first-appearance order.
std::vector<std::string> BodyVars(const std::vector<Atom>& body) {
  std::vector<std::string> out;
  for (const Atom& a : body) {
    for (const std::string& t : a.args) {
      if (IsVar(t) && std::find(out.begin(), out.end(), t) == out.end()) {
        out.push_back(t);
      }
    }
  }
  return out;
}

/// `atoms` binary atoms over `preds`, arguments drawn from `vars`
/// variables (a small numeric constant with probability `constant_p`).
/// Retries until the body has at least one variable.
std::vector<Atom> RandomBody(Rng* rng, int atoms,
                             const std::vector<std::string>& preds, int vars,
                             double constant_p) {
  for (;;) {
    std::vector<Atom> body;
    for (int i = 0; i < atoms; ++i) {
      Atom a;
      a.pred = preds[rng->Uniform(0, static_cast<int>(preds.size()) - 1)];
      for (int j = 0; j < 2; ++j) {
        a.args.push_back(rng->Coin(constant_p)
                             ? std::to_string(rng->Uniform(0, 2))
                             : Var(rng->Uniform(0, vars - 1)));
      }
      body.push_back(std::move(a));
    }
    if (!BodyVars(body).empty()) return body;
  }
}

/// A random CQ with a unary head over `preds`.
std::string RandomQuery(Rng* rng, const std::string& head_pred, int atoms,
                        const std::vector<std::string>& preds, int vars,
                        double constant_p, int num_comparisons = 0) {
  std::vector<Atom> body = RandomBody(rng, atoms, preds, vars, constant_p);
  std::vector<std::string> bv = BodyVars(body);
  Atom head{head_pred, {bv[rng->Uniform(0, static_cast<int>(bv.size()) - 1)]}};
  static const char* kOps[] = {"<", "<=", ">", ">="};
  std::vector<std::string> comparisons;
  for (int i = 0; i < num_comparisons; ++i) {
    comparisons.push_back(
        bv[rng->Uniform(0, static_cast<int>(bv.size()) - 1)] + " " +
        kOps[rng->Uniform(0, 3)] + " " + std::to_string(rng->Uniform(1, 9)));
  }
  return RenderRule(head, body, comparisons);
}

/// A projection view: a random body and a random nonempty subset of its
/// variables as the head.
std::string RandomView(Rng* rng, const std::string& name,
                       const std::vector<std::string>& preds, int max_atoms,
                       int vars, double constant_p,
                       const std::string& comparison_op = "") {
  std::vector<Atom> body =
      RandomBody(rng, rng->Uniform(1, max_atoms), preds, vars, constant_p);
  std::vector<std::string> bv = BodyVars(body);
  Atom head{name, {}};
  for (const std::string& v : bv) {
    if (rng->Coin(0.5)) head.args.push_back(v);
  }
  if (head.args.empty()) head.args.push_back(bv[0]);
  std::vector<std::string> comparisons;
  if (!comparison_op.empty()) {
    comparisons.push_back(bv.back() + " " + comparison_op + " " +
                          std::to_string(rng->Uniform(1, 9)));
  }
  return RenderRule(head, body, comparisons);
}

/// "name(X0, Xn) :- e_a(X0, X1), ..., e_b(X(n-1), Xn)." over `relations`.
std::string ChainRule(Rng* rng, const std::string& name, int length,
                      int relations) {
  Atom head{name, {"X0", "X" + std::to_string(length)}};
  std::vector<Atom> body;
  for (int i = 0; i < length; ++i) {
    body.push_back({"e" + std::to_string(rng->Uniform(0, relations - 1)),
                    {"X" + std::to_string(i), "X" + std::to_string(i + 1)}});
  }
  return RenderRule(head, body);
}

const std::vector<std::string> kPreds3 = {"p0", "p1", "p2"};
const std::vector<std::string> kPreds2 = {"p0", "p1"};

CatalogText PathViewCatalog(const std::string& name, int num_views,
                            int relations, int max_length, double bound_p,
                            uint64_t seed) {
  relcont::PathViewOptions options;
  options.num_views = num_views;
  options.num_relations = relations;
  options.min_length = 1;
  options.max_length = max_length;
  options.bound_probability = bound_p;
  options.seed = seed;
  relcont::PathViewWorkload w = relcont::MakePathViewWorkload(options);
  CatalogText out;
  out.name = name;
  size_t start = 0;
  while (start < w.views_text.size()) {
    size_t end = w.views_text.find('\n', start);
    if (end == std::string::npos) end = w.views_text.size();
    if (end > start) {
      out.views.push_back(w.views_text.substr(start, end - start));
    }
    start = end + 1;
  }
  out.patterns = std::move(w.patterns);
  return out;
}

}  // namespace

const char* FamilyName(Family family) {
  switch (family) {
    case Family::kSection3: return "section3";
    case Family::kSection3Wide: return "section3_wide";
    case Family::kSection4: return "section4";
    case Family::kTheorem32: return "theorem32";
    case Family::kTheorem51: return "theorem51";
    case Family::kTheorem52: return "theorem52";
    case Family::kNumFamilies: break;
  }
  return "unknown";
}

CatalogText MakeCatalog(Family family, int index, uint64_t seed) {
  Rng rng(Mix(seed, 1000 + 16 * static_cast<uint64_t>(family) + index));
  CatalogText out;
  std::string suffix = std::to_string(index);
  switch (family) {
    case Family::kSection3:
      out.name = "s3_" + suffix;
      for (int i = 0; i < 6; ++i) {
        out.views.push_back(RandomView(&rng, "s" + std::to_string(i),
                                       kPreds3, 2, 4, 0.1));
      }
      break;
    case Family::kSection3Wide:
      // Four access paths per relation: the plan of a five-atom query
      // has 4^5 = 1024 disjunct templates, past the auto-CEGAR threshold.
      out.name = "wide_" + suffix;
      for (const std::string& p : kPreds2) {
        out.views.push_back("a" + p + "(X, Y) :- " + p + "(X, Y).");
        out.views.push_back("b" + p + "(X) :- " + p + "(X, Y).");
        out.views.push_back("c" + p + "(Y) :- " + p + "(X, Y).");
      }
      out.views.push_back(rng.Coin(0.5)
                              ? "j(X, Z) :- p0(X, Y), p1(Y, Z)."
                              : "j(X, Z) :- p1(X, Y), p0(Y, Z).");
      out.views.push_back(rng.Coin(0.5) ? "k(X) :- p0(X, X)."
                                        : "k(X) :- p1(X, X).");
      break;
    case Family::kTheorem32: {
      out.name = "rec_" + suffix;
      const char* templates[] = {
          "e1(X, Y) :- e(X, Y).",        "e2(X, Z) :- e(X, Y), e(Y, Z).",
          "ef(X, Y) :- e(X, Y), f(Y).", "fv(X) :- f(X).",
          "loop(X) :- e(X, X).",        "src(X) :- e(X, Y)."};
      out.views.push_back(rng.Coin(0.5) ? templates[0] : templates[1]);
      for (int i = 2; i < 6; ++i) {
        if (rng.Coin(0.5)) out.views.push_back(templates[i]);
      }
      break;
    }
    case Family::kTheorem51:
    case Family::kTheorem52: {
      out.name = std::string(family == Family::kTheorem51 ? "c51_" : "c52_") +
                 suffix;
      static const char* kOps[] = {"<", "<=", ">", ">="};
      for (int i = 0; i < 4; ++i) {
        std::string op = i == 3 ? "" : kOps[rng.Uniform(0, 3)];
        out.views.push_back(RandomView(&rng, "c" + std::to_string(i),
                                       kPreds2, 1, 2, 0.0, op));
      }
      break;
    }
    case Family::kSection4:
      out = PathViewCatalog("pv_" + suffix, 8, 3, 2, 0.5,
                            Mix(seed, 2000 + index));
      break;
    case Family::kNumFamilies:
      break;
  }
  return out;
}

PairText MakePair(Family family, uint64_t seed) {
  Rng rng(seed);
  PairText out;
  switch (family) {
    case Family::kSection3:
      out.q1 = RandomQuery(&rng, "qa", rng.Uniform(3, 4), kPreds3, 5, 0.1);
      out.q2 = RandomQuery(&rng, "qb", rng.Uniform(2, 3), kPreds3, 4, 0.1);
      break;
    case Family::kSection3Wide:
      out.q1 = RandomQuery(&rng, "qa", 5, kPreds2, 5, 0.0);
      out.q2 = RandomQuery(&rng, "qb", rng.Uniform(2, 3), kPreds2, 4, 0.0);
      break;
    case Family::kTheorem32: {
      static const char* kBases[] = {
          "t(X, Y) :- e(X, Y).", "t(X, Y) :- e(X, Y), f(Y).",
          "t(X, Y) :- e(X, Y), f(X).", "t(X, Y) :- e(X, Z), e(Z, Y)."};
      std::string tc = std::string(kBases[rng.Uniform(0, 3)]) +
                       (rng.Coin(0.5) ? " t(X, Y) :- e(X, Z), t(Z, Y)."
                                      : " t(X, Y) :- t(X, Z), e(Z, Y).");
      out.q1 = "a(X, Y) :- t(X, Y). " + tc;
      // A random CQ over e and the unary f with a binary head.
      std::vector<Atom> body =
          RandomBody(&rng, rng.Uniform(1, 3), {"e"}, 4, 0.0);
      std::vector<std::string> bv = BodyVars(body);
      if (rng.Coin(0.5)) {
        int pick = rng.Uniform(0, static_cast<int>(bv.size()) - 1);
        body.push_back({"f", {bv[pick]}});
      }
      int n = static_cast<int>(bv.size()) - 1;
      out.q2 = RenderRule({"b", {bv[rng.Uniform(0, n)], bv[rng.Uniform(0, n)]}},
                          body);
      break;
    }
    case Family::kTheorem51:
    case Family::kTheorem52: {
      out.q1 = RandomQuery(&rng, "qa", 2, kPreds2, 3, 0.0,
                           family == Family::kTheorem51 ? 1 : 0);
      out.q2 = RandomQuery(&rng, "qb", rng.Uniform(1, 2), kPreds2, 3, 0.0, 1);
      break;
    }
    case Family::kSection4:
      out.q1 = ChainRule(&rng, "a", rng.Uniform(1, 3), 3);
      out.q2 = ChainRule(&rng, "b", rng.Uniform(1, 3), 3);
      break;
    case Family::kNumFamilies:
      break;
  }
  return out;
}

CatalogText MakePlanCatalog(const std::string& name, bool with_patterns,
                            int num_views, uint64_t seed) {
  return PathViewCatalog(name, num_views, 4, 3, with_patterns ? 0.5 : 0.0,
                         seed);
}

std::string MakePlanQuery(uint64_t seed, int max_length, int relations) {
  Rng rng(seed);
  std::string rule =
      ChainRule(&rng, "q", rng.Uniform(2, max_length), relations);
  // Vary the head too: (X0, Xn), (X0), (Xn) or (Xn, X0).
  size_t open = rule.find('('), close = rule.find(')');
  std::string first = "X0";
  std::string last = rule.substr(rule.find(", ") + 2,
                                 close - rule.find(", ") - 2);
  const std::string heads[] = {first + ", " + last, first, last,
                               last + ", " + first};
  return rule.substr(0, open + 1) + heads[rng.Uniform(0, 3)] +
         rule.substr(close);
}

std::string Disguise(const std::string& query_text, uint64_t seed) {
  Rng rng(seed);
  std::map<std::string, std::string> renaming;
  std::string renamed;
  size_t i = 0;
  while (i < query_text.size()) {
    bool starts_word =
        i == 0 || !std::isalnum(static_cast<unsigned char>(query_text[i - 1]));
    if (starts_word &&
        std::isupper(static_cast<unsigned char>(query_text[i]))) {
      size_t j = i;
      while (j < query_text.size() &&
             std::isalnum(static_cast<unsigned char>(query_text[j]))) {
        ++j;
      }
      auto [it, inserted] = renaming.emplace(query_text.substr(i, j - i), "");
      if (inserted) {
        it->second = "Z" + std::to_string(rng.Uniform(0, 9)) + "n" +
                     std::to_string(renaming.size());
      }
      renamed += it->second;
      i = j;
    } else {
      renamed += query_text[i++];
    }
  }
  // Shuffle every rule but the first, whose head names the goal.
  std::vector<std::string> rules;
  size_t start = 0;
  for (size_t end; (end = renamed.find('.', start)) != std::string::npos;
       start = end + 1) {
    std::string rule = renamed.substr(start, end - start + 1);
    rule.erase(0, rule.find_first_not_of(' '));
    rules.push_back(rule);
  }
  for (size_t k = rules.size(); k > 2; --k) {
    std::swap(rules[k - 1], rules[rng.Uniform(1, static_cast<int>(k) - 1)]);
  }
  std::string out;
  for (const std::string& rule : rules) out += (out.empty() ? "" : " ") + rule;
  return out;
}

}  // namespace servebench

#include "datalog/rule.h"

#include <algorithm>
#include <unordered_set>

namespace relcont {

namespace {

// The distinct elements of `vars`, in first-occurrence order. Most rules
// have few distinct variables, and a scan of the output beats a hash set;
// past kScanLimit of them (a long chain query) a hash set keeps this linear.
std::vector<SymbolId> Dedup(const std::vector<SymbolId>& vars) {
  constexpr size_t kScanLimit = 64;
  std::vector<SymbolId> out;
  std::unordered_set<SymbolId> seen;
  for (SymbolId v : vars) {
    if (out.size() < kScanLimit) {
      if (std::find(out.begin(), out.end(), v) == out.end()) out.push_back(v);
      continue;
    }
    if (seen.empty()) seen.insert(out.begin(), out.end());
    if (seen.insert(v).second) out.push_back(v);
  }
  return out;
}

bool Has(const std::vector<SymbolId>& vars, SymbolId v) {
  return std::find(vars.begin(), vars.end(), v) != vars.end();
}

void CollectConstantsFromTerm(const Term& t, std::vector<Value>* out) {
  switch (t.kind()) {
    case Term::Kind::kVariable:
      return;
    case Term::Kind::kConstant:
      out->push_back(t.value());
      return;
    case Term::Kind::kFunction:
      for (const Term& a : t.args()) CollectConstantsFromTerm(a, out);
      return;
  }
}

}  // namespace

std::vector<SymbolId> Rule::Variables() const {
  std::vector<SymbolId> all;
  head.CollectVars(&all);
  for (const Atom& a : body) a.CollectVars(&all);
  for (const Comparison& c : comparisons) c.CollectVars(&all);
  return Dedup(all);
}

std::vector<SymbolId> Rule::HeadVariables() const {
  std::vector<SymbolId> all;
  head.CollectVars(&all);
  return Dedup(all);
}

std::vector<SymbolId> Rule::BodyVariables() const {
  std::vector<SymbolId> all;
  for (const Atom& a : body) a.CollectVars(&all);
  return Dedup(all);
}

std::vector<Value> Rule::Constants() const {
  std::vector<Value> out;
  for (const Term& t : head.args) CollectConstantsFromTerm(t, &out);
  for (const Atom& a : body) {
    for (const Term& t : a.args) CollectConstantsFromTerm(t, &out);
  }
  for (const Comparison& c : comparisons) {
    CollectConstantsFromTerm(c.lhs, &out);
    CollectConstantsFromTerm(c.rhs, &out);
  }
  return out;
}

bool Rule::HasFunctionTerm() const {
  return head.HasFunctionTerm() ||
         std::ranges::any_of(body, &Atom::HasFunctionTerm) ||
         std::ranges::any_of(comparisons, [](const Comparison& c) {
           return c.lhs.is_function() || c.rhs.is_function();
         });
}

Status Rule::CheckSafe() const {
  std::vector<SymbolId> body_vars = BodyVariables();
  std::vector<SymbolId> head_vars;
  head.CollectVars(&head_vars);
  for (SymbolId v : head_vars) {
    if (!Has(body_vars, v)) {
      return Status::Unsafe("head variable does not appear in the body");
    }
  }
  std::vector<SymbolId> cmp_vars;
  for (const Comparison& c : comparisons) c.CollectVars(&cmp_vars);
  for (SymbolId v : cmp_vars) {
    if (!Has(body_vars, v)) {
      return Status::Unsafe(
          "comparison variable does not appear in an ordinary subgoal");
    }
  }
  return Status::OK();
}

std::string Rule::ToString(const Interner& interner) const {
  std::string out = head.ToString(interner);
  if (body.empty() && comparisons.empty()) {
    out += ".";
    return out;
  }
  out += " :- ";
  bool first = true;
  for (const Atom& a : body) {
    if (!first) out += ", ";
    first = false;
    out += a.ToString(interner);
  }
  for (const Comparison& c : comparisons) {
    if (!first) out += ", ";
    first = false;
    out += c.ToString(interner);
  }
  out += ".";
  return out;
}

std::string UnionQuery::ToString(const Interner& interner) const {
  std::string out;
  for (const Rule& r : disjuncts) {
    out += r.ToString(interner);
    out += '\n';
  }
  return out;
}

}  // namespace relcont

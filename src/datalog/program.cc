#include "datalog/program.h"

#include <map>
#include <unordered_set>

#include "datalog/unfold.h"

namespace relcont {

namespace {

// Builds the IDB dependency graph: an edge p -> q when some rule with head
// p has q (an IDB predicate) in its body.
std::map<SymbolId, std::set<SymbolId>> BuildIdbGraph(
    const Program& program, const std::set<SymbolId>& idb) {
  std::map<SymbolId, std::set<SymbolId>> graph;
  for (SymbolId p : idb) graph[p];
  for (const Rule& r : program.rules) {
    for (const Atom& a : r.body) {
      if (idb.count(a.predicate) > 0) {
        graph[r.head.predicate].insert(a.predicate);
      }
    }
  }
  return graph;
}

// Depth-first detection of whether `node` can reach itself.
bool InCycle(const std::map<SymbolId, std::set<SymbolId>>& graph,
             SymbolId start) {
  std::unordered_set<SymbolId> visited;
  std::vector<SymbolId> stack(graph.at(start).begin(),
                              graph.at(start).end());
  while (!stack.empty()) {
    SymbolId cur = stack.back();
    stack.pop_back();
    if (cur == start) return true;
    if (!visited.insert(cur).second) continue;
    auto it = graph.find(cur);
    if (it == graph.end()) continue;
    stack.insert(stack.end(), it->second.begin(), it->second.end());
  }
  return false;
}

}  // namespace

std::set<SymbolId> Program::IdbPredicates() const {
  std::set<SymbolId> out;
  for (const Rule& r : rules) out.insert(r.head.predicate);
  return out;
}

std::set<SymbolId> Program::EdbPredicates() const {
  std::set<SymbolId> idb = IdbPredicates();
  std::set<SymbolId> out;
  for (const Rule& r : rules) {
    for (const Atom& a : r.body) {
      if (idb.count(a.predicate) == 0) out.insert(a.predicate);
    }
  }
  return out;
}

std::vector<Value> Program::Constants() const {
  std::vector<Value> out;
  for (const Rule& r : rules) {
    std::vector<Value> rule_consts = r.Constants();
    out.insert(out.end(), rule_consts.begin(), rule_consts.end());
  }
  return out;
}

bool Program::IsRecursive() const { return Resolver(rules).IsRecursive(); }

std::set<SymbolId> Program::RecursivePredicates() const {
  std::set<SymbolId> idb = IdbPredicates();
  auto graph = BuildIdbGraph(*this, idb);
  std::set<SymbolId> out;
  for (SymbolId p : idb) {
    if (InCycle(graph, p)) out.insert(p);
  }
  return out;
}

Status Program::CheckSafe() const {
  for (const Rule& r : rules) {
    RELCONT_RETURN_NOT_OK(r.CheckSafe());
  }
  return Status::OK();
}

Result<std::vector<SymbolId>> Program::TopologicalIdbOrder() const {
  std::set<SymbolId> idb = IdbPredicates();
  auto graph = BuildIdbGraph(*this, idb);
  // Kahn's algorithm on the "defined before used" order: emit a predicate
  // once all IDB predicates it depends on have been emitted.
  std::map<SymbolId, int> pending;  // number of unemitted dependencies
  for (const auto& [p, deps] : graph) pending[p] = static_cast<int>(deps.size());
  std::vector<SymbolId> ready;
  for (const auto& [p, n] : pending) {
    if (n == 0) ready.push_back(p);
  }
  // Reverse adjacency: who depends on p.
  std::map<SymbolId, std::set<SymbolId>> dependents;
  for (const auto& [p, deps] : graph) {
    for (SymbolId d : deps) dependents[d].insert(p);
  }
  std::vector<SymbolId> order;
  while (!ready.empty()) {
    SymbolId p = ready.back();
    ready.pop_back();
    order.push_back(p);
    for (SymbolId q : dependents[p]) {
      if (--pending[q] == 0) ready.push_back(q);
    }
  }
  if (order.size() != idb.size()) {
    return Status::Unsupported("program is recursive; no topological order");
  }
  return order;
}

std::string Program::ToString(const Interner& interner) const {
  std::string out;
  for (const Rule& r : rules) {
    out += r.ToString(interner);
    out += '\n';
  }
  return out;
}

}  // namespace relcont

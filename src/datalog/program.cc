#include "datalog/program.h"

#include <map>
#include <unordered_map>
#include <unordered_set>

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

std::set<SymbolId> Program::AllPredicates() const {
  std::set<SymbolId> out = IdbPredicates();
  for (const Rule& r : rules) {
    for (const Atom& a : r.body) out.insert(a.predicate);
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

bool Program::IsRecursive() const {
  // The IDB graph over dense node numbers.
  std::unordered_map<SymbolId, int> node;
  for (const Rule& r : rules) {
    node.try_emplace(r.head.predicate, static_cast<int>(node.size()));
  }
  std::vector<std::vector<int>> edges(node.size());
  for (const Rule& r : rules) {
    std::vector<int>& out = edges[node[r.head.predicate]];
    for (const Atom& a : r.body) {
      auto it = node.find(a.predicate);
      if (it != node.end()) out.push_back(it->second);
    }
  }
  // One three-colour DFS: an edge to a node still on the stack (grey)
  // closes a cycle.
  enum Colour : char { kWhite, kGrey, kBlack };
  std::vector<Colour> colour(node.size(), kWhite);
  std::vector<std::pair<int, size_t>> stack;  // node, next edge
  for (int root = 0; root < static_cast<int>(node.size()); ++root) {
    if (colour[root] == kWhite) stack.emplace_back(root, 0);
    while (!stack.empty()) {
      auto& [v, next] = stack.back();
      colour[v] = kGrey;
      if (next == edges[v].size()) {
        colour[v] = kBlack;
        stack.pop_back();
      } else if (int w = edges[v][next++]; colour[w] == kGrey) {
        return true;
      } else if (colour[w] == kWhite) {
        stack.emplace_back(w, 0);
      }
    }
  }
  return false;
}

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

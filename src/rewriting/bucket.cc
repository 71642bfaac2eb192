#include "rewriting/bucket.h"

#include <algorithm>
#include <functional>
#include <map>

#include "containment/cq_containment.h"
#include "datalog/substitution.h"
#include "rewriting/inverse_rules.h"

namespace relcont {

namespace {

// One way a query subgoal can be served: view `view_index`, whose body
// subgoal `subgoal_index` unifies with the query subgoal.
struct BucketEntry {
  int view_index = 0;
  int subgoal_index = 0;
};

class BucketBuilder {
 public:
  BucketBuilder(const ViewSet& views, Interner* interner)
      : views_(views), interner_(interner) {}

  Result<UnionQuery> Run(const UnionQuery& query_ucq, BucketStats* stats) {
    UnionQuery out;
    for (const Rule& q : query_ucq.disjuncts) {
      RELCONT_RETURN_NOT_OK(RewriteRule(q, query_ucq, stats, &out));
    }
    return MinimizeUnion(out);
  }

 private:
  Status RewriteRule(const Rule& q, const UnionQuery& query_ucq,
                     BucketStats* stats, UnionQuery* out) {
    // Build the buckets.
    std::vector<std::vector<BucketEntry>> buckets(q.body.size());
    for (size_t i = 0; i < q.body.size(); ++i) {
      for (size_t v = 0; v < views_.views().size(); ++v) {
        const Rule& view = views_.views()[v].rule;
        for (size_t w = 0; w < view.body.size(); ++w) {
          if (view.body[w].predicate != q.body[i].predicate ||
              view.body[w].args.size() != q.body[i].args.size()) {
            continue;
          }
          // Quick feasibility: the subgoals must unify in isolation.
          Rule fresh = views_.NumberedView(v).RenameApart(interner_);
          Substitution probe;
          if (!UnifyAtoms(q.body[i], fresh.body[w], &probe)) continue;
          buckets[i].push_back(
              {static_cast<int>(v), static_cast<int>(w)});
        }
      }
      if (stats != nullptr) {
        stats->bucket_sizes.push_back(static_cast<int>(buckets[i].size()));
      }
      if (buckets[i].empty()) return Status::OK();  // subgoal unanswerable
    }
    // Cartesian product of the buckets.
    std::vector<size_t> pick(q.body.size(), 0);
    for (;;) {
      if (stats != nullptr) ++stats->candidates;
      RELCONT_RETURN_NOT_OK(TryCandidate(q, query_ucq, buckets, pick, stats,
                                         out));
      size_t i = 0;
      while (i < pick.size() && ++pick[i] == buckets[i].size()) {
        pick[i] = 0;
        ++i;
      }
      if (i == pick.size() || pick.empty()) break;
    }
    return Status::OK();
  }

  Status TryCandidate(const Rule& q, const UnionQuery& query_ucq,
                      const std::vector<std::vector<BucketEntry>>& buckets,
                      const std::vector<size_t>& pick, BucketStats* stats,
                      UnionQuery* out) {
    // A single view copy may cover several query subgoals (a join through
    // a view existential — the MiniCon observation), so enumerate, for
    // each group of subgoals that chose the same view, every partition
    // into shared copies.
    std::map<int, std::vector<int>> by_view;  // view -> subgoal indices
    for (size_t i = 0; i < q.body.size(); ++i) {
      by_view[buckets[i][pick[i]].view_index].push_back(
          static_cast<int>(i));
    }
    std::vector<std::vector<std::vector<int>>> group_partitions;
    for (const auto& [view, subgoals] : by_view) {
      (void)view;
      group_partitions.push_back({});
      EnumeratePartitions(subgoals, &group_partitions.back());
    }
    // Product over the per-view partition choices.
    std::vector<size_t> choice(group_partitions.size(), 0);
    for (;;) {
      RELCONT_RETURN_NOT_OK(TryCopyAssignment(q, query_ucq, buckets, pick,
                                              by_view, group_partitions,
                                              choice, stats, out));
      size_t i = 0;
      while (i < choice.size() &&
             ++choice[i] == group_partitions[i].size()) {
        choice[i] = 0;
        ++i;
      }
      if (i == choice.size() || choice.empty()) break;
    }
    return Status::OK();
  }

  // Enumerates all set partitions of `items`, appending each as a list of
  // blocks encoded back-to-back; blocks are separated at reconstruction.
  // For simplicity each partition is stored flattened with block ids.
  void EnumeratePartitions(const std::vector<int>& items,
                           std::vector<std::vector<int>>* out) {
    // Restricted-growth strings: rgs[i] = block id of items[i].
    std::vector<int> rgs(items.size(), 0);
    std::function<void(size_t, int)> rec = [&](size_t i, int max_block) {
      if (i == items.size()) {
        out->push_back(rgs);
        return;
      }
      for (int b = 0; b <= max_block + 1; ++b) {
        rgs[i] = b;
        rec(i + 1, std::max(max_block, b));
      }
    };
    if (items.empty()) {
      out->push_back({});
    } else {
      rec(0, -1);
    }
  }

  Status TryCopyAssignment(
      const Rule& q, const UnionQuery& query_ucq,
      const std::vector<std::vector<BucketEntry>>& buckets,
      const std::vector<size_t>& pick,
      const std::map<int, std::vector<int>>& by_view,
      const std::vector<std::vector<std::vector<int>>>& group_partitions,
      const std::vector<size_t>& choice, BucketStats* stats,
      UnionQuery* out) {
    Substitution mgu;
    std::vector<Atom> body;
    size_t group = 0;
    for (const auto& [view_index, subgoals] : by_view) {
      const std::vector<int>& rgs = group_partitions[group][choice[group]];
      ++group;
      int blocks = 0;
      for (int b : rgs) blocks = std::max(blocks, b + 1);
      // One fresh copy per block; unify every subgoal of the block with
      // its chosen view subgoal in that copy.
      std::vector<Rule> copies;
      for (int b = 0; b < blocks; ++b) {
        copies.push_back(
            views_.NumberedView(view_index).RenameApart(interner_));
      }
      for (size_t k = 0; k < subgoals.size(); ++k) {
        int i = subgoals[k];
        const Rule& copy = copies[rgs[k]];
        const BucketEntry& entry = buckets[i][pick[i]];
        if (!UnifyAtoms(q.body[i], copy.body[entry.subgoal_index], &mgu)) {
          return Status::OK();  // inconsistent assignment
        }
      }
      for (const Rule& copy : copies) body.push_back(copy.head);
    }
    Rule candidate;
    candidate.head = mgu.Apply(q.head);
    for (Atom& a : body) candidate.body.push_back(mgu.Apply(a));
    // Safety: the head must not expose view existentials that vanished.
    if (!candidate.CheckSafe().ok()) return Status::OK();
    // Soundness: the candidate's expansion must be contained in the query.
    UnionQuery single;
    single.disjuncts.push_back(candidate);
    RELCONT_ASSIGN_OR_RETURN(UnionQuery expansion,
                             ExpandUnionPlan(single, views_, interner_));
    RELCONT_ASSIGN_OR_RETURN(bool sound,
                             UnionContainedInUnion(expansion, query_ucq));
    if (!sound) return Status::OK();
    if (stats != nullptr) ++stats->kept;
    out->disjuncts.push_back(std::move(candidate));
    return Status::OK();
  }

  const ViewSet& views_;
  Interner* interner_;
};

}  // namespace

Result<UnionQuery> BucketRewriting(const Program& query, SymbolId goal,
                                   const ViewSet& views, Interner* interner,
                                   BucketStats* stats) {
  RELCONT_RETURN_NOT_OK(query.CheckSafe());
  for (const Rule& r : query.rules) {
    if (!r.comparisons.empty()) {
      return Status::Unsupported(
          "the bucket implementation covers comparison-free queries");
    }
  }
  if (views.has_comparisons()) {
    return Status::Unsupported(
        "the bucket implementation covers comparison-free views");
  }
  RELCONT_ASSIGN_OR_RETURN(UnionQuery query_ucq,
                           UnfoldToUnion(query, goal, interner));
  return BucketBuilder(views, interner).Run(query_ucq, stats);
}

}  // namespace relcont

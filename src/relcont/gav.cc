#include "relcont/gav.h"

#include "containment/cq_containment.h"
#include "datalog/parser.h"
#include "eval/evaluator.h"

namespace relcont {

Status GavSchema::Validate() const {
  RELCONT_RETURN_NOT_OK(definitions_.CheckSafe());
  if (definitions_.IsRecursive()) {
    return Status::InvalidArgument("GAV definitions must be nonrecursive");
  }
  for (const Rule& r : definitions_.rules) {
    if (!r.comparisons.empty()) {
      return Status::Unsupported(
          "comparisons in GAV definitions are not supported");
    }
  }
  return Status::OK();
}

Result<UnionQuery> GavSchema::Compose(const Program& query, SymbolId goal,
                                      Interner* interner) const {
  RELCONT_RETURN_NOT_OK(Validate());
  RELCONT_RETURN_NOT_OK(query.CheckSafe());
  std::set<SymbolId> sources = SourcePredicates();
  for (const Rule& r : query.rules) {
    for (const Atom& a : r.body) {
      if (sources.count(a.predicate) > 0) {
        return Status::InvalidArgument(
            "query must be over the mediated schema, not the sources");
      }
    }
  }
  Program combined = query;
  for (const Rule& r : definitions_.rules) combined.rules.push_back(r);
  if (combined.IsRecursive()) {
    return Status::InvalidArgument(
        "query predicates collide with GAV definitions");
  }
  RELCONT_ASSIGN_OR_RETURN(UnionQuery composed,
                           UnfoldToUnion(combined, goal, interner));
  // A query subgoal over a mediated relation with no definition can never
  // produce answers; unfolding leaves it as an EDB atom, so filter.
  UnionQuery out;
  for (Rule& d : composed.disjuncts) {
    bool answerable = true;
    for (const Atom& a : d.body) {
      if (sources.count(a.predicate) == 0) {
        answerable = false;
        break;
      }
    }
    if (answerable) out.disjuncts.push_back(std::move(d));
  }
  return out;
}

Result<GavSchema> ParseGavSchema(std::string_view text, Interner* interner) {
  RELCONT_ASSIGN_OR_RETURN(Program program, ParseProgram(text, interner));
  GavSchema schema(std::move(program));
  RELCONT_RETURN_NOT_OK(schema.Validate());
  return schema;
}

Result<RelativeContainmentResult> GavRelativelyContained(
    const GoalQuery& q1, const GoalQuery& q2, const GavSchema& schema,
    Interner* interner) {
  RelativeContainmentResult out;
  RELCONT_ASSIGN_OR_RETURN(
      out.plan1, schema.Compose(q1.program, q1.goal, interner));
  RELCONT_ASSIGN_OR_RETURN(
      out.plan2, schema.Compose(q2.program, q2.goal, interner));
  out.contained = true;
  for (const Rule& d : out.plan1.disjuncts) {
    RELCONT_ASSIGN_OR_RETURN(bool contained,
                             CqContainedInUnion(d, out.plan2));
    if (!contained) {
      out.contained = false;
      out.witness = d;
      break;
    }
  }
  return out;
}

Result<std::vector<Tuple>> GavCertainAnswers(const Program& query,
                                             SymbolId goal,
                                             const GavSchema& schema,
                                             const Database& instance,
                                             Interner* interner) {
  RELCONT_ASSIGN_OR_RETURN(UnionQuery composed,
                           schema.Compose(query, goal, interner));
  Program program;
  for (Rule& d : composed.disjuncts) program.rules.push_back(std::move(d));
  if (program.rules.empty()) return std::vector<Tuple>{};
  return EvaluateGoal(program, goal, instance);
}

}  // namespace relcont

#include <gtest/gtest.h>

#include <chrono>
#include <random>
#include <string>

#include "containment/comparison_containment.h"
#include "binding/dom_containment.h"
#include "containment/expansion.h"
#include "datalog/parser.h"
#include "datalog/unfold.h"
#include "eval/evaluator.h"
#include "relcont/binding_containment.h"
#include "relcont/workload.h"
#include "service/protocol.h"
#include "service/service.h"

namespace relcont {
namespace {

// ---------------------------------------------------------------------------
// Parser robustness: malformed inputs must produce errors, never crashes,
// and every successfully parsed rule must round-trip through the printer.
// ---------------------------------------------------------------------------

TEST(ParserRobustnessTest, HandCraftedMalformedInputs) {
  const std::vector<std::string> bad = {
      "",            ".",             ":-",           "q(",
      "q).",         "q(X) :-",       "q(X) :- .",    "q(X) :- p(X),.",
      "q(X) p(X).",  "q(X) :- p(X)",  "(X) :- p(X).", "q(X) :- p(X)) .",
      "q(X] :- p.",  "q(X) :- p('a.", "1(X) :- p.",   "q(X) :- X < .",
      "q(X) :- < 3.", "q(X) :- p(X), X ! 3.",
  };
  Interner interner;
  for (const std::string& text : bad) {
    Result<Rule> r = ParseRule(text, &interner);
    EXPECT_FALSE(r.ok()) << "accepted: '" << text << "'";
  }
}

TEST(ParserRobustnessTest, RandomTokenSoupNeverCrashes) {
  const char* tokens[] = {"q",  "p",  "X",  "Y",  "(",  ")",  ",",
                          ".",  ":-", "<",  "<=", "=",  "!=", "1",
                          "2.5", "'s'", "f"};
  std::mt19937_64 rng(2024);
  std::uniform_int_distribution<int> pick(0, 16);
  std::uniform_int_distribution<int> length(1, 12);
  Interner interner;
  int accepted = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    std::string text;
    int n = length(rng);
    for (int i = 0; i < n; ++i) {
      text += tokens[pick(rng)];
      text += ' ';
    }
    Result<Rule> r = ParseRule(text, &interner);
    if (!r.ok()) continue;
    ++accepted;
    // Anything accepted must round-trip.
    std::string printed = r->ToString(interner);
    Result<Rule> again = ParseRule(printed, &interner);
    ASSERT_TRUE(again.ok()) << "no round trip for: " << printed;
    EXPECT_EQ(*r, *again) << printed;
  }
  // The soup occasionally forms valid rules; make sure the loop is not
  // vacuous.
  EXPECT_GT(accepted, 0);
}

TEST(ParserRobustnessTest, DeeplyNestedFunctionTerms) {
  Interner interner;
  std::string term = "X";
  for (int i = 0; i < 200; ++i) term = "f(" + term + ")";
  Result<Rule> r = ParseRule("q(X) :- p(" + term + ", X).", &interner);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->body[0].args[0].ToString(interner).size(), 200 * 2 + 1 + 200);
}

TEST(ParserRobustnessTest, LongProgramsParse) {
  Interner interner;
  std::string text;
  for (int i = 0; i < 500; ++i) {
    text += "q" + std::to_string(i) + "(X) :- p(X, " + std::to_string(i) +
            ").\n";
  }
  Result<Program> p = ParseProgram(text, &interner);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->rules.size(), 500u);
}

// ---------------------------------------------------------------------------
// Deep programs: resolution keeps its frames on the heap, so a long
// nonrecursive chain answers on every verb instead of overflowing the
// thread's stack.
// ---------------------------------------------------------------------------

/// p0(X) :- p1(X). ... p<n-1>(X) :- p<n>(X). p<n>(X) :- e(X).
std::string ChainRules(int n) {
  std::string text;
  for (int i = 0; i < n; ++i) {
    text += "p" + std::to_string(i) + "(X) :- p" + std::to_string(i + 1) +
            "(X). ";
  }
  return text + "p" + std::to_string(n) + "(X) :- e(X).";
}

constexpr int kDeepChain = 35000;

TEST(DeepProgramTest, LongChainUnfolds) {
  Interner interner;
  Result<Program> chain = ParseProgram(ChainRules(kDeepChain), &interner);
  ASSERT_TRUE(chain.ok()) << chain.status().ToString();
  Result<UnionQuery> u =
      UnfoldToUnion(*chain, interner.Intern("p0"), &interner);
  ASSERT_TRUE(u.ok()) << u.status().ToString();
  ASSERT_EQ(u->disjuncts.size(), 1u);
  EXPECT_EQ(u->disjuncts[0].ToString(interner).rfind("p0(", 0), 0u);
  ASSERT_EQ(u->disjuncts[0].body.size(), 1u);
  EXPECT_EQ(u->disjuncts[0].body[0].predicate, interner.Intern("e"));
}

TEST(DeepProgramTest, LongChainAnswersEveryVerb) {
  ContainmentService service;
  ServerSession session(&service);
  const std::string define = "DEFINE a " + ChainRules(kDeepChain);
  // Under the TCP line cap, so a network client can send it too.
  ASSERT_LT(define.size(), 1u << 20);
  ASSERT_EQ(session.HandleLine("CATALOG c VIEW v(X) :- e(X).").rfind("OK", 0),
            0u);
  ASSERT_EQ(session.HandleLine(define).rfind("OK", 0), 0u);
  ASSERT_EQ(session.HandleLine("DEFINE b b(X) :- e(X).").rfind("OK", 0), 0u);
  for (const char* request :
       {"CONTAINED? a b @c", "CONTAINED? b a @c", "REWRITE? a b @c",
        "EXPLAIN a b @c", "EXPLAIN JSON b a @c"}) {
    std::string reply = session.HandleLine(request);
    EXPECT_NE(reply.find("YES"), std::string::npos) << request << ": "
                                                    << reply.substr(0, 200);
  }
  std::string plan = session.HandleLine("PLAN? a @c");
  EXPECT_EQ(plan.rfind("OK plan", 0), 0u) << plan.substr(0, 200);
  EXPECT_NE(plan.find("p0(_R"), std::string::npos) << plan.substr(0, 200);
}

/// a(X0) :- e(X0, X1), ..., e(X<n-1>, X<n>): over v(X, Y) :- e(X, Y) each
/// e subgoal is an IDB subgoal of Q1's plan, so the plan unfolds one rule
/// with n of them.
std::string ChainRule(int n) {
  std::string text = "a(X0) :- ";
  for (int i = 0; i < n; ++i) {
    if (i > 0) text += ", ";
    text += "e(X" + std::to_string(i) + ", X" + std::to_string(i + 1) + ")";
  }
  return text + ".";
}

class LongRuleTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    ASSERT_EQ(session_.HandleLine("CATALOG c VIEW v(X, Y) :- e(X, Y).")
                  .rfind("OK", 0),
              0u);
    ASSERT_EQ(session_.HandleLine("DEFINE a " + ChainRule(GetParam()))
                  .rfind("OK", 0),
              0u);
    ASSERT_EQ(session_.HandleLine("DEFINE b b(X) :- e(X, Y).").rfind("OK", 0),
              0u);
  }

  ContainmentService service_;
  ServerSession session_{&service_};
};

// Unfolding is linear in the rule: a 30,000-atom chain answers in about
// 0.1 s in a Release build. The bound leaves room for sanitizer builds and
// still fails a quadratic unfold, which took minutes on this chain.
TEST_P(LongRuleTest, AnswersSection3InLinearTime) {
  const auto start = std::chrono::steady_clock::now();
  const std::string reply = session_.HandleLine("CONTAINED? a b @c");
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(reply.rfind("YES section3", 0), 0u) << reply;
  EXPECT_LT(elapsed, std::chrono::seconds(20));
}

// The budget charges every search node, so a small one stops the unfold.
TEST_P(LongRuleTest, SmallBudgetStopsTheUnfold) {
  const std::string reply =
      session_.HandleLine("CONTAINED? a b @c budget=1000");
  EXPECT_EQ(reply.rfind("ERR", 0), 0u) << reply;
  EXPECT_NE(reply.find("BoundReached: bound reached [unfold]"),
            std::string::npos)
      << reply;
}

INSTANTIATE_TEST_SUITE_P(Atoms, LongRuleTest, ::testing::Values(4000, 30000));

// ---------------------------------------------------------------------------
// Klug completeness: on semi-interval instances the entailment fast path
// must agree with the complete linearization test.
// ---------------------------------------------------------------------------

class KlugAgreementTest : public ::testing::TestWithParam<int> {};

TEST_P(KlugAgreementTest, FastPathAgreesWithCompleteTest) {
  Interner interner;
  std::mt19937_64 rng(static_cast<uint64_t>(GetParam()) * 7 + 1);
  auto random_semi_interval_query = [&](const char* head) {
    std::uniform_int_distribution<int> natoms(1, 2);
    std::uniform_int_distribution<int> nvar(0, 2);
    std::uniform_int_distribution<int> cval(0, 4);
    std::uniform_int_distribution<int> op(0, 3);
    std::uniform_int_distribution<int> ncmp(0, 2);
    Rule rule;
    int atoms = natoms(rng);
    for (int i = 0; i < atoms; ++i) {
      Atom a;
      a.predicate = interner.Intern("p");
      a.args.push_back(Term::Var(interner.Intern("V" + std::to_string(nvar(rng)))));
      a.args.push_back(Term::Var(interner.Intern("V" + std::to_string(nvar(rng)))));
      rule.body.push_back(a);
    }
    std::vector<SymbolId> vars = rule.BodyVariables();
    int cmps = ncmp(rng);
    for (int i = 0; i < cmps; ++i) {
      ComparisonOp o = op(rng) == 0   ? ComparisonOp::kLt
                       : op(rng) == 1 ? ComparisonOp::kLe
                       : op(rng) == 2 ? ComparisonOp::kGt
                                      : ComparisonOp::kGe;
      rule.comparisons.emplace_back(
          Term::Var(vars[static_cast<size_t>(nvar(rng)) % vars.size()]), o,
          Term::Number(Rational(cval(rng))));
    }
    rule.head = Atom(interner.Intern(head), {Term::Var(vars[0])});
    return rule;
  };
  Rule q1 = random_semi_interval_query("g1");
  Rule q2 = random_semi_interval_query("g2");
  Result<bool> fast = CqContainedViaEntailment(q1, q2);
  Result<bool> complete = CqContainedComplete(q1, q2);
  ASSERT_TRUE(fast.ok()) << fast.status().ToString();
  ASSERT_TRUE(complete.ok()) << complete.status().ToString();
  EXPECT_EQ(*fast, *complete)
      << q1.ToString(interner) << "  vs  " << q2.ToString(interner);
}

INSTANTIATE_TEST_SUITE_P(Seeds, KlugAgreementTest, ::testing::Range(0, 120));

// ---------------------------------------------------------------------------
// Randomized binding-pattern scenarios: the exact dom decider agrees with
// the bounded expansion oracle wherever the oracle is conclusive.
// ---------------------------------------------------------------------------

class DomRandomAgreementTest : public ::testing::TestWithParam<int> {};

TEST_P(DomRandomAgreementTest, ExactDeciderAgreesWithBoundedOracle) {
  Interner interner;
  uint64_t seed = static_cast<uint64_t>(GetParam());
  std::mt19937_64 rng(seed);
  // Scenario family: one free "seed" view over link(a, X) or p(X); one or
  // two adorned lookup views; a one-atom query; a random small UCQ cover.
  ViewSet views = *ParseViews(
      "seed(X) :- link(a, X).\n"
      "next(X, Y) :- link(X, Y).\n",
      &interner);
  BindingPatterns patterns;
  patterns.Set(interner.Lookup("next"), *Adornment::Parse("bf"));
  GoalQuery q1{*ParseProgram("q1(Y) :- link(X, Y).", &interner),
               interner.Lookup("q1")};
  // Random cover: subsets of {link(a,Y)} ∪ {suffix chains of length 2, 3}
  // ∪ {link(Y, Z) forward edge}.
  const std::vector<std::string> pool = {
      "qc(Y) :- link(a, Y).",
      "qc(Y) :- link(X1, X2), link(X2, Y).",
      "qc(Y) :- link(X1, X2), link(X2, X3), link(X3, Y).",
      "qc(Y) :- link(a, X2), link(X2, Y).",
      "qc(Y) :- link(Y, Z).",
  };
  std::string text;
  std::uniform_int_distribution<int> coin(0, 1);
  for (const std::string& d : pool) {
    if (coin(rng) == 1) text += d + "\n";
  }
  if (text.empty()) text = pool[0] + "\n";
  GoalQuery q2{*ParseProgram(text, &interner), interner.Lookup("qc")};

  Result<BindingRelativeResult> exact = RelativelyContainedWithBindingPatterns(
      q1, q2, views, patterns, &interner);
  ASSERT_TRUE(exact.ok()) << exact.status().ToString() << "\ncover:\n"
                          << text;

  // Oracle: bounded expansion search over the same expanded plan.
  Result<ExecutablePlanTemplate> plan =
      ExecutablePlanTemplate::Compile(views, patterns);
  ASSERT_TRUE(plan.ok());
  Result<ExpandedExecutablePlan> p1_exp =
      ExpandExecutablePlan(q1.program, q1.goal, views, &*plan, &interner);
  ASSERT_TRUE(p1_exp.ok());
  Result<UnionQuery> q2_ucq =
      UnfoldToUnion(q2.program, q2.goal, &interner);
  ASSERT_TRUE(q2_ucq.ok());
  ExpansionOptions bounds;
  bounds.max_rule_applications = 9;
  Result<bool> oracle = DatalogContainedInUcqBounded(
      p1_exp->program, q1.goal, *q2_ucq, &interner, bounds);
  if (oracle.ok()) {
    EXPECT_EQ(exact->contained, *oracle) << "cover:\n" << text;
  } else {
    ASSERT_EQ(oracle.status().code(), StatusCode::kBoundReached);
    EXPECT_TRUE(exact->contained) << "cover:\n" << text;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DomRandomAgreementTest,
                         ::testing::Range(0, 60));

// Branching (tree-shaped) dom recursion: guards with two children.
class DomTreeAgreementTest : public ::testing::TestWithParam<int> {};

TEST_P(DomTreeAgreementTest, ExactDeciderAgreesWithBoundedOracle) {
  Interner interner;
  uint64_t seed = static_cast<uint64_t>(GetParam());
  std::mt19937_64 rng(seed);
  // Hand-written dom program with a two-guard rule (derivation TREES).
  Program prog = *ParseProgram(
      "q(Z) :- t(X, Y, Z), dom(X), dom(Y).\n"
      "dom(c).\n"
      "dom(d).\n"
      "dom(Z) :- t(X, Y, Z), dom(X), dom(Y).\n",
      &interner);
  const std::vector<std::string> pool = {
      "p(Z) :- t(X, Y, Z).",
      "p(Z) :- t(c, c, Z).",
      "p(Z) :- t(c, d, Z).",
      "p(Z) :- t(A, B, Z), t(X, Y, A).",
      "p(Z) :- t(A, B, Z), t(X, Y, B).",
      "p(Z) :- t(A, A, Z).",
  };
  UnionQuery ucq;
  std::uniform_int_distribution<int> coin(0, 1);
  for (const std::string& d : pool) {
    if (coin(rng) == 1) ucq.disjuncts.push_back(*ParseRule(d, &interner));
  }
  if (ucq.disjuncts.empty()) {
    ucq.disjuncts.push_back(*ParseRule(pool[0], &interner));
  }
  Result<DomContainmentResult> exact = DomPlanContainedInUcq(
      prog, interner.Lookup("q"), interner.Lookup("dom"), ucq, &interner);
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  ExpansionOptions bounds;
  bounds.max_rule_applications = 6;
  Result<bool> oracle = DatalogContainedInUcqBounded(
      prog, interner.Lookup("q"), ucq, &interner, bounds);
  if (oracle.ok()) {
    EXPECT_EQ(exact->contained, *oracle) << "seed " << seed;
  } else {
    ASSERT_EQ(oracle.status().code(), StatusCode::kBoundReached);
    EXPECT_TRUE(exact->contained) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DomTreeAgreementTest,
                         ::testing::Range(0, 60));

// A large randomized soak of the full Section 3 pipeline: for random
// workloads, every positive containment decision must survive
// certain-answer sampling, and containment must be reflexive and
// transitive on the sampled workload.
TEST(SoakTest, Section3PipelineInvariants) {
  Interner interner;
  RandomQueryOptions opts;
  opts.num_atoms = 2;
  opts.num_variables = 3;
  opts.num_predicates = 2;
  opts.constant_probability = 0.0;
  opts.head_arity = 1;
  opts.seed = 424242;
  ViewSet views = RandomViews(opts, 4, &interner);
  ASSERT_FALSE(views.empty());
  std::vector<GoalQuery> workload;
  for (int i = 0; i < 8; ++i) {
    opts.seed = 5000 + i;
    Program p({RandomConjunctiveQuery(
        opts, ("w" + std::to_string(i)).c_str(), &interner)});
    if (!p.CheckSafe().ok()) continue;
    workload.push_back({p, p.rules[0].head.predicate});
  }
  ASSERT_GE(workload.size(), 4u);
  int n = static_cast<int>(workload.size());
  std::vector<std::vector<bool>> contained(n, std::vector<bool>(n));
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      Result<RelativeContainmentResult> r = RelativelyContained(
          workload[i], workload[j], views, &interner);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      contained[i][j] = r->contained;
    }
    EXPECT_TRUE(contained[i][i]) << "reflexivity";
  }
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      for (int k = 0; k < n; ++k) {
        if (contained[i][j] && contained[j][k]) {
          EXPECT_TRUE(contained[i][k]) << "transitivity " << i << "->" << j
                                       << "->" << k;
        }
      }
    }
  }
}

}  // namespace
}  // namespace relcont

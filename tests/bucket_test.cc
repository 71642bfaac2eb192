#include <gtest/gtest.h>

#include "containment/cq_containment.h"
#include "datalog/parser.h"
#include "relcont/workload.h"
#include "rewriting/bucket.h"
#include "rewriting/inverse_rules.h"

namespace relcont {
namespace {

class BucketTest : public ::testing::Test {
 protected:
  ViewSet V(const std::string& text) {
    Result<ViewSet> v = ParseViews(text, &interner_);
    EXPECT_TRUE(v.ok()) << v.status().ToString();
    return *v;
  }
  Program P(const std::string& text) {
    Result<Program> p = ParseProgram(text, &interner_);
    EXPECT_TRUE(p.ok()) << p.status().ToString();
    return *p;
  }
  SymbolId S(const char* name) { return interner_.Intern(name); }

  // Both pipelines on the same inputs.
  void ExpectAgreement(const Program& q, const char* goal,
                       const ViewSet& views) {
    Result<UnionQuery> bucket =
        BucketRewriting(q, S(goal), views, &interner_);
    ASSERT_TRUE(bucket.ok()) << bucket.status().ToString();
    Result<UnionQuery> inverse = UnionPlan(q, S(goal), views, &interner_);
    ASSERT_TRUE(inverse.ok()) << inverse.status().ToString();
    Result<bool> eq = UnionEquivalent(*bucket, *inverse);
    ASSERT_TRUE(eq.ok()) << eq.status().ToString();
    EXPECT_TRUE(*eq) << "bucket:\n"
                     << bucket->ToString(interner_) << "inverse-rules:\n"
                     << inverse->ToString(interner_);
  }

  Interner interner_;
};

TEST_F(BucketTest, MatchesInverseRulesOnExample3) {
  ViewSet views = V(
      "redcars(C, M, Y) :- cardesc(C, M, red, Y).\n"
      "antiquecars(C, M, Y) :- cardesc(C, M, Col, Y).\n"
      "caranddriver(M, R) :- review(M, R, 10).\n");
  Program q = P(
      "q1(C, R) :- cardesc(C, M, Col, Y), review(M, R, Rat).");
  ExpectAgreement(q, "q1", views);
}

TEST_F(BucketTest, MatchesOnProjectionViews) {
  ViewSet views = V(
      "v1(X) :- p(X, Y).\n"
      "v2(Y) :- p(X, Y).\n"
      "v3(X, Y) :- p(X, Y), r(X, Y).\n");
  Program q = P("q(X, Y) :- p(X, Y).");
  ExpectAgreement(q, "q", views);
}

TEST_F(BucketTest, MatchesOnJoinThroughExistential) {
  ViewSet views = V("src(X, Y) :- p(X, Z), q(Z, Y).");
  Program query = P("qq(X, Y) :- p(X, Z), q(Z, Y).");
  ExpectAgreement(query, "qq", views);
}

TEST_F(BucketTest, MatchesWhenSubgoalUnanswerable) {
  ViewSet views = V("v(X) :- p(X).");
  Program q = P("q(X) :- p(X), s(X).");
  Result<UnionQuery> bucket = BucketRewriting(q, S("q"), views, &interner_);
  ASSERT_TRUE(bucket.ok());
  EXPECT_TRUE(bucket->disjuncts.empty());
}

TEST_F(BucketTest, MatchesOnConstantsInViews) {
  ViewSet views = V(
      "top(M, R) :- review(M, R, 10).\n"
      "any(M, R, S) :- review(M, R, S).\n");
  Program q = P("q(M, R) :- review(M, R, 10).");
  ExpectAgreement(q, "q", views);
}

TEST_F(BucketTest, MatchesOnUnionQueries) {
  ViewSet views = V(
      "v1(X) :- a(X).\n"
      "v2(X) :- b(X).\n");
  Program q = P(
      "q(X) :- a(X).\n"
      "q(X) :- b(X).\n");
  ExpectAgreement(q, "q", views);
}

TEST_F(BucketTest, StatsReportBucketsAndCandidates) {
  ViewSet views = V(
      "v1(X, Y) :- p(X, Y).\n"
      "v2(X, Y) :- p(X, Y).\n");
  Program q = P("q(X) :- p(X, Y), p(Y, X).");
  BucketStats stats;
  Result<UnionQuery> bucket =
      BucketRewriting(q, S("q"), views, &interner_, &stats);
  ASSERT_TRUE(bucket.ok());
  ASSERT_EQ(stats.bucket_sizes.size(), 2u);
  EXPECT_EQ(stats.bucket_sizes[0], 2);
  EXPECT_EQ(stats.bucket_sizes[1], 2);
  EXPECT_EQ(stats.candidates, 4);
  // Each candidate may keep several copy-sharing variants (MiniCon-style
  // coverage of two subgoals by one view copy).
  EXPECT_GE(stats.kept, 4);
}

TEST_F(BucketTest, RejectsComparisons) {
  ViewSet views = V("v(X) :- p(X).");
  Program q = P("q(X) :- p(X), X < 3.");
  EXPECT_EQ(BucketRewriting(q, S("q"), views, &interner_).status().code(),
            StatusCode::kUnsupported);
}

// Randomized cross-validation of the two independent pipelines.
class BucketAgreementTest : public ::testing::TestWithParam<int> {};

TEST_P(BucketAgreementTest, BucketEquivalentToInverseRules) {
  Interner interner;
  uint64_t seed = static_cast<uint64_t>(GetParam());
  RandomQueryOptions opts;
  opts.seed = seed;
  opts.num_atoms = 2;
  opts.num_variables = 3;
  opts.num_predicates = 2;
  opts.constant_probability = 0.1;
  opts.head_arity = 1;
  ViewSet views = RandomViews(opts, 3, &interner);
  if (views.empty()) return;
  Program q({RandomConjunctiveQuery(opts, "g", &interner)});
  if (!q.CheckSafe().ok()) return;
  SymbolId goal = q.rules[0].head.predicate;

  Result<UnionQuery> bucket = BucketRewriting(q, goal, views, &interner);
  ASSERT_TRUE(bucket.ok()) << bucket.status().ToString();
  Result<UnionQuery> inverse = UnionPlan(q, goal, views, &interner);
  ASSERT_TRUE(inverse.ok());
  Result<bool> eq = UnionEquivalent(*bucket, *inverse);
  ASSERT_TRUE(eq.ok());
  EXPECT_TRUE(*eq) << "seed " << seed << "\nbucket:\n"
                   << bucket->ToString(interner) << "inverse:\n"
                   << inverse->ToString(interner);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BucketAgreementTest, ::testing::Range(0, 80));

}  // namespace
}  // namespace relcont

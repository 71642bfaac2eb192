// Unit tests for the bitset dense-order engine (constraints/dense_order.h):
// the compile-time Invert/Compose tables (exhaustive over all 8 relation
// sets), path-consistency closure on the pair matrix, refutation-based
// entailment, and the OrderConstraints streaming DFS against brute-force
// linearization semantics on small point sets.

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "constraints/dense_order.h"
#include "constraints/order_constraints.h"
#include "datalog/parser.h"
#include "support/linearization_oracle.h"
#include "trace/trace.h"

namespace relcont {
namespace constraints {
namespace {

// ---------------------------------------------------------------------------
// Table tests. The 3-bit encoding makes every property exhaustively
// checkable; the algebraic identities are pinned at compile time.

static_assert(kRelLe == (kRelLt | kRelEq), "LE is {<,=}");
static_assert(kRelNe == (kRelLt | kRelGt), "NE is {<,>}");
static_assert(kRelAny == 7 && kRelNone == 0, "3-bit encoding");

// Invert swaps the strict bits and fixes EQ.
static_assert(Invert(kRelLt) == kRelGt, "converse of <");
static_assert(Invert(kRelGt) == kRelLt, "converse of >");
static_assert(Invert(kRelEq) == kRelEq, "= is its own converse");
static_assert(Invert(kRelLe) == kRelGe, "converse of <=");
static_assert(Invert(kRelNe) == kRelNe, "!= is its own converse");
static_assert(Invert(kRelAny) == kRelAny && Invert(kRelNone) == kRelNone,
              "top and bottom are fixed points");

// Primitive composition: EQ is the identity, strict relations chain, and
// opposed strict relations say nothing over a dense unbounded order.
static_assert(Compose(kRelLt, kRelLt) == kRelLt, "< chains");
static_assert(Compose(kRelGt, kRelGt) == kRelGt, "> chains");
static_assert(Compose(kRelLt, kRelGt) == kRelAny, "x<y>z is unconstrained");
static_assert(Compose(kRelGt, kRelLt) == kRelAny, "x>y<z is unconstrained");
static_assert(Compose(kRelEq, kRelLt) == kRelLt, "= is a left identity");
static_assert(Compose(kRelGe, kRelEq) == kRelGe, "= is a right identity");

// Set-level spot checks: LE∘LE = LE (only <∘<, <∘=, =∘<, =∘= fire), and a
// disequality chained with anything strict-free degenerates to Any.
static_assert(Compose(kRelLe, kRelLe) == kRelLe, "<= chains");
static_assert(Compose(kRelGe, kRelGe) == kRelGe, ">= chains");
static_assert(Compose(kRelLe, kRelLt) == kRelLt, "<= then < is <");
static_assert(Compose(kRelNe, kRelNe) == kRelAny, "!= does not chain");
static_assert(Compose(kRelNone, kRelAny) == kRelNone, "bottom annihilates");
static_assert(Compose(kRelAny, kRelNone) == kRelNone, "bottom annihilates");

TEST(DenseOrderTableTest, InvertIsAnInvolutionAndPreservesUnions) {
  for (int r = 0; r < 8; ++r) {
    RelSet s = static_cast<RelSet>(r);
    EXPECT_EQ(Invert(Invert(s)), s) << "relset " << r;
    // Invert distributes over the bit union by construction; verify
    // against the per-primitive definition.
    RelSet expect = kRelNone;
    if (s & kRelLt) expect |= kRelGt;
    if (s & kRelEq) expect |= kRelEq;
    if (s & kRelGt) expect |= kRelLt;
    EXPECT_EQ(Invert(s), expect) << "relset " << r;
  }
}

TEST(DenseOrderTableTest, ComposeTableMatchesUnionOfPrimitives) {
  // The baked table must equal the union-of-primitive-compositions
  // definition, recomputed here independently at runtime.
  for (int a = 0; a < 8; ++a) {
    for (int b = 0; b < 8; ++b) {
      RelSet expect = kRelNone;
      for (RelSet pa : {kRelLt, kRelEq, kRelGt}) {
        for (RelSet pb : {kRelLt, kRelEq, kRelGt}) {
          if ((a & pa) && (b & pb)) {
            expect |= ComposePrimitive(pa, pb);
          }
        }
      }
      EXPECT_EQ(Compose(static_cast<RelSet>(a), static_cast<RelSet>(b)),
                expect)
          << "Compose(" << a << ", " << b << ")";
    }
  }
}

TEST(DenseOrderTableTest, ComposeIsAssociativeAndMonotone) {
  // Associativity: (a∘b)∘c == a∘(b∘c) for all 512 triples — the point
  // algebra is a relation algebra, so the set-level table must inherit it.
  for (int a = 0; a < 8; ++a) {
    for (int b = 0; b < 8; ++b) {
      for (int c = 0; c < 8; ++c) {
        RelSet sa = static_cast<RelSet>(a);
        RelSet sb = static_cast<RelSet>(b);
        RelSet sc = static_cast<RelSet>(c);
        EXPECT_EQ(Compose(Compose(sa, sb), sc), Compose(sa, Compose(sb, sc)))
            << a << " " << b << " " << c;
      }
    }
  }
  // Monotonicity: shrinking an argument can only shrink the composition.
  for (int a = 0; a < 8; ++a) {
    for (int b = 0; b < 8; ++b) {
      for (int sub = 0; sub < 8; ++sub) {
        if ((sub & a) != sub) continue;  // sub ⊆ a only
        RelSet narrowed = Compose(static_cast<RelSet>(sub),
                                  static_cast<RelSet>(b));
        RelSet full = Compose(static_cast<RelSet>(a), static_cast<RelSet>(b));
        EXPECT_EQ(narrowed & full, narrowed)
            << "Compose not monotone at " << a << "/" << sub << ", " << b;
      }
    }
  }
}

TEST(DenseOrderTableTest, ConverseOfCompositionIsReversedComposition) {
  // Invert(a∘b) == Invert(b)∘Invert(a) — the law the mirror invariant of
  // the matrix leans on.
  for (int a = 0; a < 8; ++a) {
    for (int b = 0; b < 8; ++b) {
      RelSet sa = static_cast<RelSet>(a);
      RelSet sb = static_cast<RelSet>(b);
      EXPECT_EQ(Invert(Compose(sa, sb)), Compose(Invert(sb), Invert(sa)))
          << a << " " << b;
    }
  }
}

// ---------------------------------------------------------------------------
// Matrix tests.

TEST(DenseOrderMatrixTest, FreshMatrixIsUnconstrained) {
  DenseOrderMatrix m(3);
  EXPECT_TRUE(m.Close());
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      EXPECT_EQ(m.rel(i, j), i == j ? kRelEq : kRelAny);
    }
  }
}

TEST(DenseOrderMatrixTest, ClosurePropagatesChainsAndKeepsMirror) {
  DenseOrderMatrix m(4);
  ASSERT_TRUE(m.Restrict(0, 1, kRelLt));
  ASSERT_TRUE(m.Restrict(1, 2, kRelLt));
  ASSERT_TRUE(m.Restrict(2, 3, kRelLe));
  ASSERT_TRUE(m.Close());
  EXPECT_EQ(m.rel(0, 2), kRelLt);
  EXPECT_EQ(m.rel(0, 3), kRelLt);
  EXPECT_EQ(m.rel(1, 3), kRelLt);
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      EXPECT_EQ(m.rel(j, i), Invert(m.rel(i, j))) << i << " " << j;
    }
  }
}

TEST(DenseOrderMatrixTest, ClosureIsIdempotent) {
  DenseOrderMatrix m(5);
  ASSERT_TRUE(m.Restrict(0, 1, kRelLe));
  ASSERT_TRUE(m.Restrict(1, 2, kRelNe));
  ASSERT_TRUE(m.Restrict(2, 3, kRelLt));
  ASSERT_TRUE(m.Restrict(3, 4, kRelGe));
  ASSERT_TRUE(m.Close());
  std::vector<RelSet> before;
  for (int i = 0; i < 5; ++i) {
    for (int j = 0; j < 5; ++j) before.push_back(m.rel(i, j));
  }
  uint64_t props = m.propagations();
  ASSERT_TRUE(m.Close());  // a second Close must be a no-op
  EXPECT_EQ(m.propagations(), props);
  std::vector<RelSet> after;
  for (int i = 0; i < 5; ++i) {
    for (int j = 0; j < 5; ++j) after.push_back(m.rel(i, j));
  }
  EXPECT_EQ(before, after);
}

TEST(DenseOrderMatrixTest, StrictCycleClosesToInconsistent) {
  DenseOrderMatrix m(3);
  ASSERT_TRUE(m.Restrict(0, 1, kRelLt));
  ASSERT_TRUE(m.Restrict(1, 2, kRelLt));
  ASSERT_TRUE(m.Restrict(2, 0, kRelLe));
  EXPECT_FALSE(m.Close());
  EXPECT_FALSE(m.consistent());
}

TEST(DenseOrderMatrixTest, RestrictToEmptyFailsFast) {
  DenseOrderMatrix m(2);
  ASSERT_TRUE(m.Restrict(0, 1, kRelLt));
  EXPECT_FALSE(m.Restrict(0, 1, kRelGe));  // {<} ∩ {>,=} = ∅
  EXPECT_FALSE(m.consistent());
}

TEST(DenseOrderMatrixTest, EntailsDerivesWhatClosureLeavesImplicit) {
  // The sandwich network {w<=x, w<=y, x<=z, y<=z, x!=y}: path consistency
  // leaves rel(w,z) at {<,=} but every solution has w<z, because x and y
  // cannot both coincide with w and z at once. Refutation must find it.
  DenseOrderMatrix m(4);  // 0=w, 1=x, 2=y, 3=z
  ASSERT_TRUE(m.Restrict(0, 1, kRelLe));
  ASSERT_TRUE(m.Restrict(0, 2, kRelLe));
  ASSERT_TRUE(m.Restrict(1, 3, kRelLe));
  ASSERT_TRUE(m.Restrict(2, 3, kRelLe));
  ASSERT_TRUE(m.Restrict(1, 2, kRelNe));
  ASSERT_TRUE(m.Close());
  // Documents the non-minimality: the closed cell still allows equality...
  EXPECT_EQ(m.rel(0, 3), kRelLe);
  // ...yet the strict relation is entailed, and equality is refutable.
  EXPECT_TRUE(m.Entails(0, 3, kRelLt));
  EXPECT_FALSE(m.Entails(0, 3, kRelEq));
  // Entails must not mutate the matrix it refutes on.
  EXPECT_EQ(m.rel(0, 3), kRelLe);
  EXPECT_TRUE(m.consistent());
}

TEST(DenseOrderMatrixTest, EntailsAgainstBruteForceOnAllSmallNetworks) {
  // For every assignment of a base constraint to the three pairs of a
  // 3-point network, check Entails against brute-force semantics: a
  // primitive p is possible for (i,j) iff some rank assignment
  // (ranks in {0,1,2}, i.e. a weak order) satisfies the base constraints
  // and relates i,j by p. Entails(i,j,claim) iff possible ⊆ claim.
  const RelSet bases[] = {kRelLt, kRelLe, kRelEq, kRelNe, kRelGe, kRelAny};
  for (RelSet c01 : bases) {
    for (RelSet c02 : bases) {
      for (RelSet c12 : bases) {
        DenseOrderMatrix m(3);
        m.Restrict(0, 1, c01);
        m.Restrict(0, 2, c02);
        m.Restrict(1, 2, c12);
        bool consistent = m.Close();
        // Brute force over all 27 rank assignments.
        auto prim = [](int a, int b) {
          return a < b ? kRelLt : a == b ? kRelEq : kRelGt;
        };
        RelSet possible[3][3] = {};
        bool sat = false;
        for (int r0 = 0; r0 < 3; ++r0) {
          for (int r1 = 0; r1 < 3; ++r1) {
            for (int r2 = 0; r2 < 3; ++r2) {
              int rank[3] = {r0, r1, r2};
              if (!(prim(r0, r1) & c01) || !(prim(r0, r2) & c02) ||
                  !(prim(r1, r2) & c12)) {
                continue;
              }
              sat = true;
              for (int i = 0; i < 3; ++i) {
                for (int j = 0; j < 3; ++j) {
                  possible[i][j] |= prim(rank[i], rank[j]);
                }
              }
            }
          }
        }
        ASSERT_EQ(consistent, sat)
            << "network " << int{c01} << "/" << int{c02} << "/" << int{c12};
        if (!consistent) continue;
        for (int i = 0; i < 3; ++i) {
          for (int j = 0; j < 3; ++j) {
            for (int claim = 0; claim < 8; ++claim) {
              bool expect = (possible[i][j] & ~claim & kRelAny) == 0;
              EXPECT_EQ(m.Entails(i, j, static_cast<RelSet>(claim)), expect)
                  << "network " << int{c01} << "/" << int{c02} << "/"
                  << int{c12} << " pair (" << i << "," << j << ") claim "
                  << claim;
            }
          }
        }
      }
    }
  }
}

TEST(DenseOrderStatsTest, ClosureCountsEveryPropagation) {
  const size_t counter =
      static_cast<size_t>(trace::Counter::kDenseOrderPropagations);
  const uint64_t before = trace::ThreadCounts()[counter];
  DenseOrderMatrix m(6);
  for (int i = 0; i + 1 < 6; ++i) ASSERT_TRUE(m.Restrict(i, i + 1, kRelLt));
  ASSERT_TRUE(m.Close());
  EXPECT_GT(m.propagations(), 0u);
  // Every narrowing, the base restrictions included, is counted once.
  EXPECT_EQ(trace::ThreadCounts()[counter] - before, m.propagations());
}

}  // namespace
}  // namespace constraints

// ---------------------------------------------------------------------------
// OrderConstraints-level tests: the streaming DFS against brute-force
// linearization semantics on <= 5 points.

namespace {

class DenseOrderEngineTest : public ::testing::Test {
 protected:
  std::vector<Comparison> Cmp(const std::string& comparisons) {
    Result<Rule> r =
        ParseRule("q() :- p(A, B, C, D, E), " + comparisons + ".", &interner_);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r->comparisons;
  }
  Comparison One(const std::string& c) { return Cmp(c)[0]; }
  Term Var(const char* name) { return Term::Var(interner_.Intern(name)); }

  // Collects the streamed linearizations, asserting a complete stream.
  std::vector<Linearization> Streamed(const OrderConstraints& c) {
    std::vector<Linearization> out;
    Status s = c.ForEachLinearization([&](const Linearization& lin) {
      out.push_back(lin);
      return true;
    });
    EXPECT_TRUE(s.ok()) << s.ToString();
    return out;
  }

  Interner interner_;
};

TEST_F(DenseOrderEngineTest, StreamMatchesOracleOnConstrainedSets) {
  const char* cases[] = {
      "A <= B, B <= C",
      "A < B, C < B",
      "A != B, B != C, A != C",
      "A <= B, B <= A, C < A",
      "A < B, B < C, C < D",
      "A <= B, C <= D, A != D",
  };
  for (const char* text : cases) {
    OrderConstraints c;
    ASSERT_TRUE(c.AddAll(Cmp(text)).ok()) << text;
    Result<std::vector<Linearization>> oracle = EnumerateLinearizations(c);
    ASSERT_TRUE(oracle.ok()) << text;
    std::vector<Linearization> streamed = Streamed(c);
    std::vector<Linearization> expect = *oracle;
    std::sort(expect.begin(), expect.end());
    std::sort(streamed.begin(), streamed.end());
    EXPECT_EQ(streamed, expect) << text;
  }
}

TEST_F(DenseOrderEngineTest, StreamStopsWhenVisitorDeclines) {
  OrderConstraints c;
  ASSERT_TRUE(c.AddAll(Cmp("A != B")).ok());
  int seen = 0;
  Status s = c.ForEachLinearization([&](const Linearization&) {
    ++seen;
    return false;  // first linearization is enough
  });
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(seen, 1);
}

TEST_F(DenseOrderEngineTest, UnsatisfiableSetStreamsNothing) {
  OrderConstraints c;
  ASSERT_TRUE(c.AddAll(Cmp("A < B, B < A")).ok());
  EXPECT_TRUE(Streamed(c).empty());
  Result<std::vector<Linearization>> oracle = EnumerateLinearizations(c);
  ASSERT_TRUE(oracle.ok());
  EXPECT_TRUE(oracle->empty());
}

TEST_F(DenseOrderEngineTest, EntailmentMatchesLinearizationSemanticsOn5Points) {
  // On every case: Entails(c) must equal "every streamed linearization's
  // realization satisfies c" — the definition of entailment over a finite
  // point set (dense-order solutions beyond the registered points cannot
  // refute claims about registered points).
  const char* cases[] = {
      "A <= B, B <= C, C <= A",
      "A < B, C <= D, D <= E",
      "A != B, B <= C, C <= D, D <= B",
      "A <= C, B <= C, C <= D, A != B, D <= E",
  };
  const char* claims[] = {"A < C",  "A <= C", "A = C", "A != C",
                          "B <= D", "B = C",  "A < E", "E >= A"};
  for (const char* text : cases) {
    OrderConstraints c;
    ASSERT_TRUE(c.AddAll(Cmp(text)).ok()) << text;
    for (const char* claim_text : claims) {
      Comparison claim = One(claim_text);
      // Entails treats unregistered terms as unconstrained; the brute
      // force below can only evaluate registered points.
      if (c.PointIndex(claim.lhs) < 0 || c.PointIndex(claim.rhs) < 0) {
        continue;
      }
      bool expect = true;
      Status s = c.ForEachLinearization([&](const Linearization& lin) {
        std::map<Term, Rational> sigma = c.Realize(lin);
        auto value = [&](const Term& t) { return sigma.at(t); };
        Rational a = value(claim.lhs);
        Rational b = value(claim.rhs);
        bool holds = false;
        switch (claim.op) {
          case ComparisonOp::kLt: holds = a < b; break;
          case ComparisonOp::kLe: holds = a <= b; break;
          case ComparisonOp::kGt: holds = a > b; break;
          case ComparisonOp::kGe: holds = a >= b; break;
          case ComparisonOp::kEq: holds = a == b; break;
          case ComparisonOp::kNe: holds = a != b; break;
        }
        if (!holds) {
          expect = false;
          return false;
        }
        return true;
      });
      ASSERT_TRUE(s.ok()) << text;
      EXPECT_EQ(c.Entails(claim), expect)
          << "constraints {" << text << "} claim " << claim_text;
    }
  }
}

}  // namespace
}  // namespace relcont

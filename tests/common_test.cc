#include <gtest/gtest.h>

#include "common/interner.h"
#include "common/rational.h"
#include "common/status.h"

namespace relcont {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad arity");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad arity");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad arity");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeToString(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kUnsafe), "Unsafe");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kUnsupported), "Unsupported");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kBoundReached), "BoundReached");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kInternal), "Internal");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::Unsupported("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnsupported);
}

Result<int> Halve(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> Quarter(int x) {
  RELCONT_ASSIGN_OR_RETURN(int half, Halve(x));
  return Halve(half);
}

TEST(ResultTest, AssignOrReturnMacroPropagates) {
  Result<int> ok = Quarter(8);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 2);
  Result<int> err = Quarter(6);  // 6/2 = 3, odd
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kInvalidArgument);
}

TEST(InternerTest, InternIsIdempotent) {
  Interner interner;
  SymbolId a = interner.Intern("foo");
  SymbolId b = interner.Intern("foo");
  SymbolId c = interner.Intern("bar");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(interner.NameOf(a), "foo");
  EXPECT_EQ(interner.NameOf(c), "bar");
}

TEST(InternerTest, LookupMissesWithoutIntern) {
  Interner interner;
  EXPECT_EQ(interner.Lookup("ghost"), kInvalidSymbol);
  interner.Intern("ghost");
  EXPECT_NE(interner.Lookup("ghost"), kInvalidSymbol);
}

TEST(InternerTest, FreshAvoidsCollisions) {
  Interner interner;
  interner.Intern("_v0");
  SymbolId f = interner.Fresh("_v");
  EXPECT_EQ(interner.NameOf(f), "_v1");
  SymbolId g = interner.Fresh("_v");
  EXPECT_NE(f, g);
}

TEST(InternerTest, RollbackReusesFreshIdsAndSizeIsMonotone) {
  Interner interner;
  SymbolId p = interner.Intern("p");
  Interner::FreshMark mark = interner.Mark();
  SymbolId a = interner.Fresh("_R");
  SymbolId b = interner.Fresh("_k");
  EXPECT_EQ(interner.NameOf(a), "_R0");
  EXPECT_EQ(interner.NameOf(b), "_k1");
  EXPECT_EQ(interner.live_fresh_count(), 2);
  int64_t size = interner.size();
  EXPECT_EQ(size, 3);

  interner.Rollback(mark);
  EXPECT_EQ(interner.live_fresh_count(), 0);
  EXPECT_EQ(interner.size(), size);  // rollback never lowers size()
  // The same ids and spellings come back, now under other prefixes.
  SymbolId c = interner.Fresh("_k");
  SymbolId d = interner.Fresh("_R");
  EXPECT_EQ(c, a);
  EXPECT_EQ(d, b);
  EXPECT_EQ(interner.NameOf(c), "_k0");
  EXPECT_EQ(interner.NameOf(d), "_R1");
  EXPECT_EQ(interner.size(), size + 2);
  EXPECT_EQ(interner.named_count(), 1);
  EXPECT_EQ(interner.NameOf(p), "p");
}

TEST(InternerTest, LiveFreshNameIsStable) {
  Interner interner;
  SymbolId f = interner.Fresh("_R");
  const std::string& name = interner.NameOf(f);
  // Minting many more ids moves no rendered name.
  for (int i = 0; i < 10'000; ++i) (void)interner.NameOf(interner.Fresh("_R"));
  EXPECT_EQ(&interner.NameOf(f), &name);
  EXPECT_EQ(name, "_R0");
  // Nested marks: an inner rollback leaves the outer ids live.
  Interner::FreshMark mark = interner.Mark();
  SymbolId g = interner.Fresh("_k");
  std::string g_name = interner.NameOf(g);
  interner.Rollback(mark);
  EXPECT_EQ(interner.NameOf(f), "_R0");
  EXPECT_EQ(interner.NameOf(interner.Fresh("_k")), g_name);
}

TEST(InternerTest, FreshSkipsNamesInternedAfterARollback) {
  Interner interner;
  Interner::FreshMark mark = interner.Mark();
  EXPECT_EQ(interner.NameOf(interner.Fresh("_R")), "_R0");
  interner.Rollback(mark);
  // A query names a variable like the released fresh id: the next request
  // must not mint that spelling again.
  SymbolId user = interner.Intern("_R0");
  SymbolId f = interner.Fresh("_R");
  EXPECT_NE(f, user);
  EXPECT_EQ(interner.NameOf(f), "_R1");
  // A non-canonical counter is not the shape: "_R02" never collides.
  interner.Intern("_R02");
  EXPECT_EQ(interner.NameOf(interner.Fresh("_R")), "_R2");
}

TEST(InternerTest, IsFreshChecksProvenanceNotSpelling) {
  Interner interner;
  SymbolId data = interner.Intern("_null0");
  SymbolId null = interner.Fresh("_null");
  EXPECT_EQ(interner.NameOf(null), "_null1");
  EXPECT_TRUE(interner.IsFresh(null, "_null"));
  EXPECT_FALSE(interner.IsFresh(null, "_k"));
  EXPECT_FALSE(interner.IsFresh(data, "_null"));
}

TEST(InternerDeathTest, ReadingARolledBackIdAborts) {
  Interner interner;
  Interner::FreshMark mark = interner.Mark();
  SymbolId f = interner.Fresh("_R");
  interner.Rollback(mark);
  EXPECT_DEATH((void)interner.NameOf(f), "read after its Rollback");
}

TEST(RationalTest, NormalizesOnConstruction) {
  Rational r(4, 8);
  EXPECT_EQ(r.num(), 1);
  EXPECT_EQ(r.den(), 2);
  Rational neg(3, -6);
  EXPECT_EQ(neg.num(), -1);
  EXPECT_EQ(neg.den(), 2);
  Rational zero(0, 5);
  EXPECT_EQ(zero.den(), 1);
}

TEST(RationalTest, Ordering) {
  EXPECT_LT(Rational(1, 3), Rational(1, 2));
  EXPECT_LT(Rational(-1), Rational(0));
  EXPECT_LE(Rational(2, 4), Rational(1, 2));
  EXPECT_GT(Rational(1970), Rational(1969));
}

TEST(RationalTest, ParseForms) {
  Rational r;
  ASSERT_TRUE(Rational::Parse("1970", &r));
  EXPECT_EQ(r, Rational(1970));
  ASSERT_TRUE(Rational::Parse("-3", &r));
  EXPECT_EQ(r, Rational(-3));
  ASSERT_TRUE(Rational::Parse("12.5", &r));
  EXPECT_EQ(r, Rational(25, 2));
  ASSERT_TRUE(Rational::Parse("25/2", &r));
  EXPECT_EQ(r, Rational(25, 2));
  ASSERT_TRUE(Rational::Parse("-1.25", &r));
  EXPECT_EQ(r, Rational(-5, 4));
  EXPECT_FALSE(Rational::Parse("", &r));
  EXPECT_FALSE(Rational::Parse("abc", &r));
  EXPECT_FALSE(Rational::Parse("1/0", &r));
}

TEST(RationalTest, MidpointIsStrictlyBetween) {
  Rational a(1), b(2);
  Rational m = Rational::Midpoint(a, b);
  EXPECT_LT(a, m);
  EXPECT_LT(m, b);
  EXPECT_EQ(m, Rational(3, 2));
  // Density: midpoints keep working at tiny gaps.
  Rational c(999, 1000), d(1);
  Rational m2 = Rational::Midpoint(c, d);
  EXPECT_LT(c, m2);
  EXPECT_LT(m2, d);
}

TEST(RationalTest, Arithmetic) {
  EXPECT_EQ(Rational(1, 2) + Rational(1, 3), Rational(5, 6));
  EXPECT_EQ(Rational(1, 2) - Rational(1, 3), Rational(1, 6));
}

TEST(RationalTest, ToStringForms) {
  EXPECT_EQ(Rational(7).ToString(), "7");
  EXPECT_EQ(Rational(1, 2).ToString(), "1/2");
  EXPECT_EQ(Rational(-3, 2).ToString(), "-3/2");
}

}  // namespace
}  // namespace relcont

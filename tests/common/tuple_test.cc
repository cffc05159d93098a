#include "common/tuple.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

namespace genmig {
namespace {

TEST(TupleTest, OfInts) {
  Tuple t = Tuple::OfInts({1, 2, 3});
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t.field(0).AsInt64(), 1);
  EXPECT_EQ(t.field(2).AsInt64(), 3);
}

TEST(TupleTest, Concat) {
  Tuple a = Tuple::OfInts({1, 2});
  Tuple b = Tuple::OfInts({3});
  Tuple c = Tuple::Concat(a, b);
  ASSERT_EQ(c.size(), 3u);
  EXPECT_EQ(c.field(2).AsInt64(), 3);
  EXPECT_EQ(Tuple::Concat(Tuple(), b), b);
}

TEST(TupleTest, Project) {
  Tuple t = Tuple::OfInts({10, 20, 30});
  Tuple p = t.Project({2, 0});
  ASSERT_EQ(p.size(), 2u);
  EXPECT_EQ(p.field(0).AsInt64(), 30);
  EXPECT_EQ(p.field(1).AsInt64(), 10);
  EXPECT_TRUE(t.Project({}).empty());
}

TEST(TupleTest, EqualityAndOrdering) {
  EXPECT_EQ(Tuple::OfInts({1, 2}), Tuple::OfInts({1, 2}));
  EXPECT_NE(Tuple::OfInts({1, 2}), Tuple::OfInts({2, 1}));
  EXPECT_LT(Tuple::OfInts({1, 2}), Tuple::OfInts({1, 3}));
  EXPECT_LT(Tuple::OfInts({1}), Tuple::OfInts({1, 0}));
}

TEST(TupleTest, HashMatchesEquality) {
  EXPECT_EQ(Tuple::OfInts({4, 5}).Hash(), Tuple::OfInts({4, 5}).Hash());
  EXPECT_NE(Tuple::OfInts({4, 5}).Hash(), Tuple::OfInts({5, 4}).Hash());
}

TEST(TupleTest, PayloadBytes) {
  Tuple t{Value(int64_t{1}), Value("abc")};
  EXPECT_EQ(t.PayloadBytes(), sizeof(int64_t) + 3);
}

TEST(TupleTest, ToString) {
  EXPECT_EQ(Tuple::OfInts({1, 2}).ToString(), "(1, 2)");
  EXPECT_EQ(Tuple().ToString(), "()");
}

TEST(TupleTest, AppendGrowsTuple) {
  Tuple t;
  t.Append(Value(int64_t{9}));
  ASSERT_EQ(t.size(), 1u);
  EXPECT_EQ(t.field(0).AsInt64(), 9);
}

// A row of `arity` fields whose odd fields are strings too long for the
// small-string buffer, so copies exercise shared string payloads.
Tuple Row(size_t arity, int64_t base) {
  std::vector<Value> fields;
  for (size_t i = 0; i < arity; ++i) {
    const int64_t v = base + static_cast<int64_t>(i);
    if (i % 2 == 0) {
      fields.emplace_back(v);
    } else {
      fields.emplace_back("field value number " + std::to_string(v));
    }
  }
  return Tuple(std::move(fields));
}

void ExpectSameRow(const Tuple& a, const Tuple& b) {
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a != b);
  EXPECT_FALSE(a < b);
  EXPECT_FALSE(b < a);
  EXPECT_EQ(a.Hash(), b.Hash());
  EXPECT_EQ(a.PayloadBytes(), b.PayloadBytes());
  EXPECT_EQ(a.ToString(), b.ToString());
}

// Copy and move, construction and assignment, between rows of every arity
// from 0 to 5: small and wide rows in every direction.
TEST(TupleTest, CopyAndMoveAtEveryArity) {
  for (size_t from = 0; from <= 5; ++from) {
    for (size_t to = 0; to <= 5; ++to) {
      SCOPED_TRACE("from " + std::to_string(from) + " to " +
                   std::to_string(to));
      const Tuple expected = Row(from, 100);

      Tuple src = Row(from, 100);
      Tuple copied(src);
      ExpectSameRow(copied, expected);
      ExpectSameRow(src, expected);

      Tuple moved(std::move(src));
      ExpectSameRow(moved, expected);
      src = Row(to, 7);  // A moved-from row can be assigned again.
      ExpectSameRow(src, Row(to, 7));

      Tuple dst = Row(to, 500);
      dst = expected;
      ExpectSameRow(dst, expected);
      ASSERT_EQ(dst.size(), from);

      Tuple dst2 = Row(to, 500);
      Tuple tmp = Row(from, 100);
      dst2 = std::move(tmp);
      ExpectSameRow(dst2, expected);
      tmp = Row(to, 9);
      ExpectSameRow(tmp, Row(to, 9));

      // The assigned rows keep their own fields once the source changes.
      Tuple source = Row(from, 100);
      Tuple target = Row(to, 500);
      target = source;
      source = Row(to, 42);
      ExpectSameRow(target, expected);
    }
  }
}

TEST(TupleTest, SelfAssignmentKeepsTheRow) {
  for (size_t arity = 0; arity <= 5; ++arity) {
    Tuple t = Row(arity, 3);
    const Tuple& alias = t;
    t = alias;
    ExpectSameRow(t, Row(arity, 3));
    Tuple& moved_alias = t;
    t = std::move(moved_alias);
    t = Row(arity, 4);  // Valid and assignable afterwards.
    ExpectSameRow(t, Row(arity, 4));
  }
}

TEST(TupleTest, ConcatAndProjectAcrossWidths) {
  const Tuple ab = Tuple::OfInts({1, 2});
  const Tuple cd = Tuple::OfInts({3, 4});
  const Tuple e = Tuple::OfInts({5});
  ExpectSameRow(Tuple::Concat(ab, cd), Tuple::OfInts({1, 2, 3, 4}));
  ExpectSameRow(Tuple::Concat(ab, e), Tuple::OfInts({1, 2, 5}));
  ExpectSameRow(Tuple::Concat(e, Tuple()), e);

  const Tuple wide = Tuple::Concat(Row(2, 10), Row(2, 20));
  ASSERT_EQ(wide.size(), 4u);
  const Tuple projected = wide.Project({3, 0});
  ASSERT_EQ(projected.size(), 2u);
  EXPECT_EQ(projected.field(0), wide.field(3));
  EXPECT_EQ(projected.field(1), wide.field(0));
  ExpectSameRow(projected, Tuple{wide.field(3), wide.field(0)});
}

// Equal content compares and hashes equal however the row was built: by
// value list, by projection from a wide row, by appending, or by assigning
// a small row over a wide one.
TEST(TupleTest, EqualContentIsEqualHoweverStored) {
  const Tuple direct = Tuple::OfInts({1, 2});
  ExpectSameRow(Tuple::OfInts({9, 1, 2, 9}).Project({1, 2}), direct);

  Tuple appended;
  appended.Append(Value(int64_t{1}));
  appended.Emplace(int64_t{2});
  ExpectSameRow(appended, direct);

  Tuple reused = Tuple::OfInts({5, 6, 7, 8});
  reused = direct;
  ExpectSameRow(reused, direct);
  EXPECT_LT(reused, Tuple::OfInts({1, 3}));
  EXPECT_LT(Tuple::OfInts({1, 1, 9}), reused);

  Tuple grown = Tuple::OfInts({1, 2});
  grown.Append(Value(int64_t{3}));
  grown.Emplace(int64_t{4});
  grown.Emplace(std::string("five"));
  const Tuple built{Value(int64_t{1}), Value(int64_t{2}), Value(int64_t{3}),
                    Value(int64_t{4}), Value("five")};
  ExpectSameRow(grown, built);
  ExpectSameRow(Tuple::Concat(direct, Tuple::Concat(Tuple::OfInts({3, 4}),
                                                    Tuple{Value("five")})),
                built);
}

TEST(TupleTest, IteratesItsFieldsInOrder) {
  const Tuple t = Row(5, 0);
  size_t i = 0;
  for (const Value& v : t) {
    EXPECT_EQ(v, t.field(i));
    ++i;
  }
  EXPECT_EQ(i, 5u);
}

}  // namespace
}  // namespace genmig

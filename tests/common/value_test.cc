#include "common/value.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <thread>
#include <utility>
#include <vector>

namespace genmig {
namespace {

TEST(ValueTest, TypeTags) {
  EXPECT_TRUE(Value(int64_t{7}).is_int64());
  EXPECT_TRUE(Value(3.5).is_double());
  EXPECT_TRUE(Value("abc").is_string());
  EXPECT_EQ(Value().type(), ValueType::kInt64);  // Default is int64 zero.
  EXPECT_EQ(Value().AsInt64(), 0);
}

TEST(ValueTest, Accessors) {
  EXPECT_EQ(Value(int64_t{42}).AsInt64(), 42);
  EXPECT_DOUBLE_EQ(Value(2.25).AsDouble(), 2.25);
  EXPECT_EQ(Value("hi").AsString(), "hi");
  EXPECT_DOUBLE_EQ(Value(int64_t{3}).AsNumeric(), 3.0);
  EXPECT_DOUBLE_EQ(Value(1.5).AsNumeric(), 1.5);
}

TEST(ValueTest, EqualityDistinguishesTypes) {
  EXPECT_NE(Value(int64_t{1}), Value(1.0));
  EXPECT_EQ(Value(int64_t{1}), Value(int64_t{1}));
  EXPECT_NE(Value(int64_t{1}), Value(int64_t{2}));
  EXPECT_EQ(Value("a"), Value("a"));
  EXPECT_NE(Value("a"), Value("b"));
}

TEST(ValueTest, OrderingIsTotalByTypeThenPayload) {
  // Int < double < string by type tag ordering.
  EXPECT_LT(Value(int64_t{1000}), Value(0.0));
  EXPECT_LT(Value(999.0), Value(""));
  EXPECT_LT(Value(int64_t{1}), Value(int64_t{2}));
}

TEST(ValueTest, HashMatchesEquality) {
  EXPECT_EQ(Value(int64_t{5}).Hash(), Value(int64_t{5}).Hash());
  EXPECT_NE(Value(int64_t{5}).Hash(), Value(5.0).Hash());
  EXPECT_EQ(Value("x").Hash(), Value("x").Hash());
}

TEST(ValueTest, PayloadBytes) {
  EXPECT_EQ(Value(int64_t{1}).PayloadBytes(), sizeof(int64_t));
  EXPECT_EQ(Value(1.0).PayloadBytes(), sizeof(double));
  EXPECT_EQ(Value("abcd").PayloadBytes(), 4u);
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value(int64_t{-3}).ToString(), "-3");
  EXPECT_EQ(Value("s").ToString(), "\"s\"");
  EXPECT_EQ(Value(2.5).ToString(), "2.5");
}

// Hash() feeds every unordered_map<Value, ...> in the engine, and their
// iteration order reaches checkpoint bytes (StatsTap, hash-join state). The
// numbers are std::hash over the payload mixed with the type tag, as the
// engine has always computed them (libstdc++).
TEST(ValueTest, HashIsPinned) {
  EXPECT_EQ(Value(int64_t{0}).Hash(), 11400714819323198485ULL);
  EXPECT_EQ(Value(int64_t{-1}).Hash(), 11400714819323198484ULL);
  EXPECT_EQ(Value(std::numeric_limits<int64_t>::min()).Hash(),
            2177342782468422677ULL);
  EXPECT_EQ(Value(1.0).Hash(), 6211048145573439456ULL);
  EXPECT_EQ(Value(-0.0).Hash(), 14813675350809533519ULL);
  EXPECT_EQ(Value(0.0).Hash(), Value(-0.0).Hash());
  EXPECT_EQ(Value(std::nan("")).Hash(), 15852819571759213441ULL);
  EXPECT_EQ(Value("").Hash(), 2459059494930814759ULL);
  EXPECT_EQ(Value("abc").Hash(), 14377403419302266610ULL);
}

TEST(ValueTest, CrossTypeOrderIgnoresPayload) {
  const Value big_int(std::numeric_limits<int64_t>::max());
  const Value small_double(-std::numeric_limits<double>::infinity());
  const Value empty_string("");
  EXPECT_LT(big_int, small_double);
  EXPECT_LT(small_double, empty_string);
  EXPECT_LT(big_int, empty_string);
  EXPECT_FALSE(small_double < big_int);
  EXPECT_FALSE(empty_string < small_double);
  EXPECT_NE(Value(int64_t{0}), Value(0.0));
  EXPECT_LT(Value(std::numeric_limits<int64_t>::min()), Value(int64_t{-1}));
  EXPECT_LT(Value("ab"), Value("abc"));
  EXPECT_LT(Value("abc"), Value("b"));
}

TEST(ValueTest, NaNComparesLikeTheDouble) {
  const Value nan(std::nan(""));
  EXPECT_FALSE(nan == nan);
  EXPECT_TRUE(nan != nan);
  EXPECT_FALSE(nan < nan);
  EXPECT_FALSE(nan < Value(1.0));
  EXPECT_FALSE(Value(1.0) < nan);
  // Across types the tag decides, NaN or not.
  EXPECT_LT(Value(int64_t{5}), nan);
  EXPECT_LT(nan, Value("x"));
  EXPECT_EQ(Value(-0.0), Value(0.0));
  EXPECT_FALSE(Value(-0.0) < Value(0.0));
}

TEST(ValueTest, MovedFromValuesCanBeAssignedAndDestroyed) {
  for (const Value& original :
       {Value(int64_t{7}), Value(2.5), Value("a string longer than sso")}) {
    Value a = original;
    Value b(std::move(a));
    EXPECT_EQ(b, original);
    a = Value("fresh");
    EXPECT_EQ(a, Value("fresh"));

    Value c = original;
    Value d;
    d = std::move(c);
    EXPECT_EQ(d, original);
    c = original;
    EXPECT_EQ(c, original);

    Value e = original;
    Value f(std::move(e));
    // `e` is destroyed here without being assigned again.
  }
}

TEST(ValueTest, CopiesAreIndependentValues) {
  Value a("shared payload well past the small-string size");
  Value b = a;
  Value c;
  c = b;
  EXPECT_EQ(a, b);
  EXPECT_EQ(b, c);
  EXPECT_EQ(a.Hash(), c.Hash());
  b = Value(int64_t{3});
  EXPECT_EQ(a.AsString(), "shared payload well past the small-string size");
  EXPECT_EQ(c.AsString(), a.AsString());
  const Value& alias = a;
  a = alias;  // Self-assignment keeps the value.
  EXPECT_EQ(a, c);
}

TEST(ValueTest, CopiesShareOneStringBlock) {
  const Value a("a payload that needs its own allocation");
  Value b = a;
  Value c;
  c = b;
  // One immutable block serves every copy.
  EXPECT_EQ(&a.AsString(), &b.AsString());
  EXPECT_EQ(&a.AsString(), &c.AsString());
  // A Value built from equal text has its own block and still compares,
  // orders and hashes equal.
  const Value d(std::string(a.AsString()));
  EXPECT_NE(&a.AsString(), &d.AsString());
  EXPECT_EQ(a, d);
  EXPECT_FALSE(a < d);
  EXPECT_EQ(a.Hash(), d.Hash());
}

// Shard threads copy rows that share string blocks. Four threads copy and
// drop one string Value: a lost count update frees the block while it is
// still held (caught by ASan) or leaks it, and a TSan build checks the
// count's memory ordering.
TEST(ValueTest, StringCopiesAcrossThreadsShareOneCount) {
  const Value shared("a string shared by every shard thread");
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&shared] {
      for (int i = 0; i < 10000; ++i) {
        Value copy = shared;
        Value moved = std::move(copy);
        copy = moved;
        EXPECT_EQ(copy.AsString().size(), shared.AsString().size());
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(shared.AsString(), "a string shared by every shard thread");
}

}  // namespace
}  // namespace genmig

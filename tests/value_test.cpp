#include "util/value.h"

#include <gtest/gtest.h>

#include <set>
#include <thread>
#include <tuple>
#include <unordered_set>
#include <utility>
#include <vector>

#include "util/errors.h"

namespace bsr {
namespace {

/// A round-3 view of the full-information IC protocol (Algorithm 3) with
/// n = 3: each round's view is the n-vector of the views it collected.
Value alg3_view() {
  const Value r1a = make_vec(Value(0), Value(1), Value());
  const Value r1b = make_vec(Value(0), Value(1), Value(2));
  const Value r1c = make_vec(Value(), Value(), Value(2));
  const Value r2a = make_vec(r1a, r1b, Value());
  const Value r2b = make_vec(r1a, r1b, r1c);
  return make_vec(r2a, r2b, Value());
}

TEST(Value, DefaultIsBottom) {
  const Value v;
  EXPECT_TRUE(v.is_bottom());
  EXPECT_EQ(v, Value::bottom());
  EXPECT_EQ(v.str(), "⊥");
}

TEST(Value, U64RoundTrip) {
  const Value v(std::uint64_t{42});
  EXPECT_TRUE(v.is_u64());
  EXPECT_EQ(v.as_u64(), 42u);
  EXPECT_EQ(v.str(), "42");
}

TEST(Value, IntConstructorRejectsNegative) {
  EXPECT_THROW(Value(-1), UsageError);
}

TEST(Value, BytesRoundTrip) {
  const Value v("hello");
  EXPECT_TRUE(v.is_bytes());
  EXPECT_EQ(v.as_bytes(), "hello");
  EXPECT_EQ(v.str(), "\"hello\"");
}

TEST(Value, VecRoundTrip) {
  const Value v{Value(1), Value(), Value("x")};
  ASSERT_TRUE(v.is_vec());
  EXPECT_EQ(v.as_vec().size(), 3u);
  EXPECT_EQ(v.at(0).as_u64(), 1u);
  EXPECT_TRUE(v.at(1).is_bottom());
  EXPECT_EQ(v.str(), "[1, ⊥, \"x\"]");
}

TEST(Value, VecOf) {
  const Value v = Value::vec_of(4);
  ASSERT_TRUE(v.is_vec());
  EXPECT_EQ(v.as_vec().size(), 4u);
  for (const Value& x : v.as_vec()) EXPECT_TRUE(x.is_bottom());
}

TEST(Value, AtOutOfRangeThrows) {
  Value v{Value(1)};
  EXPECT_THROW((void)v.at(1), UsageError);
  EXPECT_THROW((void)Value(3).at(0), UsageError);
}

TEST(Value, WrongKindAccessThrows) {
  EXPECT_THROW((void)Value("x").as_u64(), UsageError);
  EXPECT_THROW((void)Value(1).as_bytes(), UsageError);
  EXPECT_THROW((void)Value(1).as_vec(), UsageError);
}

TEST(Value, BitWidth) {
  EXPECT_EQ(Value(0).bit_width(), 0);
  EXPECT_EQ(Value(1).bit_width(), 1);
  EXPECT_EQ(Value(2).bit_width(), 2);
  EXPECT_EQ(Value(3).bit_width(), 2);
  EXPECT_EQ(Value(4).bit_width(), 3);
  EXPECT_EQ(Value(255).bit_width(), 8);
  EXPECT_EQ(Value(256).bit_width(), 9);
  EXPECT_THROW((void)Value().bit_width(), UsageError);
  EXPECT_THROW((void)Value("b").bit_width(), UsageError);
}

TEST(Value, EqualityAcrossKinds) {
  EXPECT_NE(Value(), Value(0));
  EXPECT_NE(Value(0), Value("0"));
  EXPECT_NE(Value{Value(0)}, Value(0));
  EXPECT_EQ(Value{Value(0)}, Value{Value(0)});
}

TEST(Value, OrderingIsTotalAndLexicographic) {
  const Value a{Value(1), Value(2)};
  const Value b{Value(1), Value(3)};
  const Value c{Value(1)};
  EXPECT_LT(a, b);
  EXPECT_LT(c, a);  // shorter prefix sorts first
  std::set<Value> s{b, a, c, Value(), Value(7)};
  EXPECT_EQ(s.size(), 5u);
}

TEST(Value, HashIsStructural) {
  const Value a{Value(1), Value("x"), Value{Value()}};
  const Value b{Value(1), Value("x"), Value{Value()}};
  EXPECT_EQ(a.hash(), b.hash());
  std::unordered_set<Value, ValueHash> s;
  s.insert(a);
  s.insert(b);
  EXPECT_EQ(s.size(), 1u);
}

TEST(Value, NestedDeepStructures) {
  Value v = Value(0);
  for (int i = 0; i < 50; ++i) v = Value{v, Value(i)};
  const Value w = v;  // shares v's payload
  EXPECT_EQ(v, w);
  EXPECT_EQ(v.hash(), w.hash());
}

TEST(Value, HashIsPinned) {
  // Zobrist keys, transposition-table behaviour, the exact exploration
  // counts and serve cache keys all derive from these; they must not move
  // when the representation does. Byte strings hash through
  // std::hash<std::string>, so these are the 64-bit libstdc++ values.
  const std::vector<std::pair<Value, std::size_t>> pinned = {
      {Value(), 0xaf63bd4c8601b7dfULL},
      {Value(0), 0x082f2207b4e88cc4ULL},
      {Value(std::uint64_t{1} << 63), 0x882f2207b4e88cc4ULL},
      {Value(""), 0xb3e465d6c19bac11ULL},
      {Value("ab"), 0xa51d955bb61b415aULL},
      {Value(std::vector<Value>{}), 0xaf63be4c8601b992ULL},
      {make_vec(Value(), Value(1)), 0xef2bec18751ab5e0ULL},
      {alg3_view(), 0x1939c224dee9c598ULL},
  };
  for (const auto& [v, h] : pinned) EXPECT_EQ(v.hash(), h) << v;
}

TEST(Value, OrderingIsPinned) {
  const Value view = alg3_view();
  const Value& r2a = view.at(0);
  const Value& r2b = view.at(1);
  // (a, b, sign of a <=> b)
  const std::vector<std::tuple<Value, Value, int>> pinned = {
      {Value(), Value(0), -1},
      {Value(7), Value(3), 1},
      {Value(std::uint64_t{1} << 63), Value(""), -1},
      {Value("ab"), Value("b"), -1},
      {Value("ab"), Value("a"), 1},
      {Value("zz"), Value(std::vector<Value>{}), -1},
      {make_vec(Value(1)), make_vec(Value(1), Value(2)), -1},
      {make_vec(Value(1), Value(3)), make_vec(Value(1), Value(2)), 1},
      {make_vec(Value(), Value(1)), make_vec(Value(0)), -1},
      {view, alg3_view(), 0},
      {r2a, r2b, -1},
      {r2b.at(2), r2a.at(0), -1},
  };
  for (const auto& [a, b, sign] : pinned) {
    const std::strong_ordering o = a <=> b;
    EXPECT_EQ(o < 0 ? -1 : o > 0 ? 1 : 0, sign) << a << " <=> " << b;
  }
}

TEST(Value, CopiesShareStorage) {
  const Value a = alg3_view();
  const Value b = a;  // NOLINT(performance-unnecessary-copy-initialization)
  EXPECT_EQ(&a.as_vec(), &b.as_vec());
  const Value s("shared");
  const Value t = s;  // NOLINT(performance-unnecessary-copy-initialization)
  EXPECT_EQ(&s.as_bytes(), &t.as_bytes());
}

TEST(Value, MovedFromIsBottom) {
  for (const Value& original : {Value(5), Value("xy"), alg3_view()}) {
    Value src = original;
    const Value constructed = std::move(src);
    EXPECT_TRUE(src.is_bottom());  // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(constructed, original);

    Value src2 = original;
    Value assigned(9);
    assigned = std::move(src2);
    EXPECT_TRUE(src2.is_bottom());  // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(assigned, original);
  }
}

TEST(Value, SeparatelyBuiltEqualValuesAgree) {
  const Value a = alg3_view();
  const Value b = alg3_view();
  ASSERT_NE(&a.as_vec(), &b.as_vec());
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.hash(), b.hash());
  EXPECT_EQ(a <=> b, std::strong_ordering::equal);
  EXPECT_EQ(Value("ab"), Value(std::string("ab")));
  EXPECT_NE(a, make_vec(a.at(0), a.at(1), Value(0)));
}

TEST(Value, HandleIsCompact) {
  // One kind tag, one inline integer, one shared payload pointer.
  EXPECT_LE(sizeof(Value), 32u);
}

TEST(Value, ConcurrentCopiesOfSharedPayload) {
  // A payload is never written after construction; the reference count is
  // the only state threads share, so copies need no locking.
  const Value shared = alg3_view();
  const std::size_t h = shared.hash();
  std::vector<std::thread> threads;
  std::vector<int> mismatches(8, 0);
  for (std::size_t t = 0; t < mismatches.size(); ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 2000; ++i) {
        std::vector<Value> copies(4, shared);
        const Value nested = make_vec(copies[0], shared.at(1));
        if (copies[3].hash() != h || copies[1] != shared ||
            nested.at(0) != shared || (copies[2] <=> shared) != 0) {
          ++mismatches[t];
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int m : mismatches) EXPECT_EQ(m, 0);
  EXPECT_EQ(shared.hash(), h);
}

}  // namespace
}  // namespace bsr

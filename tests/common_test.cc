// Unit tests for the common substrate: Status/Result, the string
// interner, the deterministic RNG and hash helpers.

#include <gtest/gtest.h>

#include <set>
#include <thread>
#include <vector>

#include "common/hash.h"
#include "common/interner.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/timer.h"

namespace maywsd {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("relation R");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "relation R");
  EXPECT_EQ(s.ToString(), "NotFound: relation R");
}

TEST(StatusTest, EqualityAndStreaming) {
  EXPECT_EQ(Status::Inconsistent("x"), Status::Inconsistent("x"));
  EXPECT_FALSE(Status::Inconsistent("x") == Status::Inconsistent("y"));
  std::ostringstream os;
  os << Status::Internal("bug");
  EXPECT_EQ(os.str(), "Internal: bug");
}

Result<int> ParsePositive(int v) {
  if (v <= 0) return Status::InvalidArgument("not positive");
  return v;
}

Status UsesReturnIfError(int v, int* out) {
  MAYWSD_ASSIGN_OR_RETURN(int parsed, ParsePositive(v));
  MAYWSD_RETURN_IF_ERROR(Status::Ok());
  *out = parsed;
  return Status::Ok();
}

TEST(ResultTest, ValueAndErrorPaths) {
  Result<int> good = ParsePositive(3);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, 3);
  Result<int> bad = ParsePositive(-1);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(ResultTest, MacrosPropagate) {
  int out = 0;
  EXPECT_TRUE(UsesReturnIfError(7, &out).ok());
  EXPECT_EQ(out, 7);
  EXPECT_EQ(UsesReturnIfError(-7, &out).code(),
            StatusCode::kInvalidArgument);
}

TEST(InternerTest, IdempotentAndStable) {
  Symbol a = InternString("maywsd-test-alpha");
  Symbol b = InternString("maywsd-test-alpha");
  Symbol c = InternString("maywsd-test-beta");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(SymbolName(a), "maywsd-test-alpha");
  EXPECT_EQ(SymbolName(c), "maywsd-test-beta");
}

TEST(InternerTest, EmptyStringIsSymbolZero) {
  EXPECT_EQ(InternString(""), 0u);
  EXPECT_EQ(SymbolName(0), "");
}

TEST(InternerTest, FindNeverInserts) {
  StringInterner& pool = StringInterner::Global();
  Symbol known = InternString("maywsd-test-find");
  EXPECT_EQ(pool.Find("maywsd-test-find"), known);
  size_t before = pool.size();
  EXPECT_FALSE(pool.Find("maywsd-test-never-interned").has_value());
  EXPECT_EQ(pool.size(), before);
}

TEST(InternerTest, ConcurrentInterningIsConsistent) {
  constexpr int kThreads = 8;
  constexpr int kStrings = 200;
  std::vector<std::vector<Symbol>> results(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &results] {
      for (int i = 0; i < kStrings; ++i) {
        results[t].push_back(
            InternString("concurrent-" + std::to_string(i)));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(results[t], results[0]);
  }
}

TEST(RngTest, DeterministicPerSeed) {
  Rng a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    uint64_t va = a.Next();
    EXPECT_EQ(va, b.Next());
    (void)c.Next();
  }
  Rng a2(42), c2(43);
  EXPECT_NE(a2.Next(), c2.Next());
}

TEST(RngTest, UniformBoundsRespected) {
  Rng rng(7);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(9);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(11);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.2);
  EXPECT_NEAR(hits / 10000.0, 0.2, 0.02);
}

TEST(HashTest, CombineOrderSensitive) {
  size_t a = 0, b = 0;
  HashCombine(a, 1);
  HashCombine(a, 2);
  HashCombine(b, 2);
  HashCombine(b, 1);
  EXPECT_NE(a, b);
}

TEST(HashTest, HashRangeMatchesContent) {
  std::vector<int> v1{1, 2, 3};
  std::vector<int> v2{1, 2, 3};
  std::vector<int> v3{1, 2, 4};
  EXPECT_EQ(HashRange(v1.begin(), v1.end()), HashRange(v2.begin(), v2.end()));
  EXPECT_NE(HashRange(v1.begin(), v1.end()), HashRange(v3.begin(), v3.end()));
}

TEST(TimerTest, MeasuresElapsedTime) {
  Timer t;
  double first = t.Seconds();
  EXPECT_GE(first, 0.0);
  t.Reset();
  EXPECT_GE(t.Millis(), 0.0);
}

}  // namespace
}  // namespace maywsd

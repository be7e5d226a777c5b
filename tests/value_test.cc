#include "rel/value.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <unordered_set>

namespace maywsd::rel {
namespace {

TEST(ValueTest, DefaultIsBottom) {
  Value v;
  EXPECT_TRUE(v.is_bottom());
  EXPECT_EQ(v, Value::Bottom());
}

TEST(ValueTest, IntEquality) {
  EXPECT_EQ(Value::Int(42), Value::Int(42));
  EXPECT_NE(Value::Int(42), Value::Int(43));
}

TEST(ValueTest, IntDoubleCrossEquality) {
  EXPECT_EQ(Value::Int(1), Value::Double(1.0));
  EXPECT_EQ(Value::Double(2.0), Value::Int(2));
  EXPECT_NE(Value::Int(1), Value::Double(1.5));
}

TEST(ValueTest, CrossEqualityHashConsistency) {
  EXPECT_EQ(Value::Int(7).Hash(), Value::Double(7.0).Hash());
}

TEST(ValueTest, StringInterningEquality) {
  EXPECT_EQ(Value::String("abc"), Value::String("abc"));
  EXPECT_NE(Value::String("abc"), Value::String("abd"));
  EXPECT_EQ(Value::String("abc").AsStringView(), "abc");
}

TEST(ValueTest, BottomOnlyEqualsBottom) {
  EXPECT_EQ(Value::Bottom(), Value::Bottom());
  EXPECT_NE(Value::Bottom(), Value::Int(0));
  EXPECT_NE(Value::Bottom(), Value::Question());
  EXPECT_NE(Value::Bottom(), Value::String(""));
}

TEST(ValueTest, QuestionOnlyEqualsQuestion) {
  EXPECT_EQ(Value::Question(), Value::Question());
  EXPECT_NE(Value::Question(), Value::Int(0));
}

TEST(ValueTest, TotalOrderRanks) {
  // ⊥ < numerics < strings < ?.
  EXPECT_LT(Value::Bottom(), Value::Int(-100));
  EXPECT_LT(Value::Int(5), Value::String("a"));
  EXPECT_LT(Value::String("zzz"), Value::Question());
}

TEST(ValueTest, NumericOrderMixesIntsAndDoubles) {
  EXPECT_LT(Value::Int(1), Value::Double(1.5));
  EXPECT_LT(Value::Double(1.5), Value::Int(2));
  EXPECT_EQ(Value::Int(3).Compare(Value::Double(3.0)), 0);
}

TEST(ValueTest, StringOrderIsLexicographic) {
  EXPECT_LT(Value::String("abc"), Value::String("abd"));
  EXPECT_LT(Value::String("ab"), Value::String("abc"));
}

TEST(ValueTest, SatisfiesComparisons) {
  Value a = Value::Int(3);
  Value b = Value::Int(5);
  EXPECT_TRUE(a.Satisfies(CmpOp::kLt, b));
  EXPECT_TRUE(a.Satisfies(CmpOp::kLe, b));
  EXPECT_TRUE(a.Satisfies(CmpOp::kNe, b));
  EXPECT_FALSE(a.Satisfies(CmpOp::kEq, b));
  EXPECT_FALSE(a.Satisfies(CmpOp::kGt, b));
  EXPECT_TRUE(b.Satisfies(CmpOp::kGe, b));
}

TEST(ValueTest, BottomSatisfiesOnlyIdentityEquality) {
  Value bot = Value::Bottom();
  EXPECT_TRUE(bot.Satisfies(CmpOp::kEq, Value::Bottom()));
  EXPECT_FALSE(bot.Satisfies(CmpOp::kEq, Value::Int(0)));
  EXPECT_TRUE(bot.Satisfies(CmpOp::kNe, Value::Int(0)));
  // Ordering against ⊥ is always false.
  EXPECT_FALSE(bot.Satisfies(CmpOp::kLt, Value::Int(10)));
  EXPECT_FALSE(Value::Int(10).Satisfies(CmpOp::kGt, bot));
}

TEST(ValueTest, MixedStringNumberComparisons) {
  EXPECT_FALSE(Value::String("1").Satisfies(CmpOp::kEq, Value::Int(1)));
  EXPECT_TRUE(Value::String("1").Satisfies(CmpOp::kNe, Value::Int(1)));
  EXPECT_FALSE(Value::String("1").Satisfies(CmpOp::kLt, Value::Int(2)));
}

TEST(ValueTest, HashDistinguishesKinds) {
  std::unordered_set<Value> set;
  set.insert(Value::Bottom());
  set.insert(Value::Question());
  set.insert(Value::Int(0));
  set.insert(Value::String("0"));
  EXPECT_EQ(set.size(), 4u);
  EXPECT_TRUE(set.count(Value::Bottom()));
}

TEST(ValueTest, ToStringRendering) {
  EXPECT_EQ(Value::Int(7).ToString(), "7");
  EXPECT_EQ(Value::String("x").ToString(), "'x'");
  EXPECT_EQ(Value::Question().ToString(), "?");
  EXPECT_EQ(Value::Bottom().ToString(), "\xe2\x8a\xa5");
}

TEST(ValueTest, AppendToMatchesToString) {
  const Value values[] = {
      Value::Bottom(),          Value::Question(),
      Value::Int(0),            Value::Int(-7),
      Value::Int(INT64_MIN),    Value::Int(INT64_MAX),
      Value::String(""),        Value::String("it's"),
      Value::Double(0.1),       Value::Double(1e-05),
      Value::Double(1e+21),     Value::Double(-2.5),
      Value::Double(3.0),       Value::Double(999999.5),
      Value::Double(1.0 / 3.0), Value::Double(-0.0)};
  for (const Value& v : values) {
    std::string out = "head,";
    v.AppendTo(out);
    EXPECT_EQ(out, "head," + v.ToString());
    if (v.is_double()) {
      // Doubles keep the default `std::ostream << double` text (%.6g).
      std::ostringstream os;
      os << v.AsDouble();
      EXPECT_EQ(v.ToString(), os.str());
    }
  }
  // Both sides of the two-digit fast path, and far past it.
  for (int64_t i = -1000; i <= 1000; ++i) {
    EXPECT_EQ(Value::Int(i).ToString(), std::to_string(i));
  }
  EXPECT_EQ(Value::Int(INT64_MIN).ToString(), "-9223372036854775808");
  EXPECT_EQ(Value::Double(999999.5).ToString(), "1e+06");
  EXPECT_EQ(Value::Double(1e-05).ToString(), "1e-05");
}

TEST(ValueTest, ValueIs16Bytes) {
  EXPECT_LE(sizeof(Value), 16u);
}

}  // namespace
}  // namespace maywsd::rel

#include <gtest/gtest.h>

#include "types/date.h"
#include "types/schema.h"
#include "types/value.h"

namespace subshare {
namespace {

TEST(ValueTest, ConstructionAndAccess) {
  EXPECT_EQ(Value::Int64(7).AsInt64(), 7);
  EXPECT_DOUBLE_EQ(Value::Double(2.5).AsDouble(), 2.5);
  EXPECT_EQ(Value::String("hi").AsString(), "hi");
  EXPECT_TRUE(Value::Bool(true).AsBool());
  EXPECT_FALSE(Value::Bool(false).AsBool());
  EXPECT_TRUE(Value::Null(DataType::kInt64).is_null());
  EXPECT_FALSE(Value::Null(DataType::kBool).AsBool());
}

TEST(ValueTest, NumericCrossTypeComparison) {
  EXPECT_EQ(Value::Int64(3).Compare(Value::Double(3.0)), 0);
  EXPECT_LT(Value::Int64(3).Compare(Value::Double(3.5)), 0);
  EXPECT_GT(Value::Double(4.0).Compare(Value::Int64(3)), 0);
}

TEST(ValueTest, NullOrdering) {
  Value null = Value::Null(DataType::kInt64);
  EXPECT_EQ(null.Compare(Value::Null(DataType::kDouble)), 0);
  EXPECT_LT(null.Compare(Value::Int64(-100)), 0);
  EXPECT_GT(Value::Int64(0).Compare(null), 0);
}

TEST(ValueTest, StringComparison) {
  EXPECT_LT(Value::String("abc").Compare(Value::String("abd")), 0);
  EXPECT_EQ(Value::String("x").Compare(Value::String("x")), 0);
}

TEST(ValueTest, HashAgreesWithEqualityAcrossNumericTypes) {
  // Mixed int/double join keys must hash identically when equal.
  EXPECT_EQ(Value::Int64(42).Hash(), Value::Double(42.0).Hash());
  EXPECT_EQ(Value::Int64(42), Value::Double(42.0));
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value::Int64(5).ToString(), "5");
  EXPECT_EQ(Value::String("s").ToString(), "s");
  EXPECT_EQ(Value::Null(DataType::kInt64).ToString(), "NULL");
  EXPECT_EQ(Value::Date(CivilToDays(1996, 7, 1)).ToString(), "1996-07-01");
}

TEST(DateTest, RoundTrip) {
  for (int64_t days : {0L, 1L, 10000L, -400L, 9000L}) {
    int y, m, d;
    DaysToCivil(days, &y, &m, &d);
    EXPECT_EQ(CivilToDays(y, m, d), days);
  }
  EXPECT_EQ(CivilToDays(1970, 1, 1), 0);
  EXPECT_EQ(CivilToDays(1970, 1, 2), 1);
}

TEST(DateTest, ParseAndFormat) {
  auto d = ParseIsoDate("1996-07-01");
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(DaysToIsoDate(*d), "1996-07-01");
  EXPECT_FALSE(ParseIsoDate("96-07-01").ok());
  EXPECT_FALSE(ParseIsoDate("1996-13-01").ok());
  EXPECT_FALSE(ParseIsoDate("hello").ok());
}

TEST(DateTest, OrderingMatchesCalendar) {
  EXPECT_LT(*ParseIsoDate("1995-01-01"), *ParseIsoDate("1996-07-01"));
  EXPECT_LT(Value::Date(*ParseIsoDate("1995-01-01"))
                .Compare(Value::Date(*ParseIsoDate("1995-01-02"))),
            0);
}

TEST(SchemaTest, FindAndWidth) {
  Schema s;
  s.AddColumn("a", DataType::kInt64);
  s.AddColumn("b", DataType::kString);
  s.AddColumn("c", DataType::kDate);
  EXPECT_EQ(s.num_columns(), 3);
  EXPECT_EQ(s.FindColumn("b"), 1);
  EXPECT_EQ(s.FindColumn("zzz"), -1);
  EXPECT_EQ(s.RowWidthBytes(), 8 + 24 + 4);
  EXPECT_EQ(s.ToString(), "(a:INT64, b:STRING, c:DATE)");
}

}  // namespace
}  // namespace subshare

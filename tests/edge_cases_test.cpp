// Edge-case hardening across modules: calendar boundaries, numeric
// extremes, deep expression nesting, ambiguous-name resolution, and
// degenerate optimizer inputs.
#include <gtest/gtest.h>

#include "row_eval.h"
#include "api/database.h"
#include "expr/evaluator.h"
#include "types/date.h"
#include "util/bitset64.h"

namespace subshare {
namespace {

TEST(DateEdgeTest, LeapYears) {
  // 1996 is a leap year; 1900 is not; 2000 is.
  EXPECT_EQ(CivilToDays(1996, 3, 1) - CivilToDays(1996, 2, 28), 2);
  EXPECT_EQ(CivilToDays(1900, 3, 1) - CivilToDays(1900, 2, 28), 1);
  EXPECT_EQ(CivilToDays(2000, 3, 1) - CivilToDays(2000, 2, 28), 2);
  EXPECT_TRUE(ParseIsoDate("1996-02-29").ok());
  // Note: the parser validates field ranges, not calendar validity; the
  // conversion is still well-defined (normalizes into March).
  EXPECT_EQ(DaysToIsoDate(*ParseIsoDate("1996-02-29")), "1996-02-29");
}

TEST(DateEdgeTest, CenturyBoundariesRoundTrip) {
  for (const char* d : {"1999-12-31", "2000-01-01", "1970-01-01",
                        "2099-06-15", "1901-01-01"}) {
    auto days = ParseIsoDate(d);
    ASSERT_TRUE(days.ok());
    EXPECT_EQ(DaysToIsoDate(*days), d);
  }
}

TEST(ValueEdgeTest, Int64Extremes) {
  Value lo = Value::Int64(INT64_MIN + 1);
  Value hi = Value::Int64(INT64_MAX);
  EXPECT_LT(lo.Compare(hi), 0);
  EXPECT_EQ(hi.Compare(Value::Int64(INT64_MAX)), 0);
  // Integer-backed comparison must be exact where doubles would round.
  Value a = Value::Int64((int64_t{1} << 53) + 1);
  Value b = Value::Int64(int64_t{1} << 53);
  EXPECT_GT(a.Compare(b), 0);
}

TEST(Bitset64EdgeTest, HighBits) {
  Bitset64 s;
  s.Set(63);
  s.Set(0);
  EXPECT_EQ(s.Count(), 2);
  EXPECT_TRUE(s.Test(63));
  EXPECT_EQ(s.Lowest(), 0);
  s.Clear(0);
  EXPECT_EQ(s.Lowest(), 63);
}

TEST(ExprEdgeTest, DeepNestingEvaluates) {
  // 200-deep arithmetic chain: c0 + 1 + 1 + ... (recursion depth check).
  ExprPtr e = Expr::Column(7, DataType::kInt64);
  for (int i = 0; i < 200; ++i) {
    e = Expr::Arith(ArithOp::kAdd, e, Expr::Literal(Value::Int64(1)));
  }
  Layout layout({7});
  ExprPtr bound = BindExpr(e, layout);
  EXPECT_EQ(EvalExpr(bound, {Value::Int64(5)}).AsInt64(), 205);
  // Structural equality on the deep tree.
  EXPECT_TRUE(ExprEquals(e, e));
  EXPECT_EQ(ExprHash(e), ExprHash(e));
}

class BinderEdgeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Schema a;
    a.AddColumn("id", DataType::kInt64);
    a.AddColumn("shared_name", DataType::kInt64);
    Schema b;
    b.AddColumn("id", DataType::kInt64);
    b.AddColumn("shared_name", DataType::kInt64);
    Table* ta = *db_.CreateTable("ta", a);
    Table* tb = *db_.CreateTable("tb", b);
    ta->AppendRow({Value::Int64(1), Value::Int64(10)});
    tb->AppendRow({Value::Int64(1), Value::Int64(20)});
    ta->ComputeStats();
    tb->ComputeStats();
  }
  Database db_;
};

TEST_F(BinderEdgeTest, AmbiguousColumnRejectedQualifiedAccepted) {
  EXPECT_FALSE(
      db_.Execute("select shared_name from ta, tb where ta.id = tb.id")
          .ok());
  auto qualified = db_.Execute(
      "select ta.shared_name, tb.shared_name from ta, tb "
      "where ta.id = tb.id");
  ASSERT_TRUE(qualified.ok()) << qualified.status().ToString();
  ASSERT_EQ(qualified->statements[0].rows.size(), 1u);
  EXPECT_EQ(qualified->statements[0].rows[0][0].AsInt64(), 10);
  EXPECT_EQ(qualified->statements[0].rows[0][1].AsInt64(), 20);
}

TEST_F(BinderEdgeTest, DuplicateAliasRejected) {
  EXPECT_FALSE(db_.Execute("select 1 from ta x, tb x").ok());
  EXPECT_FALSE(db_.Execute("select 1 from ta, ta").ok());
}

TEST_F(BinderEdgeTest, EmptyTableQueriesWork) {
  Schema s;
  s.AddColumn("x", DataType::kInt64);
  Table* empty = *db_.CreateTable("empty_t", s);
  empty->ComputeStats();
  auto scan = db_.Execute("select x from empty_t where x > 0");
  ASSERT_TRUE(scan.ok());
  EXPECT_TRUE(scan->statements[0].rows.empty());
  auto agg = db_.Execute("select count(*), sum(x) from empty_t");
  ASSERT_TRUE(agg.ok());
  EXPECT_EQ(agg->statements[0].rows[0][0].AsInt64(), 0);
  EXPECT_TRUE(agg->statements[0].rows[0][1].is_null());
  auto join = db_.Execute(
      "select count(*) from empty_t, ta where empty_t.x = ta.id");
  ASSERT_TRUE(join.ok());
  EXPECT_EQ(join->statements[0].rows[0][0].AsInt64(), 0);
}

TEST_F(BinderEdgeTest, BatchSharingOnEmptyTables) {
  Schema s;
  s.AddColumn("x", DataType::kInt64);
  Table* empty = *db_.CreateTable("e2", s);
  empty->ComputeStats();
  // Sharing machinery must tolerate zero-cardinality inputs.
  auto result = db_.Execute(
      "select count(*) as a from e2, ta where e2.x = ta.id; "
      "select sum(e2.x) as b from e2, ta where e2.x = ta.id");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->statements[0].rows[0][0].AsInt64(), 0);
  EXPECT_TRUE(result->statements[1].rows[0][0].is_null());
}

}  // namespace
}  // namespace subshare

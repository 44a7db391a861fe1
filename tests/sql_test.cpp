#include <gtest/gtest.h>

#include <map>

#include "exec/executor.h"
#include "exec/naive_planner.h"
#include "sql/binder.h"
#include "sql/lexer.h"
#include "sql/parser.h"
#include "tpch/tpch.h"

namespace subshare {
namespace {

using sql::AstExprKind;
using sql::ParseBatch;
using sql::ParseSelect;
using sql::Token;
using sql::TokenType;
using sql::Tokenize;

TEST(LexerTest, TokenKinds) {
  auto tokens = Tokenize("SELECT a.b, 42, 3.5, 'it''s' <= <> ; -- comment");
  ASSERT_TRUE(tokens.ok());
  std::vector<Token>& t = *tokens;
  EXPECT_EQ(t[0].type, TokenType::kIdent);
  EXPECT_EQ(t[0].text, "select");  // keywords lower-cased
  EXPECT_EQ(t[1].text, "a");
  EXPECT_EQ(t[2].text, ".");
  EXPECT_EQ(t[3].text, "b");
  EXPECT_EQ(t[4].text, ",");
  EXPECT_EQ(t[5].int_value, 42);
  EXPECT_EQ(t[7].type, TokenType::kDouble);
  EXPECT_DOUBLE_EQ(t[7].double_value, 3.5);
  EXPECT_EQ(t[9].type, TokenType::kString);
  EXPECT_EQ(t[9].text, "it's");
  EXPECT_EQ(t[10].text, "<=");
  EXPECT_EQ(t[11].text, "<>");
  EXPECT_EQ(t[12].text, ";");
  EXPECT_EQ(t.back().type, TokenType::kEnd);
}

TEST(LexerTest, Errors) {
  EXPECT_FALSE(Tokenize("select 'oops").ok());
  EXPECT_FALSE(Tokenize("select #").ok());
}

// Exponent literals lex as one kDouble token; a fraction-less integer stays
// kInt up to the int64 limit.
TEST(LexerTest, NumericLiterals) {
  auto tokens = Tokenize("1e5 2.5E-3 7e+2 9223372036854775807 3e x1e5");
  ASSERT_TRUE(tokens.ok()) << tokens.status().ToString();
  std::vector<Token>& t = *tokens;
  EXPECT_EQ(t[0].type, TokenType::kDouble);
  EXPECT_DOUBLE_EQ(t[0].double_value, 1e5);
  EXPECT_EQ(t[1].type, TokenType::kDouble);
  EXPECT_DOUBLE_EQ(t[1].double_value, 2.5e-3);
  EXPECT_EQ(t[2].type, TokenType::kDouble);
  EXPECT_DOUBLE_EQ(t[2].double_value, 700);
  EXPECT_EQ(t[3].type, TokenType::kInt);
  EXPECT_EQ(t[3].int_value, INT64_MAX);
  // "3e" has no exponent digits: the integer 3, then the identifier e.
  EXPECT_EQ(t[4].type, TokenType::kInt);
  EXPECT_EQ(t[4].int_value, 3);
  EXPECT_EQ(t[5].type, TokenType::kIdent);
  EXPECT_EQ(t[5].text, "e");
  EXPECT_EQ(t[6].type, TokenType::kIdent);
  EXPECT_EQ(t[6].text, "x1e5");
}

// Out-of-range literals are a clean InvalidArgument, never a throw.
TEST(LexerTest, OutOfRangeNumericLiterals) {
  for (const char* sql :
       {"select n_name from nation where n_nationkey = 99999999999999999999",
        "select 9223372036854775808 from region", "select 1e999 from region",
        "select 2.5E+400 from region"}) {
    auto tokens = Tokenize(sql);
    ASSERT_FALSE(tokens.ok()) << sql;
    EXPECT_EQ(tokens.status().code(), StatusCode::kInvalidArgument) << sql;
    EXPECT_NE(tokens.status().message().find("out of range"),
              std::string::npos)
        << tokens.status().ToString();
  }
}

TEST(ParserTest, Example1Query1Shape) {
  auto sel = ParseSelect(
      "select c_nationkey, c_mktsegment, sum(l_extendedprice) as le "
      "from customer, orders, lineitem "
      "where c_custkey = o_custkey and o_orderkey = l_orderkey "
      "  and o_orderdate < '1996-07-01' "
      "group by c_nationkey, c_mktsegment");
  ASSERT_TRUE(sel.ok()) << sel.status().ToString();
  EXPECT_EQ((*sel)->items.size(), 3u);
  EXPECT_EQ((*sel)->items[2].alias, "le");
  EXPECT_EQ((*sel)->from.size(), 3u);
  EXPECT_EQ((*sel)->from[1].table, "orders");
  ASSERT_NE((*sel)->where, nullptr);
  EXPECT_EQ((*sel)->where->kind, AstExprKind::kAnd);
  EXPECT_EQ((*sel)->group_by.size(), 2u);
}

TEST(ParserTest, SubqueryAndOrderBy) {
  auto sel = ParseSelect(
      "select c_nationkey, sum(l_discount) as totaldisc "
      "from customer, orders, lineitem "
      "where c_custkey = o_custkey "
      "group by c_nationkey "
      "having sum(l_discount) > (select sum(l_discount) / 25 from lineitem) "
      "order by totaldisc desc");
  ASSERT_TRUE(sel.ok()) << sel.status().ToString();
  ASSERT_NE((*sel)->having, nullptr);
  EXPECT_EQ((*sel)->having->kind, AstExprKind::kComparison);
  // The '/ 25' is inside the subquery's select item, so the RHS of the
  // HAVING comparison is the subquery itself.
  EXPECT_EQ((*sel)->having->children[1]->kind, AstExprKind::kSubquery);
  ASSERT_NE((*sel)->having->children[1]->subquery, nullptr);
  EXPECT_EQ((*sel)->having->children[1]->subquery->items[0].expr->kind,
            AstExprKind::kArith);
  ASSERT_EQ((*sel)->order_by.size(), 1u);
  EXPECT_TRUE((*sel)->order_by[0].descending);
}

TEST(ParserTest, BatchAndStar) {
  auto batch = ParseBatch(
      "select * from customer; select count(*) from orders;");
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->size(), 2u);
  EXPECT_TRUE((*batch)[0]->items[0].star);
  EXPECT_TRUE((*batch)[1]->items[0].expr->count_star);
}

TEST(ParserTest, Errors) {
  EXPECT_FALSE(ParseSelect("selec x from t").ok());
  EXPECT_FALSE(ParseSelect("select from t").ok());
  EXPECT_FALSE(ParseSelect("select x t").ok());
  EXPECT_FALSE(ParseSelect("select x from t where").ok());
  EXPECT_FALSE(ParseSelect("select x from t group x").ok());
  EXPECT_FALSE(ParseSelect("select x from t extra garbage").ok());
  EXPECT_FALSE(ParseBatch("").ok());
}

// ---------------------------------------------------------------- binder ---

class SqlBindTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog_ = new Catalog();
    tpch::TpchOptions opts;
    opts.scale_factor = 0.002;
    ASSERT_TRUE(tpch::LoadTpch(catalog_, opts).ok());
  }
  static void TearDownTestSuite() { delete catalog_; }

  // Binds and executes via the naive planner.
  std::vector<Row> Run(const std::string& query) {
    QueryContext ctx(catalog_);
    auto stmts = sql::BindSql(query, &ctx);
    EXPECT_TRUE(stmts.ok()) << stmts.status().ToString();
    ExecutablePlan plan = NaivePlanBatch(*stmts, &ctx);
    return ExecutePlan(plan)[0].rows;
  }

  static Catalog* catalog_;
};

Catalog* SqlBindTest::catalog_ = nullptr;

TEST_F(SqlBindTest, BindErrors) {
  QueryContext ctx(catalog_);
  EXPECT_FALSE(sql::BindSql("select x from no_such_table", &ctx).ok());
  EXPECT_FALSE(sql::BindSql("select no_such_col from nation", &ctx).ok());
  EXPECT_FALSE(
      sql::BindSql("select n_name from nation where sum(n_nationkey) > 1",
                   &ctx)
          .ok());
  // Non-grouped column in select list of an aggregate query.
  EXPECT_FALSE(
      sql::BindSql("select n_name, count(*) from nation group by n_regionkey",
                   &ctx)
          .ok());
  // Type mismatch: string vs numeric.
  EXPECT_FALSE(
      sql::BindSql("select n_name from nation where n_name > 5", &ctx).ok());
  // Correlated subqueries are rejected (column resolves nowhere).
  EXPECT_FALSE(sql::BindSql("select n_nationkey from nation "
                            "having count(*) > (select sum(r_regionkey) "
                            "from region where r_regionkey = n_nationkey0)",
                            &ctx)
                   .ok());
  // HAVING without aggregation.
  EXPECT_FALSE(
      sql::BindSql("select n_name from nation having n_name = 'x'", &ctx)
          .ok());
}

// Arithmetic, unary minus and SUM/AVG reject string operands at bind time
// with the comparison's kind of error; MIN/MAX/COUNT over strings and
// arithmetic over numbers and dates still bind and run.
TEST_F(SqlBindTest, StringArithmeticIsATypeError) {
  QueryContext ctx(catalog_);
  for (const char* bad :
       {"select sum(n_name) from nation", "select avg(n_name) from nation",
        "select n_name + 1 from nation", "select 1 * n_name from nation",
        "select -n_name from nation", "select -'abc' from nation",
        "select n_nationkey from nation where n_name - 1 > 0",
        "select n_name from nation group by n_name having sum(n_name) > 0",
        "select n_regionkey, max(n_name) + 1 from nation "
        "group by n_regionkey"}) {
    auto bound = sql::BindSql(bad, &ctx);
    ASSERT_FALSE(bound.ok()) << bad;
    EXPECT_EQ(bound.status().code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_NE(bound.status().message().find("type mismatch"),
              std::string::npos)
        << bad << ": " << bound.status().ToString();
  }
  std::vector<Row> rows =
      Run("select min(n_name) as lo, max(n_name) as hi, count(n_name) as c "
          "from nation");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].AsString(), "ALGERIA");
  EXPECT_EQ(rows[0][2].AsInt64(), 25);
  rows = Run("select -n_nationkey + 1 as x from nation where n_nationkey = 3");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].AsInt64(), -2);
}

// Exponent literals are doubles (never the integer 1 aliased "e2"), and an
// out-of-range literal fails to bind.
TEST_F(SqlBindTest, ExponentLiterals) {
  std::vector<Row> rows = Run("select 1e2 as x from region");
  ASSERT_EQ(rows.size(), 5u);
  ASSERT_EQ(rows[0].size(), 1u);
  EXPECT_EQ(rows[0][0].type(), DataType::kDouble);
  EXPECT_DOUBLE_EQ(rows[0][0].AsDouble(), 100.0);
  rows = Run("select r_name from region where r_regionkey < 2.5e0");
  EXPECT_EQ(rows.size(), 3u);
  QueryContext ctx(catalog_);
  EXPECT_FALSE(sql::BindSql("select 1e999 from region", &ctx).ok());
  EXPECT_FALSE(sql::BindSql("select n_name from nation where n_nationkey = "
                            "99999999999999999999",
                            &ctx)
                   .ok());
}

// Malformed input found by fuzzing the front end: every case must produce a
// clean Status (never a CHECK crash), and the valid-but-unusual shapes must
// execute correctly.
TEST_F(SqlBindTest, FrontEndHardening) {
  QueryContext ctx(catalog_);
  // Duplicate table aliases, plain and explicit.
  auto dup = sql::BindSql("select n_name from nation, nation", &ctx);
  EXPECT_FALSE(dup.ok());
  EXPECT_NE(dup.status().message().find("duplicate table alias"),
            std::string::npos);
  EXPECT_FALSE(
      sql::BindSql("select r_name from region r, nation r", &ctx).ok());
  // Unknown column with qualifier.
  EXPECT_FALSE(
      sql::BindSql("select nation.r_name from nation", &ctx).ok());
  // Empty IN list: a clear parse error, not "unexpected symbol".
  auto empty_in = ParseSelect("select n_name from nation where n_nationkey in ()");
  EXPECT_FALSE(empty_in.ok());
  EXPECT_NE(empty_in.status().message().find("IN list must not be empty"),
            std::string::npos);
  // Ambiguous column: exposed by both the base table and a derived table.
  auto ambig = sql::BindSql(
      "select n_regionkey from nation, "
      "(select n_regionkey from nation where n_nationkey < 5) t",
      &ctx);
  EXPECT_FALSE(ambig.ok());
  EXPECT_NE(ambig.status().message().find("ambiguous"), std::string::npos);

  // SELECT * over a derived table used to dereference a null table pointer.
  std::vector<Row> rows =
      Run("select * from (select n_name, n_regionkey from nation "
          "where n_regionkey = 2) t");
  EXPECT_EQ(rows.size(), 5u);
  ASSERT_FALSE(rows.empty());
  EXPECT_EQ(rows[0].size(), 2u);
  // Mixed base/derived scope: star expands both, in scope order.
  rows = Run("select * from region, (select n_nationkey from nation "
             "where n_nationkey < 3) t where r_regionkey = 0");
  EXPECT_EQ(rows.size(), 3u);
  ASSERT_FALSE(rows.empty());
  EXPECT_EQ(rows[0].size(), 4u);  // 3 region columns + 1 derived
}

TEST_F(SqlBindTest, PredicatePushdownShape) {
  QueryContext ctx(catalog_);
  auto stmts = sql::BindSql(
      "select n_name from nation, region "
      "where n_regionkey = r_regionkey and n_nationkey > 3 "
      "  and r_name = 'ASIA'",
      &ctx);
  ASSERT_TRUE(stmts.ok());
  const LogicalTree& root = *(*stmts)[0].root;
  ASSERT_EQ(root.op.kind, LogicalOpKind::kProject);
  const LogicalTree& joinset = *root.children[0];
  ASSERT_EQ(joinset.op.kind, LogicalOpKind::kJoinSet);
  EXPECT_EQ(joinset.op.conjuncts.size(), 1u);  // only the join predicate
  ASSERT_EQ(joinset.children.size(), 2u);
  EXPECT_EQ(joinset.children[0]->op.kind, LogicalOpKind::kGet);
  EXPECT_EQ(joinset.children[0]->op.conjuncts.size(), 1u);  // n_nationkey>3
  EXPECT_EQ(joinset.children[1]->op.conjuncts.size(), 1u);  // r_name='ASIA'
}

TEST_F(SqlBindTest, SimpleCountAndScan) {
  auto rows = Run("select count(*) from nation");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].AsInt64(), 25);

  EXPECT_EQ(Run("select * from region").size(), 5u);
  EXPECT_EQ(Run("select r_name from region where r_regionkey >= 3").size(),
            2u);
}

TEST_F(SqlBindTest, JoinMatchesManualComputation) {
  // Count nation-region pairs per region name, computed two ways.
  auto rows = Run(
      "select r_name, count(*) as n from nation, region "
      "where n_regionkey = r_regionkey group by r_name order by r_name");
  const Table* nation = catalog_->GetTable("nation");
  int n_regionkey = nation->schema().FindColumn("n_regionkey");
  const Table* region = catalog_->GetTable("region");
  std::map<std::string, int64_t> expected;
  for (const Row& n : nation->MaterializeRows()) {
    for (const Row& r : region->MaterializeRows()) {
      if (n[n_regionkey].AsInt64() == r[0].AsInt64()) {
        expected[r[1].AsString()]++;
      }
    }
  }
  ASSERT_EQ(rows.size(), expected.size());
  for (const Row& row : rows) {
    EXPECT_EQ(row[1].AsInt64(), expected[row[0].AsString()])
        << row[0].AsString();
  }
}

TEST_F(SqlBindTest, DateCoercionFiltersOrders) {
  auto all = Run("select count(*) from orders");
  auto before = Run(
      "select count(*) from orders where o_orderdate < '1996-07-01'");
  auto after = Run(
      "select count(*) from orders where o_orderdate >= '1996-07-01'");
  EXPECT_EQ(all[0][0].AsInt64(),
            before[0][0].AsInt64() + after[0][0].AsInt64());
  EXPECT_GT(before[0][0].AsInt64(), 0);
  EXPECT_GT(after[0][0].AsInt64(), 0);
}

TEST_F(SqlBindTest, AvgLoweringMatchesSumOverCount) {
  auto avg = Run("select avg(o_totalprice) from orders");
  auto parts = Run("select sum(o_totalprice), count(o_totalprice) from orders");
  ASSERT_EQ(avg.size(), 1u);
  double expect = parts[0][0].AsDouble() / parts[0][1].AsDouble();
  EXPECT_NEAR(avg[0][0].AsDouble(), expect, 1e-6);
}

TEST_F(SqlBindTest, ArithmeticInSelect) {
  auto rows = Run(
      "select n_nationkey + 100, n_nationkey * 2 from nation "
      "where n_nationkey = 7");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].AsInt64(), 107);
  EXPECT_EQ(rows[0][1].AsInt64(), 14);
}

TEST_F(SqlBindTest, OrderByVariants) {
  auto by_alias = Run(
      "select n_name, n_nationkey as k from nation order by k desc");
  ASSERT_EQ(by_alias.size(), 25u);
  EXPECT_EQ(by_alias[0][1].AsInt64(), 24);
  auto by_position = Run("select n_name from nation order by 1");
  EXPECT_EQ(by_position[0][0].AsString(), "ALGERIA");
  auto by_expr = Run(
      "select n_regionkey, count(*) from nation group by n_regionkey "
      "order by count(*) desc, n_regionkey");
  ASSERT_EQ(by_expr.size(), 5u);
  EXPECT_GE(by_expr[0][1].AsInt64(), by_expr[4][1].AsInt64());
}

TEST_F(SqlBindTest, HavingScalarSubquery) {
  // Regions whose nation count exceeds the average (25/5 = 5 -> none),
  // and a variant with a lower threshold.
  auto none = Run(
      "select n_regionkey, count(*) as c from nation group by n_regionkey "
      "having count(*) > (select count(*) / 5 from nation)");
  EXPECT_TRUE(none.empty());
  auto all5 = Run(
      "select n_regionkey, count(*) as c from nation group by n_regionkey "
      "having count(*) >= (select count(*) / 5 from nation)");
  EXPECT_EQ(all5.size(), 5u);
}

TEST_F(SqlBindTest, WhereScalarSubquery) {
  auto rows = Run(
      "select count(*) from orders "
      "where o_totalprice > (select avg(o_totalprice) from orders)");
  auto parts = Run("select avg(o_totalprice) from orders");
  double avg = parts[0][0].AsDouble();
  const Table* orders = catalog_->GetTable("orders");
  int price_col = orders->schema().FindColumn("o_totalprice");
  int64_t expected = 0;
  for (int64_t i = 0; i < orders->row_count(); ++i) {
    if (orders->columns().column(price_col).Get(i).AsDouble() > avg) {
      ++expected;
    }
  }
  EXPECT_EQ(rows[0][0].AsInt64(), expected);
}

TEST_F(SqlBindTest, TableAliases) {
  auto rows = Run(
      "select n.n_name from nation n, region r "
      "where n.n_regionkey = r.r_regionkey and r.r_name = 'EUROPE'");
  EXPECT_EQ(rows.size(), 5u);  // five European nations in the spec mapping
}

TEST_F(SqlBindTest, BatchBindsIndependentInstances) {
  QueryContext ctx(catalog_);
  auto stmts = sql::BindSql(
      "select count(*) from nation; select count(*) from nation", &ctx);
  ASSERT_TRUE(stmts.ok());
  ASSERT_EQ(stmts->size(), 2u);
  // The two statements reference distinct relation instances.
  // Project -> GroupBy -> Get
  int rel0 = (*stmts)[0].root->children[0]->children[0]->op.rel_id;
  int rel1 = (*stmts)[1].root->children[0]->children[0]->op.rel_id;
  EXPECT_GE(rel0, 0);
  EXPECT_GE(rel1, 0);
  EXPECT_NE(rel0, rel1);
}

}  // namespace
}  // namespace subshare

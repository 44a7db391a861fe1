// Physical-operator robustness: hash-join vs nested-loop equivalence on
// randomized inputs, null join keys, empty inputs, residual predicates, and
// layout remapping.
#include <gtest/gtest.h>

#include <algorithm>

#include "exec/executor.h"
#include "logical/query.h"
#include "expr/column.h"
#include "physical/column_batch.h"
#include "util/rng.h"

namespace subshare {
namespace {

Schema KV() {
  Schema s;
  s.AddColumn("k", DataType::kInt64);
  s.AddColumn("v", DataType::kInt64);
  return s;
}

// Builds a scan node over `table` with all columns.
PhysicalNodePtr Scan(const Table* table, const std::vector<ColId>& cols) {
  auto scan = MakePhysical(PhysOpKind::kTableScan);
  scan->table = table;
  scan->input_cols = cols;
  scan->output = Layout(cols);
  return scan;
}

std::multiset<std::string> RowSet(const std::vector<Row>& rows) {
  std::multiset<std::string> out;
  for (const Row& r : rows) {
    std::string s;
    for (const Value& v : r) s += v.ToString() + "|";
    out.insert(std::move(s));
  }
  return out;
}

// Owned batch columns keep their storage across batches: clear() keeps
// capacity, so refilling a buffer batch after batch does not reallocate,
// and gathered cells keep their declared type and dictionary.
TEST(OperatorsTest, ColumnBufferReusesStorageAcrossBatches) {
  Column strs(DataType::kString);
  for (const char* s : {"x", "y"}) strs.AppendString(s);
  strs.AppendNull();
  ColumnBuffer buf;
  const int32_t rows[] = {1, 2, 0};
  buf.Gather(strs.View(), rows, 3);
  buf.Gather(strs.View(), rows, 2);
  std::vector<std::string> got;
  for (int i = 0; i < buf.size(); ++i) got.push_back(buf.view().Get(i).ToString());
  EXPECT_EQ(got, (std::vector<std::string>{"y", "NULL", "x", "y", "NULL"}));

  ColumnBuffer dates;
  Column c(DataType::kDate);
  for (int64_t d = 0; d < ColumnBatch::kDefaultCapacity; ++d) c.AppendInt64(d);
  dates.Gather(c.View(), nullptr, ColumnBatch::kDefaultCapacity);
  const int64_t* first = dates.view().ints;
  for (int round = 0; round < 64; ++round) {
    dates.clear();
    dates.Gather(c.View(), nullptr, ColumnBatch::kDefaultCapacity);
  }
  EXPECT_EQ(dates.view().ints, first);
  EXPECT_EQ(dates.view().Get(5).type(), DataType::kDate);
}

class JoinEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JoinEquivalenceTest, HashJoinEqualsNestedLoop) {
  Rng rng(GetParam());
  Catalog catalog;
  QueryContext ctx(&catalog);
  Table* left = *catalog.CreateTable("l", KV());
  Table* right = *catalog.CreateTable("r", KV());
  int64_t nl = rng.Uniform(0, 40), nr = rng.Uniform(0, 40);
  for (int64_t i = 0; i < nl; ++i) {
    // ~10% null keys: they must never join.
    Value key = rng.Uniform(0, 9) == 0 ? Value::Null(DataType::kInt64)
                                       : Value::Int64(rng.Uniform(0, 8));
    left->AppendRow({key, Value::Int64(i)});
  }
  for (int64_t i = 0; i < nr; ++i) {
    Value key = rng.Uniform(0, 9) == 0 ? Value::Null(DataType::kInt64)
                                       : Value::Int64(rng.Uniform(0, 8));
    right->AppendRow({key, Value::Int64(100 + i)});
  }
  int lrel = ctx.AddRelation(*left, "l");
  int rrel = ctx.AddRelation(*right, "r");
  std::vector<ColId> lcols = ctx.columns().RelationColumns(lrel);
  std::vector<ColId> rcols = ctx.columns().RelationColumns(rrel);
  std::vector<ColId> out_cols = {lcols[1], rcols[1], lcols[0]};

  auto hash = MakePhysical(PhysOpKind::kHashJoin);
  hash->join_keys = {{lcols[0], rcols[0]}};
  hash->children = {Scan(left, lcols), Scan(right, rcols)};
  hash->output = Layout(out_cols);

  auto nlj = MakePhysical(PhysOpKind::kNlJoin);
  nlj->nl_pred = Expr::Compare(CmpOp::kEq,
                               Expr::Column(lcols[0], DataType::kInt64),
                               Expr::Column(rcols[0], DataType::kInt64));
  nlj->children = {Scan(left, lcols), Scan(right, rcols)};
  nlj->output = Layout(out_cols);

  auto merge = MakePhysical(PhysOpKind::kMergeJoin);
  merge->join_keys = {{lcols[0], rcols[0]}};
  merge->children = {Scan(left, lcols), Scan(right, rcols)};
  merge->output = Layout(out_cols);

  ExecContext c1, c2, c3;
  auto expected = RowSet(RunToVector(*nlj, &c2));
  EXPECT_EQ(RowSet(RunToVector(*hash, &c1)), expected);
  EXPECT_EQ(RowSet(RunToVector(*merge, &c3)), expected);
}

TEST(OperatorsTest, MergeJoinDuplicateKeyRectangles) {
  // 3 left rows x 2 right rows under one key -> 6 outputs.
  Catalog catalog;
  QueryContext ctx(&catalog);
  Table* left = *catalog.CreateTable("l", KV());
  Table* right = *catalog.CreateTable("r", KV());
  for (int i = 0; i < 3; ++i) {
    left->AppendRow({Value::Int64(5), Value::Int64(i)});
  }
  left->AppendRow({Value::Int64(9), Value::Int64(99)});
  for (int i = 0; i < 2; ++i) {
    right->AppendRow({Value::Int64(5), Value::Int64(100 + i)});
  }
  right->AppendRow({Value::Int64(4), Value::Int64(44)});
  int lrel = ctx.AddRelation(*left, "l");
  int rrel = ctx.AddRelation(*right, "r");
  auto lcols = ctx.columns().RelationColumns(lrel);
  auto rcols = ctx.columns().RelationColumns(rrel);
  auto merge = MakePhysical(PhysOpKind::kMergeJoin);
  merge->join_keys = {{lcols[0], rcols[0]}};
  merge->children = {Scan(left, lcols), Scan(right, rcols)};
  merge->output = Layout({lcols[1], rcols[1]});
  ExecContext c;
  EXPECT_EQ(RunToVector(*merge, &c).size(), 6u);
}

TEST(OperatorsTest, MergeJoinMultiKeyAndResidual) {
  Catalog catalog;
  QueryContext ctx(&catalog);
  Schema s;
  s.AddColumn("a", DataType::kInt64);
  s.AddColumn("b", DataType::kInt64);
  s.AddColumn("v", DataType::kInt64);
  Table* left = *catalog.CreateTable("l", s);
  Table* right = *catalog.CreateTable("r", s);
  Rng rng(5);
  for (int i = 0; i < 60; ++i) {
    left->AppendRow({Value::Int64(rng.Uniform(0, 3)),
                     Value::Int64(rng.Uniform(0, 3)),
                     Value::Int64(rng.Uniform(0, 50))});
    right->AppendRow({Value::Int64(rng.Uniform(0, 3)),
                      Value::Int64(rng.Uniform(0, 3)),
                      Value::Int64(rng.Uniform(0, 50))});
  }
  int lrel = ctx.AddRelation(*left, "l");
  int rrel = ctx.AddRelation(*right, "r");
  auto lc = ctx.columns().RelationColumns(lrel);
  auto rc = ctx.columns().RelationColumns(rrel);
  ExprPtr residual = Expr::Compare(CmpOp::kLt,
                                   Expr::Column(lc[2], DataType::kInt64),
                                   Expr::Column(rc[2], DataType::kInt64));
  auto merge = MakePhysical(PhysOpKind::kMergeJoin);
  merge->join_keys = {{lc[0], rc[0]}, {lc[1], rc[1]}};
  merge->join_residual = residual;
  merge->children = {Scan(left, lc), Scan(right, rc)};
  merge->output = Layout({lc[2], rc[2]});
  auto hash = MakePhysical(PhysOpKind::kHashJoin);
  hash->join_keys = {{lc[0], rc[0]}, {lc[1], rc[1]}};
  hash->join_residual = residual;
  hash->children = {Scan(left, lc), Scan(right, rc)};
  hash->output = Layout({lc[2], rc[2]});
  ExecContext c1, c2;
  EXPECT_EQ(RowSet(RunToVector(*merge, &c1)),
            RowSet(RunToVector(*hash, &c2)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, JoinEquivalenceTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

TEST(OperatorsTest, HashJoinResidualPredicate) {
  Catalog catalog;
  QueryContext ctx(&catalog);
  Table* left = *catalog.CreateTable("l", KV());
  Table* right = *catalog.CreateTable("r", KV());
  left->AppendRow({Value::Int64(1), Value::Int64(10)});
  left->AppendRow({Value::Int64(1), Value::Int64(20)});
  right->AppendRow({Value::Int64(1), Value::Int64(15)});
  int lrel = ctx.AddRelation(*left, "l");
  int rrel = ctx.AddRelation(*right, "r");
  auto lcols = ctx.columns().RelationColumns(lrel);
  auto rcols = ctx.columns().RelationColumns(rrel);

  auto join = MakePhysical(PhysOpKind::kHashJoin);
  join->join_keys = {{lcols[0], rcols[0]}};
  // residual: l.v < r.v
  join->join_residual = Expr::Compare(
      CmpOp::kLt, Expr::Column(lcols[1], DataType::kInt64),
      Expr::Column(rcols[1], DataType::kInt64));
  join->children = {Scan(left, lcols), Scan(right, rcols)};
  join->output = Layout({lcols[1]});
  ExecContext c;
  auto rows = RunToVector(*join, &c);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].AsInt64(), 10);
}

TEST(OperatorsTest, EmptyInputsEverywhere) {
  Catalog catalog;
  QueryContext ctx(&catalog);
  Table* empty = *catalog.CreateTable("e", KV());
  Table* full = *catalog.CreateTable("f", KV());
  full->AppendRow({Value::Int64(1), Value::Int64(2)});
  int erel = ctx.AddRelation(*empty, "e");
  int frel = ctx.AddRelation(*full, "f");
  auto ecols = ctx.columns().RelationColumns(erel);
  auto fcols = ctx.columns().RelationColumns(frel);

  for (bool empty_left : {true, false}) {
    auto join = MakePhysical(PhysOpKind::kHashJoin);
    auto l = empty_left ? Scan(empty, ecols) : Scan(full, fcols);
    auto r = empty_left ? Scan(full, fcols) : Scan(empty, ecols);
    join->join_keys = {
        {empty_left ? ecols[0] : fcols[0], empty_left ? fcols[0] : ecols[0]}};
    join->children = {l, r};
    join->output = Layout({empty_left ? ecols[1] : fcols[1]});
    ExecContext c;
    EXPECT_TRUE(RunToVector(*join, &c).empty());
  }

  // Sort/filter over empty input.
  auto filter = MakePhysical(PhysOpKind::kFilter);
  filter->filter = Expr::Compare(CmpOp::kGt,
                                 Expr::Column(ecols[0], DataType::kInt64),
                                 Expr::Literal(Value::Int64(0)));
  filter->children = {Scan(empty, ecols)};
  filter->output = Layout(ecols);
  auto sort = MakePhysical(PhysOpKind::kSort);
  sort->sort_keys = {{ecols[0], false}};
  sort->children = {filter};
  sort->output = Layout(ecols);
  ExecContext c;
  EXPECT_TRUE(RunToVector(*sort, &c).empty());
}

TEST(OperatorsTest, OutputLayoutPermutesAndProjects) {
  Catalog catalog;
  QueryContext ctx(&catalog);
  Table* t = *catalog.CreateTable("t", KV());
  t->AppendRow({Value::Int64(7), Value::Int64(8)});
  int rel = ctx.AddRelation(*t, "t");
  auto cols = ctx.columns().RelationColumns(rel);
  // Scan outputs (v, k): permuted relative to storage.
  auto scan = MakePhysical(PhysOpKind::kTableScan);
  scan->table = t;
  scan->input_cols = cols;
  scan->output = Layout({cols[1], cols[0]});
  ExecContext c;
  auto rows = RunToVector(*scan, &c);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].AsInt64(), 8);
  EXPECT_EQ(rows[0][1].AsInt64(), 7);
}

TEST(OperatorsTest, HashAggReaggregationMatchesDirect) {
  // SUM of partial SUMs == direct SUM (the decomposition re-aggregation
  // and eager group-by rely on).
  Catalog catalog;
  QueryContext ctx(&catalog);
  Schema s;
  s.AddColumn("g", DataType::kInt64);
  s.AddColumn("sub", DataType::kInt64);
  s.AddColumn("x", DataType::kDouble);
  Table* t = *catalog.CreateTable("t", s);
  Rng rng(99);
  for (int i = 0; i < 200; ++i) {
    t->AppendRow({Value::Int64(rng.Uniform(0, 4)),
                  Value::Int64(rng.Uniform(0, 9)),
                  Value::Double(rng.Uniform(1, 100) / 10.0)});
  }
  int rel = ctx.AddRelation(*t, "t");
  auto cols = ctx.columns().RelationColumns(rel);
  ColId partial_out = ctx.columns().AddSynthetic("ps", DataType::kDouble);
  ColId final_out = ctx.columns().AddSynthetic("fs", DataType::kDouble);
  ColId direct_out = ctx.columns().AddSynthetic("ds", DataType::kDouble);

  // direct: γ_g sum(x)
  auto direct = MakePhysical(PhysOpKind::kHashAgg);
  direct->group_cols = {cols[0]};
  direct->aggs = {{AggFn::kSum, Expr::Column(cols[2], DataType::kDouble),
                   direct_out}};
  direct->children = {Scan(t, cols)};
  direct->output = Layout({cols[0], direct_out});

  // two-level: γ_{g,sub} sum(x) then γ_g sum(partial)
  auto partial = MakePhysical(PhysOpKind::kHashAgg);
  partial->group_cols = {cols[0], cols[1]};
  partial->aggs = {{AggFn::kSum, Expr::Column(cols[2], DataType::kDouble),
                    partial_out}};
  partial->children = {Scan(t, cols)};
  partial->output = Layout({cols[0], cols[1], partial_out});
  auto reagg = MakePhysical(PhysOpKind::kHashAgg);
  reagg->group_cols = {cols[0]};
  reagg->aggs = {{AggFn::kSum, Expr::Column(partial_out, DataType::kDouble),
                  final_out}};
  reagg->children = {partial};
  reagg->output = Layout({cols[0], final_out});

  ExecContext c1, c2;
  auto d = RunToVector(*direct, &c1);
  auto r = RunToVector(*reagg, &c2);
  ASSERT_EQ(d.size(), r.size());
  auto by_group = [](std::vector<Row> rows) {
    std::map<int64_t, double> m;
    for (const Row& row : rows) m[row[0].AsInt64()] = row[1].AsDouble();
    return m;
  };
  auto dm = by_group(d), rm = by_group(r);
  for (const auto& [g, sum] : dm) {
    EXPECT_NEAR(sum, rm[g], 1e-9) << "group " << g;
  }
}

TEST(OperatorsTest, ScanCountersAccumulate) {
  Catalog catalog;
  QueryContext ctx(&catalog);
  Table* t = *catalog.CreateTable("t", KV());
  for (int i = 0; i < 10; ++i) {
    t->AppendRow({Value::Int64(i), Value::Int64(i)});
  }
  int rel = ctx.AddRelation(*t, "t");
  auto cols = ctx.columns().RelationColumns(rel);
  ExecContext c;
  RunToVector(*Scan(t, cols), &c);
  EXPECT_EQ(c.rows_scanned, 10);
  RunToVector(*Scan(t, cols), &c);
  EXPECT_EQ(c.rows_scanned, 20);
}

}  // namespace
}  // namespace subshare

// Batch-plan parity against hash-free references.
//
// The executor has one pull interface (NextBatch) and one batch format
// (typed column spans plus a selection vector); plans are judged against
// plans that compute the same result through different join code, and the
// batch-format cases at the end also against Value-level references
// computed row by row in this file. This suite pins the paths that have
// real divergence potential:
//   - scans handing their store spans and filter selection to a hash-join
//     probe or hash aggregation, and filters / projections passing spans
//     through,
//   - single-column hash-join keys (exact ChainTable keys) vs. multi-column
//     (hashed) keys, including non-integral double, int64-vs-double, string
//     keys from different dictionaries and null join keys,
//   - every hand-built hash-join plan against the same plan with its hash
//     joins swapped for merge joins and then nested-loop joins,
//   - the nested-loop, merge and index nested-loop batch paths: null keys,
//     residual predicates, empty inputs, an equal-key range whose cross
//     product spans several output batches, and outer batches with
//     matchless rows,
//   - optimized SQL plans (CSE spool write + multi-consumer spool read,
//     index scans on and off) against the naive planner's merge-join plans,
//   - aggregation edge cases (null/-0.0 keys, type fidelity, expression
//     arguments, input straight from a scan or through a filter) against an
//     AggAccumulator reference,
//   - spools written from batches (dictionary re-interning), sorting over
//     join output, and output batches never exceeding their capacity.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "row_eval.h"
#include "agg_reference.h"
#include "core/cse_optimizer.h"
#include "exec/executor.h"
#include "exec/naive_planner.h"
#include "expr/column.h"
#include "logical/query.h"
#include "sql/binder.h"
#include "tpch/tpch.h"
#include "util/rng.h"

namespace subshare {
namespace {

std::vector<std::string> Canon(const std::vector<Row>& rows) {
  std::vector<std::string> out;
  for (const Row& r : rows) {
    std::string s;
    for (const Value& v : r) {
      if (v.type() == DataType::kDouble && !v.is_null()) {
        char buf[32];
        snprintf(buf, sizeof(buf), "%.3f", v.AsDouble());
        s += buf;
      } else {
        s += v.ToString();
      }
      s += "|";
    }
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end());
  return out;
}

// ---------------------------------------------------------------------------
// SQL-level parity on TPC-H: optimized plans (index scans on and off)
// against the naive planner's plans, which join by sort-merge and nested
// loops and group by sorting; compare per-statement results.

const char* kBatches[] = {
    // Scan -> hash agg, dense filter windows.
    "select l_returnflag, l_linestatus, sum(l_quantity) as q, "
    "count(*) as c from lineitem where l_shipdate < '1996-01-01' "
    "group by l_returnflag, l_linestatus",
    // 3-way join: single int keys, probe reading lineitem scan spans.
    "select c_nationkey, sum(l_extendedprice) as rev from customer, orders, "
    "lineitem where c_custkey = o_custkey and o_orderkey = l_orderkey "
    "and o_orderdate < '1996-07-01' group by c_nationkey",
    // Composite join key (two equi-columns): general hash-keyed path.
    "select count(*) as n from partsupp, lineitem where "
    "ps_partkey = l_partkey and ps_suppkey = l_suppkey",
    // Empty result set (predicate matches nothing).
    "select l_returnflag, sum(l_quantity) as q from lineitem "
    "where l_shipdate < '1970-01-01' group by l_returnflag",
    // Join with an empty build/probe side.
    "select count(*) as n from orders, lineitem where "
    "o_orderkey = l_orderkey and o_orderdate < '1970-01-01'",
    // Order-by on top of a join (sort consumes the join).
    "select o_orderkey, sum(l_extendedprice) as rev from orders, lineitem "
    "where o_orderkey = l_orderkey and o_orderdate < '1992-06-01' "
    "group by o_orderkey order by rev desc",
    // CSE batch (paper Example 1): spool write + three spool consumers.
    "select c_nationkey, c_mktsegment, sum(l_extendedprice) as le, "
    "sum(l_quantity) as lq from customer, orders, lineitem "
    "where c_custkey = o_custkey and o_orderkey = l_orderkey "
    "and o_orderdate < '1996-07-01' and c_nationkey > 0 "
    "and c_nationkey < 20 group by c_nationkey, c_mktsegment; "
    "select c_nationkey, sum(l_extendedprice) as le, "
    "sum(l_quantity) as lq from customer, orders, lineitem "
    "where c_custkey = o_custkey and o_orderkey = l_orderkey "
    "and o_orderdate < '1996-07-01' and c_nationkey > 5 "
    "and c_nationkey < 25 group by c_nationkey; "
    "select n_regionkey, sum(l_extendedprice) as le, "
    "sum(l_quantity) as lq from customer, orders, lineitem, nation "
    "where c_custkey = o_custkey and o_orderkey = l_orderkey "
    "and c_nationkey = n_nationkey and o_orderdate < '1996-07-01' "
    "and c_nationkey > 2 and c_nationkey < 24 group by n_regionkey",
};

class BatchParityTest : public ::testing::TestWithParam<int> {
 protected:
  static void SetUpTestSuite() {
    catalog_ = new Catalog();
    tpch::TpchOptions opts;
    opts.scale_factor = 0.002;
    ASSERT_TRUE(tpch::LoadTpch(catalog_, opts).ok());
  }
  static void TearDownTestSuite() { delete catalog_; }
  static Catalog* catalog_;
};

Catalog* BatchParityTest::catalog_ = nullptr;

TEST_P(BatchParityTest, OptimizedPlansMatchMergeJoinReference) {
  const std::string batch = kBatches[GetParam()];
  // Reference: the naive plans (merge / nested-loop joins, no hash table).
  QueryContext naive_ctx(catalog_);
  auto naive_stmts = sql::BindSql(batch, &naive_ctx);
  ASSERT_TRUE(naive_stmts.ok()) << naive_stmts.status().ToString();
  auto reference = ExecutePlan(NaivePlanBatch(*naive_stmts, &naive_ctx));

  // Index scans on: index NL joins pull their outer side in batches;
  // off: plans stay on scans, hash joins and hash aggregation.
  for (bool index_scans : {true, false}) {
    QueryContext ctx(catalog_);
    auto stmts = sql::BindSql(batch, &ctx);
    ASSERT_TRUE(stmts.ok());
    CseOptimizerOptions options;
    options.optimizer.enable_index_scans = index_scans;
    CseQueryOptimizer optimizer(&ctx, options);
    CseMetrics metrics;
    ExecutablePlan plan = optimizer.Optimize(*stmts, &metrics);
    auto results = ExecutePlan(plan);

    ASSERT_EQ(results.size(), reference.size());
    for (size_t i = 0; i < reference.size(); ++i) {
      EXPECT_EQ(Canon(results[i].rows), Canon(reference[i].rows))
          << "index_scans=" << index_scans << ", stmt " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllBatches, BatchParityTest,
                         ::testing::Range(0, 7));

// ---------------------------------------------------------------------------
// Operator-level parity: hand-built plans over small tables with null keys,
// fractional double keys, residual predicates, and empty inputs, each run
// against its hash-free join references.

Schema KV(DataType key_type = DataType::kInt64) {
  Schema s;
  s.AddColumn("k", key_type);
  s.AddColumn("v", DataType::kInt64);
  return s;
}

PhysicalNodePtr Scan(const Table* table, const std::vector<ColId>& cols) {
  auto scan = MakePhysical(PhysOpKind::kTableScan);
  scan->table = table;
  scan->input_cols = cols;
  scan->output = Layout(cols);
  return scan;
}

std::vector<std::string> RunCanon(const PhysicalNode& node) {
  ExecContext ctx;
  return Canon(RunToVector(node, &ctx));
}

// `node` with every hash join replaced by a `kind` join on the same keys and
// residual; a nested-loop join folds the key equalities into its predicate.
PhysicalNodePtr SwapHashJoins(const PhysicalNode& node, PhysOpKind kind,
                              const QueryContext& ctx) {
  auto out = std::make_shared<PhysicalNode>(node);
  for (PhysicalNodePtr& child : out->children) {
    child = SwapHashJoins(*child, kind, ctx);
  }
  if (node.kind != PhysOpKind::kHashJoin) return out;
  out->kind = kind;
  if (kind == PhysOpKind::kNlJoin) {
    std::vector<ExprPtr> conjuncts;
    for (const auto& [l, r] : node.join_keys) {
      conjuncts.push_back(
          Expr::Compare(CmpOp::kEq, Expr::Column(l, ctx.columns().info(l).type),
                        Expr::Column(r, ctx.columns().info(r).type)));
    }
    if (node.join_residual != nullptr) conjuncts.push_back(node.join_residual);
    out->nl_pred = CombineConjuncts(conjuncts);
    out->join_keys.clear();
    out->join_residual = nullptr;
  }
  return out;
}

// Runs `node` and checks it against the same plan with its hash joins
// swapped for merge joins and for nested-loop joins. Returns the (sorted,
// rendered) rows.
std::vector<std::string> RunAgainstReferences(const PhysicalNode& node,
                                              const QueryContext& ctx) {
  std::vector<std::string> got = RunCanon(node);
  for (PhysOpKind kind : {PhysOpKind::kMergeJoin, PhysOpKind::kNlJoin}) {
    PhysicalNodePtr reference = SwapHashJoins(node, kind, ctx);
    EXPECT_EQ(RunCanon(*reference), got) << PhysOpKindName(kind)
                                         << " reference";
  }
  return got;
}

// Null keys must never join, on any join path.
TEST(ExecBatchParityTest, NullIntKeysNeverJoin) {
  Rng rng(11);
  Catalog catalog;
  QueryContext ctx(&catalog);
  Table* left = *catalog.CreateTable("l", KV());
  Table* right = *catalog.CreateTable("r", KV());
  for (int i = 0; i < 200; ++i) {
    Value lk = rng.Uniform(0, 9) == 0 ? Value::Null(DataType::kInt64)
                                      : Value::Int64(rng.Uniform(0, 12));
    Value rk = rng.Uniform(0, 9) == 0 ? Value::Null(DataType::kInt64)
                                      : Value::Int64(rng.Uniform(0, 12));
    left->AppendRow({lk, Value::Int64(i)});
    right->AppendRow({rk, Value::Int64(1000 + i)});
  }
  int lrel = ctx.AddRelation(*left, "l");
  int rrel = ctx.AddRelation(*right, "r");
  auto lc = ctx.columns().RelationColumns(lrel);
  auto rc = ctx.columns().RelationColumns(rrel);
  auto join = MakePhysical(PhysOpKind::kHashJoin);
  join->join_keys = {{lc[0], rc[0]}};
  join->children = {Scan(left, lc), Scan(right, rc)};
  join->output = Layout({lc[1], rc[1], lc[0]});
  std::vector<std::string> rows = RunAgainstReferences(*join, ctx);
  for (const std::string& r : rows) {
    EXPECT_EQ(r.find("NULL|"), std::string::npos)
        << "null key joined: " << r;
  }
}

// Fractional doubles disqualify the int-key fast path; integral doubles must
// still match int64 keys exactly (Value::Compare semantics).
TEST(ExecBatchParityTest, DoubleKeysUseGeneralPath) {
  Catalog catalog;
  QueryContext ctx(&catalog);
  Table* left = *catalog.CreateTable("l", KV(DataType::kInt64));
  Table* right = *catalog.CreateTable("r", KV(DataType::kDouble));
  for (int i = 0; i < 6; ++i) left->AppendRow({Value::Int64(i), Value::Int64(i)});
  right->AppendRow({Value::Double(2.0), Value::Int64(100)});   // joins k=2
  right->AppendRow({Value::Double(2.5), Value::Int64(101)});   // joins nothing
  right->AppendRow({Value::Double(4.0), Value::Int64(102)});   // joins k=4
  right->AppendRow({Value::Null(DataType::kDouble), Value::Int64(103)});
  int lrel = ctx.AddRelation(*left, "l");
  int rrel = ctx.AddRelation(*right, "r");
  auto lc = ctx.columns().RelationColumns(lrel);
  auto rc = ctx.columns().RelationColumns(rrel);
  auto join = MakePhysical(PhysOpKind::kHashJoin);
  join->join_keys = {{lc[0], rc[0]}};
  join->children = {Scan(left, lc), Scan(right, rc)};
  join->output = Layout({lc[1], rc[1]});
  EXPECT_EQ(RunAgainstReferences(*join, ctx).size(), 2u);
}

// Residual predicates filter matches after the key lookup on every path.
TEST(ExecBatchParityTest, ResidualPredicateParity) {
  Rng rng(23);
  Catalog catalog;
  QueryContext ctx(&catalog);
  Table* left = *catalog.CreateTable("l", KV());
  Table* right = *catalog.CreateTable("r", KV());
  for (int i = 0; i < 120; ++i) {
    left->AppendRow({Value::Int64(rng.Uniform(0, 5)),
                     Value::Int64(rng.Uniform(0, 40))});
    right->AppendRow({Value::Int64(rng.Uniform(0, 5)),
                      Value::Int64(rng.Uniform(0, 40))});
  }
  int lrel = ctx.AddRelation(*left, "l");
  int rrel = ctx.AddRelation(*right, "r");
  auto lc = ctx.columns().RelationColumns(lrel);
  auto rc = ctx.columns().RelationColumns(rrel);
  auto join = MakePhysical(PhysOpKind::kHashJoin);
  join->join_keys = {{lc[0], rc[0]}};
  join->join_residual = Expr::Compare(CmpOp::kLt,
                                 Expr::Column(lc[1], DataType::kInt64),
                                 Expr::Column(rc[1], DataType::kInt64));
  join->children = {Scan(left, lc), Scan(right, rc)};
  join->output = Layout({lc[1], rc[1]});
  EXPECT_GT(RunAgainstReferences(*join, ctx).size(), 0u);
}

// Empty build and empty probe sides terminate cleanly on every join path
// (the index NL join's empty outer and empty inner included).
TEST(ExecBatchParityTest, EmptyInputsParity) {
  Catalog catalog;
  QueryContext ctx(&catalog);
  Table* empty = *catalog.CreateTable("e", KV());
  Table* full = *catalog.CreateTable("f", KV());
  for (int i = 0; i < 10; ++i) {
    full->AppendRow({Value::Int64(i), Value::Int64(i)});
  }
  int erel = ctx.AddRelation(*empty, "e");
  int frel = ctx.AddRelation(*full, "f");
  auto ec = ctx.columns().RelationColumns(erel);
  auto fc = ctx.columns().RelationColumns(frel);
  for (bool empty_left : {true, false}) {
    auto join = MakePhysical(PhysOpKind::kHashJoin);
    if (empty_left) {
      join->join_keys = {{ec[0], fc[0]}};
      join->children = {Scan(empty, ec), Scan(full, fc)};
      join->output = Layout({ec[1], fc[1]});
    } else {
      join->join_keys = {{fc[0], ec[0]}};
      join->children = {Scan(full, fc), Scan(empty, ec)};
      join->output = Layout({fc[1], ec[1]});
    }
    EXPECT_EQ(RunAgainstReferences(*join, ctx).size(), 0u);
  }
  empty->CreateIndex(0);
  full->CreateIndex(0);
  for (bool empty_outer : {true, false}) {
    const Table* inner = empty_outer ? full : empty;
    const std::vector<ColId>& oc = empty_outer ? ec : fc;
    const std::vector<ColId>& ic = empty_outer ? fc : ec;
    auto join = MakePhysical(PhysOpKind::kIndexNlJoin);
    join->table = inner;
    join->rel_id = empty_outer ? frel : erel;
    join->input_cols = ic;
    join->index_range.column_idx = 0;
    join->join_keys = {{oc[0], ic[0]}};
    join->children = {Scan(empty_outer ? empty : full, oc)};
    join->output = Layout({oc[1], ic[1]});
    EXPECT_EQ(RunCanon(*join).size(), 0u)
        << "empty_outer=" << empty_outer;
  }
}

// A nested-loop join whose left input is a hash join on a composite
// two-column key (the generic path: ChainTable chains keyed by hash and
// filtered at emit): the NL join's batch path pairs each pulled batch with
// its materialized right side, and the whole tree must agree with its
// merge- and NL-join references.
TEST(ExecBatchParityTest, NlJoinOverCompositeKeyHashJoin) {
  Rng rng(67);
  Catalog catalog;
  QueryContext ctx(&catalog);
  Schema wide;
  wide.AddColumn("k1", DataType::kInt64);
  wide.AddColumn("k2", DataType::kInt64);
  wide.AddColumn("v", DataType::kInt64);
  Table* left = *catalog.CreateTable("l", wide);
  Table* right = *catalog.CreateTable("r", wide);
  Table* outer = *catalog.CreateTable("t", KV());
  for (int i = 0; i < 90; ++i) {
    Value lk = rng.Uniform(0, 9) == 0 ? Value::Null(DataType::kInt64)
                                      : Value::Int64(rng.Uniform(0, 4));
    left->AppendRow({lk, Value::Int64(rng.Uniform(0, 4)),
                     Value::Int64(rng.Uniform(0, 6))});
    right->AppendRow({Value::Int64(rng.Uniform(0, 4)),
                      Value::Int64(rng.Uniform(0, 4)),
                      Value::Int64(rng.Uniform(0, 6))});
  }
  for (int i = 0; i < 4; ++i) {
    outer->AppendRow({Value::Int64(i), Value::Int64(i)});
  }
  int lrel = ctx.AddRelation(*left, "l");
  int rrel = ctx.AddRelation(*right, "r");
  int trel = ctx.AddRelation(*outer, "t");
  auto lc = ctx.columns().RelationColumns(lrel);
  auto rc = ctx.columns().RelationColumns(rrel);
  auto tc = ctx.columns().RelationColumns(trel);

  auto hash = MakePhysical(PhysOpKind::kHashJoin);
  hash->join_keys = {{lc[0], rc[0]}, {lc[1], rc[1]}};  // generic path
  hash->children = {Scan(left, lc), Scan(right, rc)};
  hash->output = Layout({lc[2], rc[2]});

  auto nlj = MakePhysical(PhysOpKind::kNlJoin);
  nlj->nl_pred = Expr::Compare(CmpOp::kEq,
                               Expr::Column(lc[2], DataType::kInt64),
                               Expr::Column(tc[0], DataType::kInt64));
  nlj->children = {std::move(hash), Scan(outer, tc)};
  nlj->output = Layout({lc[2], rc[2], tc[1]});
  EXPECT_GT(RunAgainstReferences(*nlj, ctx).size(), 0u);
}

// Merge join drains, null-filters, and sorts both sides itself; null keys
// must not pair up (null Compare()s equal to null) and the residual applies
// inside equal-key rectangles. The NL join evaluates the key equality and
// the residual as one predicate. Both agree with the hash join.
TEST(ExecBatchParityTest, MergeAndNlJoinNullKeysAndResidual) {
  Rng rng(31);
  Catalog catalog;
  QueryContext ctx(&catalog);
  Table* left = *catalog.CreateTable("l", KV());
  Table* right = *catalog.CreateTable("r", KV());
  for (int i = 0; i < 150; ++i) {
    Value lk = rng.Uniform(0, 7) == 0 ? Value::Null(DataType::kInt64)
                                      : Value::Int64(rng.Uniform(0, 8));
    Value rk = rng.Uniform(0, 7) == 0 ? Value::Null(DataType::kInt64)
                                      : Value::Int64(rng.Uniform(0, 8));
    left->AppendRow({lk, Value::Int64(rng.Uniform(0, 30))});
    right->AppendRow({rk, Value::Int64(rng.Uniform(0, 30))});
  }
  int lrel = ctx.AddRelation(*left, "l");
  int rrel = ctx.AddRelation(*right, "r");
  auto lc = ctx.columns().RelationColumns(lrel);
  auto rc = ctx.columns().RelationColumns(rrel);
  auto join = MakePhysical(PhysOpKind::kHashJoin);
  join->join_keys = {{lc[0], rc[0]}};
  join->join_residual = Expr::Compare(CmpOp::kLt,
                                      Expr::Column(lc[1], DataType::kInt64),
                                      Expr::Column(rc[1], DataType::kInt64));
  join->children = {Scan(left, lc), Scan(right, rc)};
  join->output = Layout({lc[0], lc[1], rc[1]});
  std::vector<std::string> rows = RunAgainstReferences(*join, ctx);
  EXPECT_GT(rows.size(), 0u);
  for (const std::string& r : rows) {
    EXPECT_NE(r.substr(0, 5), "NULL|") << "null key joined: " << r;
  }
}

// One equal-key range whose cross product (60 x 60 = 3600 pairs) spans
// several 1024-row output batches: the merge and NL joins resume mid-range
// and never overfill a batch; every pair comes out exactly once.
TEST(ExecBatchParityTest, LargeEqualKeyRangeSpansBatches) {
  Catalog catalog;
  QueryContext ctx(&catalog);
  Table* left = *catalog.CreateTable("l", KV());
  Table* right = *catalog.CreateTable("r", KV());
  for (int i = 0; i < 60; ++i) {
    left->AppendRow({Value::Int64(7), Value::Int64(i)});
    right->AppendRow({Value::Int64(7), Value::Int64(100 + i)});
  }
  left->AppendRow({Value::Int64(3), Value::Int64(-1)});  // no partner
  right->CreateIndex(0);
  int lrel = ctx.AddRelation(*left, "l");
  int rrel = ctx.AddRelation(*right, "r");
  auto lc = ctx.columns().RelationColumns(lrel);
  auto rc = ctx.columns().RelationColumns(rrel);
  auto join = MakePhysical(PhysOpKind::kHashJoin);
  join->join_keys = {{lc[0], rc[0]}};
  join->children = {Scan(left, lc), Scan(right, rc)};
  join->output = Layout({lc[1], rc[1]});
  std::vector<std::string> rows = RunAgainstReferences(*join, ctx);
  EXPECT_EQ(rows.size(), 3600u);
  EXPECT_EQ(std::adjacent_find(rows.begin(), rows.end()), rows.end())
      << "a pair was emitted twice";

  auto inl = MakePhysical(PhysOpKind::kIndexNlJoin);
  inl->table = right;
  inl->rel_id = rrel;
  inl->input_cols = rc;
  inl->index_range.column_idx = 0;
  inl->join_keys = {{lc[0], rc[0]}};
  inl->children = {Scan(left, lc)};
  inl->output = Layout({lc[1], rc[1]});
  for (const PhysicalNodePtr& plan :
       {SwapHashJoins(*join, PhysOpKind::kMergeJoin, ctx),
        SwapHashJoins(*join, PhysOpKind::kNlJoin, ctx), inl}) {
    ExecContext ectx;
    std::unique_ptr<Operator> op = BuildOperator(*plan, &ectx);
    op->Open();
    ColumnBatch batch;
    int64_t total = 0;
    int batches = 0;
    while (op->NextBatch(&batch)) {
      EXPECT_LE(batch.size(), batch.capacity()) << PhysOpKindName(plan->kind);
      total += batch.size();
      ++batches;
    }
    EXPECT_EQ(total, 3600) << PhysOpKindName(plan->kind);
    EXPECT_GE(batches, 4) << PhysOpKindName(plan->kind);
  }
  ExecContext ectx;
  EXPECT_EQ(Canon(RunToVector(*inl, &ectx)), rows);
}

// Index NL join probes a base-table sorted index per outer row. Null outer
// keys must probe nothing; the inner filter and the residual apply per
// match. Reference: the hash join of the same spec (inner filter folded
// into the residual) and its merge / NL swaps.
TEST(ExecBatchParityTest, IndexNlJoinNullOuterKeysAndResidual) {
  Rng rng(43);
  Catalog catalog;
  QueryContext ctx(&catalog);
  Table* outer = *catalog.CreateTable("o", KV());
  Table* inner = *catalog.CreateTable("i", KV());
  for (int i = 0; i < 80; ++i) {
    Value ok = rng.Uniform(0, 5) == 0 ? Value::Null(DataType::kInt64)
                                      : Value::Int64(rng.Uniform(0, 10));
    outer->AppendRow({ok, Value::Int64(i)});
    inner->AppendRow({Value::Int64(rng.Uniform(0, 10)),
                      Value::Int64(rng.Uniform(0, 50))});
  }
  inner->CreateIndex(0);
  int orel = ctx.AddRelation(*outer, "o");
  int irel = ctx.AddRelation(*inner, "i");
  auto oc = ctx.columns().RelationColumns(orel);
  auto ic = ctx.columns().RelationColumns(irel);
  auto inner_lt_40 = Expr::Compare(CmpOp::kLt,
                                   Expr::Column(ic[1], DataType::kInt64),
                                   Expr::Literal(Value::Int64(40)));
  auto residual = Expr::Compare(
      CmpOp::kNe,
      Expr::Arith(ArithOp::kAdd, Expr::Column(oc[1], DataType::kInt64),
                  Expr::Column(ic[1], DataType::kInt64)),
      Expr::Literal(Value::Int64(50)));
  auto join = MakePhysical(PhysOpKind::kIndexNlJoin);
  join->table = inner;
  join->rel_id = irel;
  join->input_cols = ic;
  join->index_range.column_idx = 0;
  join->join_keys = {{oc[0], ic[0]}};
  join->filter = inner_lt_40;
  join->join_residual = residual;
  join->children = {Scan(outer, oc)};
  join->output = Layout({oc[0], oc[1], ic[1]});

  auto href = MakePhysical(PhysOpKind::kHashJoin);
  href->join_keys = {{oc[0], ic[0]}};
  href->join_residual = CombineConjuncts({inner_lt_40, residual});
  href->children = {Scan(outer, oc), Scan(inner, ic)};
  href->output = Layout({oc[0], oc[1], ic[1]});
  std::vector<std::string> want = RunAgainstReferences(*href, ctx);
  EXPECT_GT(want.size(), 0u);
  EXPECT_EQ(RunCanon(*join), want);
}

// Outer batches in which most rows have no index match (keys 0..2499
// against inner keys that are multiples of 7, in two-plus outer batches):
// the index NL join skips matchless rows without ending the batch early.
TEST(ExecBatchParityTest, IndexNlJoinOuterBatchWithMatchlessRows) {
  Catalog catalog;
  QueryContext ctx(&catalog);
  Table* outer = *catalog.CreateTable("o", KV());
  Table* inner = *catalog.CreateTable("i", KV());
  for (int i = 0; i < 2500; ++i) {
    outer->AppendRow({Value::Int64(i), Value::Int64(i)});
  }
  for (int i = 0; i < 2500; i += 7) {
    inner->AppendRow({Value::Int64(i), Value::Int64(-i)});
    inner->AppendRow({Value::Int64(i), Value::Int64(i)});
  }
  inner->CreateIndex(0);
  int orel = ctx.AddRelation(*outer, "o");
  int irel = ctx.AddRelation(*inner, "i");
  auto oc = ctx.columns().RelationColumns(orel);
  auto ic = ctx.columns().RelationColumns(irel);
  auto join = MakePhysical(PhysOpKind::kIndexNlJoin);
  join->table = inner;
  join->rel_id = irel;
  join->input_cols = ic;
  join->index_range.column_idx = 0;
  join->join_keys = {{oc[0], ic[0]}};
  join->children = {Scan(outer, oc)};
  join->output = Layout({oc[1], ic[1]});
  auto href = MakePhysical(PhysOpKind::kHashJoin);
  href->join_keys = {{oc[0], ic[0]}};
  href->children = {Scan(outer, oc), Scan(inner, ic)};
  href->output = Layout({oc[1], ic[1]});
  std::vector<std::string> want = RunAgainstReferences(*href, ctx);
  EXPECT_EQ(want.size(), 2u * ((2500 + 6) / 7));
  EXPECT_EQ(RunCanon(*join), want);
}

// Scan filters on both join children (the probe reads the scan's selection
// vector), nulls on the probe side, a single int key, and a residual
// filtering the matches.
TEST(ExecBatchParityTest, ScanFiltersWithResidualAndNulls) {
  Rng rng(59);
  Catalog catalog;
  QueryContext ctx(&catalog);
  Table* left = *catalog.CreateTable("l", KV());
  Table* right = *catalog.CreateTable("r", KV());
  for (int i = 0; i < 300; ++i) {
    Value lk = rng.Uniform(0, 8) == 0 ? Value::Null(DataType::kInt64)
                                      : Value::Int64(rng.Uniform(0, 15));
    left->AppendRow({lk, Value::Int64(rng.Uniform(0, 100))});
    right->AppendRow({Value::Int64(rng.Uniform(0, 15)),
                      Value::Int64(rng.Uniform(0, 100))});
  }
  int lrel = ctx.AddRelation(*left, "l");
  int rrel = ctx.AddRelation(*right, "r");
  auto lc = ctx.columns().RelationColumns(lrel);
  auto rc = ctx.columns().RelationColumns(rrel);
  auto lscan = Scan(left, lc);
  lscan->filter = Expr::Compare(CmpOp::kLt, Expr::Column(lc[1], DataType::kInt64),
                                Expr::Literal(Value::Int64(70)));
  auto rscan = Scan(right, rc);
  rscan->filter = Expr::Compare(CmpOp::kGe, Expr::Column(rc[1], DataType::kInt64),
                                Expr::Literal(Value::Int64(20)));
  auto join = MakePhysical(PhysOpKind::kHashJoin);
  join->join_keys = {{lc[0], rc[0]}};
  join->join_residual = Expr::Compare(CmpOp::kLt,
                                      Expr::Column(lc[1], DataType::kInt64),
                                      Expr::Column(rc[1], DataType::kInt64));
  join->children = {std::move(lscan), std::move(rscan)};
  join->output = Layout({lc[0], lc[1], rc[1]});
  std::vector<std::string> rows = RunAgainstReferences(*join, ctx);
  for (const std::string& r : rows) {
    EXPECT_NE(r.substr(0, 5), "NULL|") << "null key joined: " << r;
  }
}

// Null group keys compare equal for aggregation, and integral doubles group
// with themselves only (Value::Hash must agree with Compare for -0.0/0.0 and
// 2.0).
TEST(ExecBatchParityTest, NullAndDoubleGroupKeysParity) {
  Catalog catalog;
  QueryContext ctx(&catalog);
  Table* t = *catalog.CreateTable("t", KV(DataType::kDouble));
  const double keys[] = {2.0, 2.5, -0.0, 0.0, 2.0, 1e18};
  for (int rep = 0; rep < 3; ++rep) {
    for (double k : keys) {
      t->AppendRow({Value::Double(k), Value::Int64(rep)});
    }
    t->AppendRow({Value::Null(DataType::kDouble), Value::Int64(rep)});
  }
  int rel = ctx.AddRelation(*t, "t");
  auto cols = ctx.columns().RelationColumns(rel);
  ColId cnt = ctx.columns().AddSynthetic("cnt", DataType::kInt64);
  auto agg = MakePhysical(PhysOpKind::kHashAgg);
  agg->group_cols = {cols[0]};
  agg->aggs = {{AggFn::kCount, nullptr, cnt}};
  agg->children = {Scan(t, cols)};
  agg->output = Layout({cols[0], cnt});
  std::vector<std::string> rows = RunCanon(*agg);
  // 5 groups: {0.0 == -0.0}, {2.0}, {2.5}, {1e18}, {NULL}.
  EXPECT_EQ(rows.size(), 5u);
  for (const std::string& r : rows) {
    if (r.substr(0, 4) == "NULL") {
      EXPECT_EQ(r, "NULL|3|") << "null group keys must merge";
    }
  }
}

// ---------------------------------------------------------------------------
// Aggregation edge cases against an AggAccumulator reference. Every shape
// runs straight over the scan (store spans plus the scan's selection) and
// through a Filter (the filter's selection over the same spans). Values
// render with their type and doubles exactly (%a), so sums must match bit
// for bit and min/max must keep their type.

std::string Exact(const Value& v) {
  if (v.is_null()) return "NULL";
  switch (v.type()) {
    case DataType::kDouble: {
      char buf[64];
      snprintf(buf, sizeof(buf), "d:%a", v.AsDouble());
      return buf;
    }
    case DataType::kInt64:
      return "i:" + v.ToString();
    case DataType::kDate:
      return "date:" + v.ToString();
    case DataType::kBool:
      return "b:" + v.ToString();
    case DataType::kString:
      return "s:" + v.AsString();
  }
  return "?";
}

std::vector<std::string> ExactRows(const std::vector<Row>& rows) {
  std::vector<std::string> out;
  for (const Row& r : rows) {
    std::string s;
    for (const Value& v : r) s += Exact(v) + "|";
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::string> RunExact(const PhysicalNode& node) {
  ExecContext ctx;
  return ExactRows(RunToVector(node, &ctx));
}

// id (never null), then nullable keys and arguments of every physical type:
// int, double (with -0.0 and 0.0), string, date.
Schema AggSchema() {
  Schema s;
  s.AddColumn("id", DataType::kInt64);
  s.AddColumn("ki", DataType::kInt64);
  s.AddColumn("kd", DataType::kDouble);
  s.AddColumn("ks", DataType::kString);
  s.AddColumn("dt", DataType::kDate);
  s.AddColumn("s", DataType::kString);
  s.AddColumn("x", DataType::kInt64);
  s.AddColumn("y", DataType::kDouble);
  return s;
}

Table* FillAggTable(Catalog* catalog, const std::string& name, int rows) {
  Rng rng(97);
  Table* t = *catalog->CreateTable(name, AggSchema());
  const double kd[] = {-0.0, 0.0, 1.5, 2.0, -3.25};
  const char* strs[] = {"delta", "alpha", "charlie", "bravo"};
  auto maybe_null = [&](Value v, DataType type) {
    return rng.Uniform(0, 6) == 0 ? Value::Null(type) : std::move(v);
  };
  for (int i = 0; i < rows; ++i) {
    t->AppendRow({
        Value::Int64(i),
        maybe_null(Value::Int64(rng.Uniform(0, 4)), DataType::kInt64),
        maybe_null(Value::Double(kd[rng.Uniform(0, 4)]), DataType::kDouble),
        maybe_null(Value::String(strs[rng.Uniform(0, 3)]), DataType::kString),
        maybe_null(Value::Date(9000 + rng.Uniform(0, 400)), DataType::kDate),
        maybe_null(Value::String(strs[rng.Uniform(0, 3)] +
                                 std::to_string(rng.Uniform(0, 9))),
                   DataType::kString),
        maybe_null(Value::Int64(rng.Uniform(-50, 50)), DataType::kInt64),
        maybe_null(Value::Double(rng.Uniform(-400, 400) / 8.0 + 0.1),
                   DataType::kDouble),
    });
  }
  return t;
}

// Reference aggregation: groups in first-seen order under Value::Compare
// equality (nulls equal), accumulated through AggAccumulator. Output is
// group columns then aggregates (the plans below use that layout).
std::vector<Row> ReferenceAgg(const Table& t, const Layout& layout,
                              const PhysicalNode& agg) {
  std::vector<int> key_idx;
  for (ColId c : agg.group_cols) key_idx.push_back(layout.IndexOf(c));
  std::vector<ExprPtr> args;
  for (const AggregateItem& a : agg.aggs) {
    args.push_back(a.arg ? BindExpr(a.arg, layout) : nullptr);
  }
  std::vector<Row> keys;
  std::vector<std::vector<AggAccumulator>> accs;
  auto same = [](const Value& a, const Value& b) {
    return a.is_null() == b.is_null() && (a.is_null() || a.Compare(b) == 0);
  };
  for (int64_t r = 0; r < t.row_count(); ++r) {
    Row row = t.columns().GetRow(r);
    Row key;
    for (int k : key_idx) key.push_back(row[k]);
    size_t g = 0;
    while (g < keys.size() &&
           !std::equal(key.begin(), key.end(), keys[g].begin(), same)) {
      ++g;
    }
    if (g == keys.size()) {
      keys.push_back(key);
      accs.emplace_back();
      for (const AggregateItem& a : agg.aggs) accs.back().emplace_back(a.fn);
    }
    for (size_t i = 0; i < args.size(); ++i) {
      accs[g][i].Update(args[i] ? EvalExpr(args[i], row) : Value::Int64(1));
    }
  }
  if (keys.empty() && agg.group_cols.empty()) {
    keys.emplace_back();
    accs.emplace_back();
    for (const AggregateItem& a : agg.aggs) accs.back().emplace_back(a.fn);
  }
  std::vector<Row> out;
  for (size_t g = 0; g < keys.size(); ++g) {
    Row row = keys[g];
    for (size_t i = 0; i < agg.aggs.size(); ++i) {
      const AggregateItem& a = agg.aggs[i];
      row.push_back(accs[g][i].Final(
          AggResultType(a.fn, a.arg ? a.arg->type : DataType::kInt64)));
    }
    out.push_back(std::move(row));
  }
  return out;
}

TEST(ExecBatchParityTest, AggregationEdgeCasesMatchReference) {
  Catalog catalog;
  QueryContext ctx(&catalog);
  Table* t = FillAggTable(&catalog, "a", 700);
  int rel = ctx.AddRelation(*t, "a");
  const std::vector<ColId> c = ctx.columns().RelationColumns(rel);
  const Layout layout(c);
  enum { kId, kKi, kKd, kKs, kDt, kS, kX, kY };
  auto col = [&](int i) { return Expr::Column(c[i], AggSchema().column(i).type); };
  // count(*) vs count(col), int vs double sums, date/string/double/int
  // min/max, and expression arguments (double- and int-typed).
  struct Agg {
    AggFn fn;
    ExprPtr arg;
  };
  const std::vector<Agg> aggs = {
      {AggFn::kCount, nullptr},
      {AggFn::kCount, col(kX)},
      {AggFn::kCount, col(kS)},
      {AggFn::kSum, col(kX)},
      {AggFn::kSum, col(kY)},
      {AggFn::kMin, col(kDt)},
      {AggFn::kMax, col(kDt)},
      {AggFn::kMin, col(kS)},
      {AggFn::kMax, col(kS)},
      {AggFn::kMin, col(kY)},
      {AggFn::kMax, col(kX)},
      {AggFn::kMax, col(kKd)},
      {AggFn::kSum, Expr::Arith(ArithOp::kMul, col(kX), col(kY))},
      {AggFn::kSum, Expr::Arith(ArithOp::kMul, col(kX), col(kX))},
      {AggFn::kMin, Expr::Arith(ArithOp::kAdd, col(kX), col(kKi))},
  };
  std::vector<AggregateItem> items;
  for (const Agg& a : aggs) {
    DataType type = AggResultType(a.fn, a.arg ? a.arg->type : DataType::kInt64);
    items.push_back({a.fn, a.arg, ctx.columns().AddSynthetic("agg", type)});
  }
  // Scalar, single int / double / string / date keys, multi-column keys.
  const std::vector<std::vector<int>> key_sets = {
      {}, {kKi}, {kKd}, {kKs}, {kDt}, {kKi, kKs}, {kKd, kS}, {kKs, kKi, kKd}};
  for (const std::vector<int>& keys : key_sets) {
    std::vector<ColId> natural;
    for (int k : keys) natural.push_back(c[k]);
    for (const AggregateItem& a : items) natural.push_back(a.output);
    for (bool direct : {true, false}) {
      auto agg = MakePhysical(PhysOpKind::kHashAgg);
      for (int k : keys) agg->group_cols.push_back(c[k]);
      agg->aggs = items;
      agg->output = Layout(natural);
      PhysicalNodePtr input = Scan(t, c);
      if (!direct) {
        auto filter = MakePhysical(PhysOpKind::kFilter);
        filter->filter = Expr::Compare(CmpOp::kGe, col(kId),
                                       Expr::Literal(Value::Int64(0)));
        filter->children = {std::move(input)};
        filter->output = layout;
        input = std::move(filter);
      }
      agg->children = {std::move(input)};
      std::vector<std::string> got = RunExact(*agg);
      EXPECT_EQ(got, ExactRows(ReferenceAgg(*t, layout, *agg)))
          << "keys=" << keys.size() << " direct=" << direct;
      // -0.0 and 0.0 share one group, keyed by whichever came first.
      if (keys == std::vector<int>{kKd}) {
        EXPECT_EQ(got.size(), 5u) << "{0.0,-0.0} {1.5} {2.0} {-3.25} {NULL}";
      }
    }
  }
}

// Composite group keys pack into one exact key when every cell fits its
// share of 64 bits; int keys straddling the 32-bit boundary (and nulls)
// mix packed and hashed groups, which must never split or merge a group.
TEST(ExecBatchParityTest, CompositeKeysPackedAndHashedGroupsAgree) {
  Catalog catalog;
  QueryContext ctx(&catalog);
  Schema schema;
  schema.AddColumn("k", DataType::kInt64);
  schema.AddColumn("s", DataType::kString);
  schema.AddColumn("v", DataType::kInt64);
  Table* t = *catalog.CreateTable("t", schema);
  const int64_t ks[] = {1, int64_t{1} << 40, -(int64_t{1} << 40),
                        (int64_t{1} << 31) - 2, (int64_t{1} << 31) - 1,
                        -(int64_t{1} << 31), -(int64_t{1} << 31) - 1};
  Rng rng(83);
  for (int i = 0; i < 900; ++i) {
    Value k = rng.Uniform(0, 8) == 0 ? Value::Null(DataType::kInt64)
                                     : Value::Int64(ks[rng.Uniform(0, 6)]);
    Value str = rng.Uniform(0, 8) == 0 ? Value::Null(DataType::kString)
                                       : Value::String(rng.Uniform(0, 1) ? "a" : "b");
    t->AppendRow({k, str, Value::Int64(i)});
  }
  auto c = ctx.columns().RelationColumns(ctx.AddRelation(*t, "t"));
  ColId n = ctx.columns().AddSynthetic("n", DataType::kInt64);
  ColId sv = ctx.columns().AddSynthetic("sv", DataType::kInt64);
  auto agg = MakePhysical(PhysOpKind::kHashAgg);
  agg->group_cols = {c[0], c[1]};
  agg->aggs = {{AggFn::kCount, nullptr, n},
               {AggFn::kSum, Expr::Column(c[2], DataType::kInt64), sv}};
  agg->output = Layout({c[0], c[1], n, sv});
  agg->children = {Scan(t, c)};
  std::vector<std::string> got = RunExact(*agg);
  EXPECT_EQ(got, ExactRows(ReferenceAgg(*t, Layout(c), *agg)));
  EXPECT_EQ(got.size(), 24u);  // 8 int keys (null too) x 3 strings
}

// A CSE consumer whose compensation filter (folded into the spool scan)
// rejects every spooled row: the scalar aggregate still yields its one row
// (count 0, other aggregates NULL); a grouped one yields none.
TEST(ExecBatchParityTest, ScalarAggOverFullyRejectingSpoolFilter) {
  Catalog catalog;
  QueryContext ctx(&catalog);
  Table* t = FillAggTable(&catalog, "a", 300);
  int rel = ctx.AddRelation(*t, "a");
  const std::vector<ColId> c = ctx.columns().RelationColumns(rel);
  ExecutablePlan::CsePlan cse;
  cse.cse_id = 3;
  cse.plan = Scan(t, c);
  cse.spool_schema = AggSchema();
  cse.output = c;
  auto spool_agg = [&](bool grouped) {
    auto spool = MakePhysical(PhysOpKind::kSpoolScan);
    spool->cse_id = cse.cse_id;
    spool->input_cols = c;
    spool->output = Layout({c[1], c[4], c[5], c[6], c[7]});
    spool->filter = Expr::Compare(CmpOp::kLt, Expr::Column(c[0], DataType::kInt64),
                                  Expr::Literal(Value::Int64(0)));
    auto agg = MakePhysical(PhysOpKind::kHashAgg);
    if (grouped) agg->group_cols = {c[1]};
    auto out = [&](const char* name, DataType type) {
      return ctx.columns().AddSynthetic(name, type);
    };
    agg->aggs = {
        {AggFn::kCount, nullptr, out("n", DataType::kInt64)},
        {AggFn::kCount, Expr::Column(c[6], DataType::kInt64),
         out("nx", DataType::kInt64)},
        {AggFn::kSum, Expr::Column(c[6], DataType::kInt64),
         out("sx", DataType::kInt64)},
        {AggFn::kSum, Expr::Column(c[7], DataType::kDouble),
         out("sy", DataType::kDouble)},
        {AggFn::kMin, Expr::Column(c[5], DataType::kString),
         out("ms", DataType::kString)},
        {AggFn::kMax, Expr::Column(c[4], DataType::kDate),
         out("md", DataType::kDate)},
    };
    std::vector<ColId> natural = agg->group_cols;
    for (const AggregateItem& a : agg->aggs) natural.push_back(a.output);
    agg->output = Layout(natural);
    agg->children = {std::move(spool)};
    ExecutablePlan plan;
    plan.cse_plans = {cse};
    plan.root = MakePhysical(PhysOpKind::kBatch);
    plan.root->children = {std::move(agg)};
    return plan;
  };
  for (bool grouped : {false, true}) {
    ExecutablePlan plan = spool_agg(grouped);
    ExecutionMetrics metrics;
    std::vector<StatementResult> results = ExecutePlan(plan, &metrics);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(metrics.spool_rows_read, t->row_count());
    std::vector<std::string> want;
    if (!grouped) want = {"i:0|i:0|NULL|NULL|NULL|NULL|"};
    EXPECT_EQ(ExactRows(results[0].rows), want) << "grouped=" << grouped;
  }
}

// ---------------------------------------------------------------------------
// Batch-format parity. Operators exchange typed column spans; each case is
// checked against a Value-level reference computed here row by row, so a
// fault shared by every join operator (the output gather, the drained build
// columns) cannot hide behind the merge / nested-loop swaps.

// One output cell source: side 0 = left table, 1 = right table; column.
struct OutCol {
  int side;
  int col;
};

// Nested-loop equi-join of two tables' rows under Value::Compare equality
// (null keys never join), emitting `out`.
std::vector<Row> ValueJoin(const Table& l, const Table& r,
                           const std::vector<std::pair<int, int>>& keys,
                           const std::vector<OutCol>& out) {
  std::vector<Row> rows;
  for (int64_t i = 0; i < l.row_count(); ++i) {
    Row lr = l.columns().GetRow(i);
    for (int64_t j = 0; j < r.row_count(); ++j) {
      Row rr = r.columns().GetRow(j);
      bool match = true;
      for (const auto& [lk, rk] : keys) {
        match &= !lr[lk].is_null() && !rr[rk].is_null() &&
                 lr[lk].Compare(rr[rk]) == 0;
      }
      if (!match) continue;
      Row row;
      for (const OutCol& o : out) row.push_back(o.side == 0 ? lr[o.col] : rr[o.col]);
      rows.push_back(std::move(row));
    }
  }
  return rows;
}

Schema Wide(DataType key_type) {
  Schema s;
  s.AddColumn("k", key_type);
  s.AddColumn("id", DataType::kInt64);
  s.AddColumn("d", DataType::kDate);
  s.AddColumn("s", DataType::kString);
  s.AddColumn("x", DataType::kDouble);
  return s;
}

Value MaybeNull(Rng* rng, Value v) {
  const DataType type = v.type();
  return rng->Uniform(0, 5) == 0 ? Value::Null(type) : std::move(v);
}

// Join output carries nulls and dates from both sides with their types.
TEST(ExecBatchParityTest, JoinOutputCarriesNullsAndDates) {
  Rng rng(71);
  Catalog catalog;
  QueryContext ctx(&catalog);
  Table* left = *catalog.CreateTable("l", Wide(DataType::kInt64));
  Table* right = *catalog.CreateTable("r", Wide(DataType::kInt64));
  const char* strs[] = {"pear", "fig", "kiwi"};
  for (Table* t : {left, right}) {
    for (int i = 0; i < 400; ++i) {
      t->AppendRow({MaybeNull(&rng, Value::Int64(rng.Uniform(0, 30))),
                    Value::Int64(i),
                    MaybeNull(&rng, Value::Date(9000 + rng.Uniform(0, 99))),
                    MaybeNull(&rng, Value::String(strs[rng.Uniform(0, 2)])),
                    MaybeNull(&rng, Value::Double(rng.Uniform(-9, 9) / 4.0))});
    }
  }
  auto lc = ctx.columns().RelationColumns(ctx.AddRelation(*left, "l"));
  auto rc = ctx.columns().RelationColumns(ctx.AddRelation(*right, "r"));
  auto join = MakePhysical(PhysOpKind::kHashJoin);
  join->join_keys = {{lc[0], rc[0]}};
  join->children = {Scan(left, lc), Scan(right, rc)};
  join->output = Layout({rc[2], lc[2], lc[3], rc[4], lc[1], rc[1]});
  const std::vector<Row> want =
      ValueJoin(*left, *right, {{0, 0}},
                {{1, 2}, {0, 2}, {0, 3}, {1, 4}, {0, 1}, {1, 1}});
  ASSERT_GT(want.size(), 1024u);  // several output batches
  EXPECT_EQ(RunExact(*join), ExactRows(want));
  EXPECT_EQ(RunCanon(*SwapHashJoins(*join, PhysOpKind::kMergeJoin, ctx)),
            Canon(want));
}

// A spool whose string column is written from two source dictionaries
// (different codes for the same strings): reads must see values, not
// codes, through equality and range kernels and through grouping.
TEST(ExecBatchParityTest, SpoolStringColumnFromTwoDictionaries) {
  Schema schema;
  schema.AddColumn("s", DataType::kString);
  schema.AddColumn("v", DataType::kInt64);
  Column s1(DataType::kString), s2(DataType::kString);
  Column v1(DataType::kInt64), v2(DataType::kInt64);
  const std::vector<std::string> a = {"delta", "alpha", "delta", "echo"};
  const std::vector<std::string> b = {"alpha", "bravo", "alpha", "delta"};
  for (size_t i = 0; i < a.size(); ++i) {
    s1.AppendString(a[i]);
    v1.AppendInt64(static_cast<int64_t>(i));
    s2.AppendString(b[i]);
    v2.AppendInt64(static_cast<int64_t>(10 + i));
  }
  s2.AppendNull();
  v2.AppendInt64(99);
  Catalog catalog;
  QueryContext ctx(&catalog);
  Table* proto = *catalog.CreateTable("p", schema);
  auto c = ctx.columns().RelationColumns(ctx.AddRelation(*proto, "p"));
  WorkTableManager work_tables;
  WorkTable* wt = work_tables.Create(7, schema);
  wt->AppendBatch({s1.View(), v1.View()}, nullptr, 4);
  const int32_t rows2[] = {4, 3, 2, 1, 0};
  wt->AppendBatch({s2.View(), v2.View()}, rows2, 5);
  ASSERT_EQ(wt->row_count(), 9);

  auto spool = [&](ExprPtr filter) {
    auto scan = MakePhysical(PhysOpKind::kSpoolScan);
    scan->cse_id = 7;
    scan->input_cols = c;
    scan->output = Layout(c);
    scan->filter = std::move(filter);
    return scan;
  };
  auto run = [&](const PhysicalNode& node) {
    ExecContext ectx;
    ectx.work_tables = &work_tables;
    return Canon(RunToVector(node, &ectx));
  };
  auto str = [&](const char* v) { return Expr::Literal(Value::String(v)); };
  auto scol = Expr::Column(c[0], DataType::kString);
  EXPECT_EQ(run(*spool(Expr::Compare(CmpOp::kEq, scol, str("alpha")))),
            (std::vector<std::string>{"alpha|10|", "alpha|12|", "alpha|1|"}));
  EXPECT_EQ(run(*spool(Expr::Compare(CmpOp::kLt, scol, str("charlie")))),
            (std::vector<std::string>{"alpha|10|", "alpha|12|", "alpha|1|",
                                      "bravo|11|"}));
  ColId n = ctx.columns().AddSynthetic("n", DataType::kInt64);
  ColId mx = ctx.columns().AddSynthetic("mx", DataType::kInt64);
  auto agg = MakePhysical(PhysOpKind::kHashAgg);
  agg->group_cols = {c[0]};
  agg->aggs = {{AggFn::kCount, nullptr, n},
               {AggFn::kMax, Expr::Column(c[1], DataType::kInt64), mx}};
  agg->children = {spool(nullptr)};
  agg->output = Layout({c[0], n, mx});
  EXPECT_EQ(run(*agg),
            (std::vector<std::string>{"NULL|1|99|", "alpha|3|12|",
                                      "bravo|1|11|", "delta|3|13|",
                                      "echo|1|3|"}));
}

// String join keys whose tables intern the strings in different orders (so
// equal strings have different codes), some strings on one side only, and
// nulls; single and composite keys.
TEST(ExecBatchParityTest, StringJoinKeysAcrossDictionaries) {
  Rng rng(73);
  Catalog catalog;
  QueryContext ctx(&catalog);
  Table* left = *catalog.CreateTable("l", Wide(DataType::kString));
  Table* right = *catalog.CreateTable("r", Wide(DataType::kString));
  const char* lstr[] = {"oak", "elm", "ash", "yew"};
  const char* rstr[] = {"yew", "fir", "oak", "ash"};
  for (int i = 0; i < 200; ++i) {
    for (Table* t : {left, right}) {
      const char* s = (t == left ? lstr : rstr)[rng.Uniform(0, 3)];
      t->AppendRow({MaybeNull(&rng, Value::String(s)), Value::Int64(i),
                    Value::Date(9000 + i % 7),
                    Value::String(std::to_string(rng.Uniform(0, 3))),
                    Value::Double(i)});
    }
  }
  auto lc = ctx.columns().RelationColumns(ctx.AddRelation(*left, "l"));
  auto rc = ctx.columns().RelationColumns(ctx.AddRelation(*right, "r"));
  for (bool composite : {false, true}) {
    auto join = MakePhysical(PhysOpKind::kHashJoin);
    join->join_keys = {{lc[0], rc[0]}};
    std::vector<std::pair<int, int>> keys = {{0, 0}};
    if (composite) {
      join->join_keys.push_back({lc[3], rc[3]});
      keys.push_back({3, 3});
    }
    join->children = {Scan(left, lc), Scan(right, rc)};
    join->output = Layout({lc[0], rc[0], lc[1], rc[1]});
    const std::vector<Row> want =
        ValueJoin(*left, *right, keys, {{0, 0}, {1, 0}, {0, 1}, {1, 1}});
    ASSERT_GT(want.size(), 0u);
    EXPECT_EQ(RunAgainstReferences(*join, ctx), Canon(want))
        << "composite=" << composite;
  }
}

// int64 keys join integral doubles (and -0.0 joins 0), in both build
// directions and inside a composite key; fractional doubles join nothing.
TEST(ExecBatchParityTest, IntKeysJoinIntegralDoubleKeys) {
  Catalog catalog;
  QueryContext ctx(&catalog);
  Table* ints = *catalog.CreateTable("i", Wide(DataType::kInt64));
  Table* dbls = *catalog.CreateTable("d", Wide(DataType::kDouble));
  for (int i = -3; i < 12; ++i) {
    ints->AppendRow({Value::Int64(i), Value::Int64(i), Value::Date(9000),
                     Value::String("s"), Value::Double(i % 2)});
  }
  ints->AppendRow({Value::Null(DataType::kInt64), Value::Int64(50),
                   Value::Date(9000), Value::String("s"), Value::Double(0)});
  const double keys[] = {-0.0, 0.0, 1.0, 2.5, 3.0, 3.0, -2.0, 11.0, 1e300};
  int id = 100;
  for (double k : keys) {
    dbls->AppendRow({Value::Double(k), Value::Int64(id++), Value::Date(9001),
                     Value::String("s"), Value::Double(id % 2)});
  }
  dbls->AppendRow({Value::Null(DataType::kDouble), Value::Int64(id),
                   Value::Date(9001), Value::String("s"), Value::Double(0)});
  auto ic = ctx.columns().RelationColumns(ctx.AddRelation(*ints, "i"));
  auto dc = ctx.columns().RelationColumns(ctx.AddRelation(*dbls, "d"));
  for (bool ints_probe : {true, false}) {
    for (bool composite : {false, true}) {
      const std::vector<ColId>& pc = ints_probe ? ic : dc;
      const std::vector<ColId>& bc = ints_probe ? dc : ic;
      const Table& pt = ints_probe ? *ints : *dbls;
      const Table& bt = ints_probe ? *dbls : *ints;
      auto join = MakePhysical(PhysOpKind::kHashJoin);
      join->join_keys = {{pc[0], bc[0]}};
      std::vector<std::pair<int, int>> key_idx = {{0, 0}};
      if (composite) {
        join->join_keys.push_back({pc[4], bc[4]});
        key_idx.push_back({4, 4});
      }
      join->children = {Scan(&pt, pc), Scan(&bt, bc)};
      join->output = Layout({pc[1], bc[1], pc[0], bc[0]});
      const std::vector<Row> want =
          ValueJoin(pt, bt, key_idx, {{0, 1}, {1, 1}, {0, 0}, {1, 0}});
      EXPECT_EQ(RunExact(*join), ExactRows(want))
          << "ints_probe=" << ints_probe << " composite=" << composite;
      if (!composite) {
        EXPECT_EQ(want.size(), 7u);  // -0.0,0.0,1,3,3,-2,11
      }
    }
  }
}

// One probe key whose build chain (1500 rows) is longer than a batch: the
// join resumes mid-chain, never overfills a batch, and emits every pair
// once.
TEST(ExecBatchParityTest, HashJoinChainOvershootsBatch) {
  Catalog catalog;
  QueryContext ctx(&catalog);
  Table* left = *catalog.CreateTable("l", KV());
  Table* right = *catalog.CreateTable("r", KV());
  for (int i = 0; i < 3; ++i) left->AppendRow({Value::Int64(5), Value::Int64(i)});
  left->AppendRow({Value::Int64(6), Value::Int64(9)});
  for (int i = 0; i < 1500; ++i) {
    right->AppendRow({Value::Int64(5), Value::Int64(1000 + i)});
  }
  auto lc = ctx.columns().RelationColumns(ctx.AddRelation(*left, "l"));
  auto rc = ctx.columns().RelationColumns(ctx.AddRelation(*right, "r"));
  auto join = MakePhysical(PhysOpKind::kHashJoin);
  join->join_keys = {{lc[0], rc[0]}};
  join->children = {Scan(left, lc), Scan(right, rc)};
  join->output = Layout({lc[1], rc[1]});
  ExecContext ectx;
  std::unique_ptr<Operator> op = BuildOperator(*join, &ectx);
  op->Open();
  ColumnBatch batch;
  int64_t total = 0;
  while (op->NextBatch(&batch)) {
    EXPECT_LE(batch.size(), batch.capacity());
    total += batch.size();
  }
  EXPECT_EQ(total, 4500);
  std::vector<std::string> rows = RunAgainstReferences(*join, ctx);
  EXPECT_EQ(rows, Canon(ValueJoin(*left, *right, {{0, 0}}, {{0, 1}, {1, 1}})));
  EXPECT_EQ(std::adjacent_find(rows.begin(), rows.end()), rows.end());
}

// A Filter over a filtered spool scan: the filter's selection vector
// composes with the spool's, and a hash join probing it and a projection
// reading it see only the surviving rows.
TEST(ExecBatchParityTest, SelectionVectorsAfterFilterOverSpool) {
  Catalog catalog;
  QueryContext ctx(&catalog);
  Table* t = FillAggTable(&catalog, "a", 2500);
  Table* dim = *catalog.CreateTable("dim", KV());
  for (int k = 0; k < 4; ++k) dim->AppendRow({Value::Int64(k), Value::Int64(10 * k)});
  auto c = ctx.columns().RelationColumns(ctx.AddRelation(*t, "a"));
  auto dc = ctx.columns().RelationColumns(ctx.AddRelation(*dim, "dim"));
  enum { kId, kKi, kKd, kKs, kDt, kS, kX, kY };
  auto col = [&](int i) { return Expr::Column(c[i], AggSchema().column(i).type); };
  ExecutablePlan::CsePlan cse;
  cse.cse_id = 2;
  cse.plan = Scan(t, c);
  cse.spool_schema = AggSchema();
  cse.output = c;
  auto spool = MakePhysical(PhysOpKind::kSpoolScan);
  spool->cse_id = 2;
  spool->input_cols = c;
  spool->output = Layout(c);
  spool->filter = Expr::Compare(CmpOp::kGt, col(kX), Expr::Literal(Value::Int64(-20)));
  auto filter = MakePhysical(PhysOpKind::kFilter);
  filter->filter = Expr::Compare(CmpOp::kLt, col(kId), Expr::Literal(Value::Int64(1800)));
  filter->output = Layout({c[kKi], c[kId], c[kS]});
  filter->children = {std::move(spool)};
  auto join = MakePhysical(PhysOpKind::kHashJoin);
  join->join_keys = {{c[kKi], dc[0]}};
  join->children = {std::move(filter), Scan(dim, dc)};
  join->output = Layout({c[kId], c[kS], dc[1]});
  ExecutablePlan plan;
  plan.cse_plans = {cse};
  plan.root = MakePhysical(PhysOpKind::kBatch);
  plan.root->children = {join};
  std::vector<StatementResult> results = ExecutePlan(plan);
  std::vector<Row> want;
  for (int64_t r = 0; r < t->row_count(); ++r) {
    Row row = t->columns().GetRow(r);
    if (row[kX].is_null() || row[kX].AsInt64() <= -20) continue;
    if (row[kId].AsInt64() >= 1800 || row[kKi].is_null()) continue;
    if (row[kKi].AsInt64() > 3) continue;  // no dim row
    want.push_back({row[kId], row[kS], Value::Int64(10 * row[kKi].AsInt64())});
  }
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(ExactRows(results[0].rows), ExactRows(want));
}

// A projection computing new columns over a filtered scan (the referenced
// columns are gathered to the computed columns' dense positions) feeding a
// hash aggregate.
TEST(ExecBatchParityTest, ComputedProjectionFeedsHashAgg) {
  Catalog catalog;
  QueryContext ctx(&catalog);
  Table* t = FillAggTable(&catalog, "a", 3000);
  auto c = ctx.columns().RelationColumns(ctx.AddRelation(*t, "a"));
  enum { kId, kKi, kKd, kKs, kDt, kS, kX, kY };
  auto col = [&](int i) { return Expr::Column(c[i], AggSchema().column(i).type); };
  auto scan = Scan(t, c);
  scan->filter = Expr::Compare(CmpOp::kNe, col(kKi), Expr::Literal(Value::Int64(1)));
  ColId xy = ctx.columns().AddSynthetic("xy", DataType::kDouble);
  ColId x2 = ctx.columns().AddSynthetic("x2", DataType::kInt64);
  auto project = MakePhysical(PhysOpKind::kProject);
  project->projections = {
      {col(kKs), c[kKs]},
      {Expr::Arith(ArithOp::kAdd, Expr::Arith(ArithOp::kMul, col(kX), col(kY)),
                   Expr::Literal(Value::Double(0.5))),
       xy},
      {Expr::Arith(ArithOp::kDiv, col(kX), col(kKi)), x2},
      {col(kDt), c[kDt]}};
  project->output = Layout({c[kKs], xy, x2, c[kDt]});
  project->children = {std::move(scan)};
  ColId sxy = ctx.columns().AddSynthetic("sxy", DataType::kDouble);
  ColId sx2 = ctx.columns().AddSynthetic("sx2", DataType::kInt64);
  ColId mdt = ctx.columns().AddSynthetic("mdt", DataType::kDate);
  ColId nx2 = ctx.columns().AddSynthetic("nx2", DataType::kInt64);
  auto agg = MakePhysical(PhysOpKind::kHashAgg);
  agg->group_cols = {c[kKs]};
  agg->aggs = {{AggFn::kSum, Expr::Column(xy, DataType::kDouble), sxy},
               {AggFn::kSum, Expr::Column(x2, DataType::kInt64), sx2},
               {AggFn::kMin, Expr::Column(c[kDt], DataType::kDate), mdt},
               {AggFn::kCount, Expr::Column(x2, DataType::kInt64), nx2}};
  agg->output = Layout({c[kKs], sxy, sx2, mdt, nx2});
  agg->children = {std::move(project)};
  // Reference: per group in first-seen order, through AggAccumulator.
  std::vector<Value> keys;
  std::vector<std::vector<AggAccumulator>> accs;
  for (int64_t r = 0; r < t->row_count(); ++r) {
    Row row = t->columns().GetRow(r);
    if (row[kKi].is_null() || row[kKi].AsInt64() == 1) continue;
    Value vxy = row[kX].is_null() || row[kY].is_null()
                    ? Value::Null(DataType::kDouble)
                    : Value::Double(row[kX].AsInt64() * row[kY].AsDouble() + 0.5);
    Value vx2 = row[kX].is_null() || row[kKi].AsInt64() == 0
                    ? Value::Null(DataType::kInt64)
                    : Value::Int64(row[kX].AsInt64() / row[kKi].AsInt64());
    size_t g = 0;
    while (g < keys.size() &&
           !(keys[g].is_null() == row[kKs].is_null() &&
             (keys[g].is_null() || keys[g].Compare(row[kKs]) == 0))) {
      ++g;
    }
    if (g == keys.size()) {
      keys.push_back(row[kKs]);
      accs.push_back({AggAccumulator(AggFn::kSum), AggAccumulator(AggFn::kSum),
                      AggAccumulator(AggFn::kMin), AggAccumulator(AggFn::kCount)});
    }
    accs[g][0].Update(vxy);
    accs[g][1].Update(vx2);
    accs[g][2].Update(row[kDt]);
    accs[g][3].Update(vx2);
  }
  std::vector<Row> want;
  for (size_t g = 0; g < keys.size(); ++g) {
    want.push_back({keys[g], accs[g][0].Final(DataType::kDouble),
                    accs[g][1].Final(DataType::kInt64),
                    accs[g][2].Final(DataType::kDate),
                    accs[g][3].Final(DataType::kInt64)});
  }
  EXPECT_EQ(RunExact(*agg), ExactRows(want));
}

// Sort over joined columns: string ascending, date descending (nulls
// first), then a unique id, so the order is total and compared as is.
TEST(ExecBatchParityTest, SortOverJoinedColumns) {
  Rng rng(79);
  Catalog catalog;
  QueryContext ctx(&catalog);
  Table* left = *catalog.CreateTable("l", Wide(DataType::kInt64));
  Table* right = *catalog.CreateTable("r", Wide(DataType::kInt64));
  const char* strs[] = {"nut", "bolt", "gear", "cog"};
  for (Table* t : {left, right}) {
    for (int i = 0; i < 300; ++i) {
      t->AppendRow({Value::Int64(rng.Uniform(0, 40)), Value::Int64(i),
                    MaybeNull(&rng, Value::Date(9000 + rng.Uniform(0, 9))),
                    MaybeNull(&rng, Value::String(strs[rng.Uniform(0, 3)])),
                    Value::Double(i)});
    }
  }
  auto lc = ctx.columns().RelationColumns(ctx.AddRelation(*left, "l"));
  auto rc = ctx.columns().RelationColumns(ctx.AddRelation(*right, "r"));
  auto join = MakePhysical(PhysOpKind::kHashJoin);
  join->join_keys = {{lc[0], rc[0]}};
  join->children = {Scan(left, lc), Scan(right, rc)};
  join->output = Layout({rc[3], lc[2], lc[1], rc[1]});
  auto sort = MakePhysical(PhysOpKind::kSort);
  sort->sort_keys = {{rc[3], false}, {lc[2], true}, {lc[1], false}, {rc[1], false}};
  sort->output = join->output;
  sort->children = {std::move(join)};
  std::vector<Row> want =
      ValueJoin(*left, *right, {{0, 0}}, {{1, 3}, {0, 2}, {0, 1}, {1, 1}});
  std::stable_sort(want.begin(), want.end(), [](const Row& a, const Row& b) {
    for (int i = 0; i < 4; ++i) {
      int c = a[i].Compare(b[i]);
      if (c != 0) return i == 1 ? c > 0 : c < 0;
    }
    return false;
  });
  ExecContext ectx;
  std::vector<Row> got = RunToVector(*sort, &ectx);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(ExactRows({got[i]}), ExactRows({want[i]})) << "row " << i;
  }
}

}  // namespace
}  // namespace subshare

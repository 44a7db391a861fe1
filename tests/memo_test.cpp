// Memo structure tests: insertion/deduplication, group outputs, creation
// ancestry & LCA, DAG descendants, required-column propagation, and the
// per-group relevant-candidate masks.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "optimizer/optimizer.h"
#include "sql/binder.h"
#include "tpch/tpch.h"

namespace subshare {
namespace {

class MemoTest : public ::testing::Test {
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

Catalog* MemoTest::catalog_ = nullptr;

TEST_F(MemoTest, InsertDeduplicatesEqualExpressions) {
  QueryContext ctx(catalog_);
  Memo memo(&ctx);
  const Table* nation = catalog_->GetTable("nation");
  int rel = ctx.AddRelation(*nation, "n");

  bool inserted = false;
  GroupId g1 = memo.InsertExpr(LogicalOp::Get(rel, nation->id(), {}), {},
                               kInvalidGroup, kInvalidGroup, &inserted);
  EXPECT_TRUE(inserted);
  GroupId g2 = memo.InsertExpr(LogicalOp::Get(rel, nation->id(), {}), {},
                               kInvalidGroup, kInvalidGroup, &inserted);
  EXPECT_FALSE(inserted);
  EXPECT_EQ(g1, g2);
  EXPECT_EQ(memo.group(g1).exprs.size(), 1u);

  // A different relation instance makes a different group.
  int rel2 = ctx.AddRelation(*nation, "n2");
  GroupId g3 = memo.InsertExpr(LogicalOp::Get(rel2, nation->id(), {}), {});
  EXPECT_NE(g3, g1);
}

TEST_F(MemoTest, JoinSetChildrenAreOrderInsensitive) {
  QueryContext ctx(catalog_);
  Memo memo(&ctx);
  const Table* nation = catalog_->GetTable("nation");
  const Table* region = catalog_->GetTable("region");
  int n_rel = ctx.AddRelation(*nation, "n");
  int r_rel = ctx.AddRelation(*region, "r");
  GroupId gn = memo.InsertExpr(LogicalOp::Get(n_rel, nation->id(), {}), {});
  GroupId gr = memo.InsertExpr(LogicalOp::Get(r_rel, region->id(), {}), {});

  GroupId a = memo.InsertExpr(LogicalOp::JoinSet({}), {gn, gr});
  GroupId b = memo.InsertExpr(LogicalOp::JoinSet({}), {gr, gn});
  EXPECT_EQ(a, b);
}

TEST_F(MemoTest, GroupOutputsPerOperator) {
  QueryContext ctx(catalog_);
  Memo memo(&ctx);
  const Table* nation = catalog_->GetTable("nation");
  int rel = ctx.AddRelation(*nation, "n");
  GroupId get = memo.InsertExpr(LogicalOp::Get(rel, nation->id(), {}), {});
  EXPECT_EQ(memo.group(get).output.size(), 4u);  // all nation columns

  ColId key = ctx.columns().RelationColumn(rel, 0);
  ColId agg_out = ctx.columns().AddSynthetic("cnt", DataType::kInt64);
  GroupId gb = memo.InsertExpr(
      LogicalOp::GroupBy({key}, {{AggFn::kCount, nullptr, agg_out}}), {get});
  EXPECT_EQ(memo.group(gb).output, (std::vector<ColId>{key, agg_out}));

  ColId proj_out = ctx.columns().AddSynthetic("k2", DataType::kInt64);
  GroupId proj = memo.InsertExpr(
      LogicalOp::Project({{Expr::Column(key, DataType::kInt64), proj_out}}),
      {gb});
  EXPECT_EQ(memo.group(proj).output, (std::vector<ColId>{proj_out}));
}

TEST_F(MemoTest, CreationAncestryAndLca) {
  QueryContext ctx(catalog_);
  auto stmts = sql::BindSql(
      "select count(*) from nation, region "
      "where n_regionkey = r_regionkey; "
      "select count(*) from customer",
      &ctx);
  ASSERT_TRUE(stmts.ok());
  Optimizer opt(&ctx);
  GroupId root = opt.BuildAndExplore(*stmts);
  Memo& memo = opt.memo();

  // Every group's ancestor chain terminates (no cycles), and statement
  // groups chain up to the root.
  for (GroupId g = 0; g < memo.num_groups(); ++g) {
    std::vector<GroupId> chain = memo.AncestorChain(g);
    EXPECT_LE(chain.size(), static_cast<size_t>(memo.num_groups()));
  }
  for (GroupId s : opt.statement_roots()) {
    std::vector<GroupId> chain = memo.AncestorChain(s);
    EXPECT_EQ(chain.back(), root);
  }

  // LCA of the two statement roots is the batch root.
  EXPECT_EQ(memo.LowestCommonAncestor(opt.statement_roots(), root), root);
  // LCA of a single group is itself.
  GroupId s0 = opt.statement_roots()[0];
  EXPECT_EQ(memo.LowestCommonAncestor({s0}, root), s0);
  // LCA of a group with the root is the root.
  EXPECT_EQ(memo.LowestCommonAncestor({s0, root}, root), root);
}

TEST_F(MemoTest, DescendantGroupFollowsExprEdges) {
  QueryContext ctx(catalog_);
  auto stmts = sql::BindSql(
      "select c_nationkey, count(*) from customer, orders "
      "where c_custkey = o_custkey group by c_nationkey",
      &ctx);
  ASSERT_TRUE(stmts.ok());
  Optimizer opt(&ctx);
  GroupId root = opt.BuildAndExplore(*stmts);
  Memo& memo = opt.memo();

  // Every group is a descendant of the root; the root is a descendant of
  // nothing but itself.
  for (GroupId g = 0; g < memo.num_groups(); ++g) {
    EXPECT_TRUE(IsDescendantGroup(memo, g, root)) << "G" << g;
  }
  GroupId stmt = opt.statement_roots()[0];
  EXPECT_FALSE(IsDescendantGroup(memo, root, stmt));
  EXPECT_TRUE(IsDescendantGroup(memo, stmt, stmt));
}

// Reference: one DFS from `anc` along child edges per (desc, anc) pair.
bool ReachableByDfs(const Memo& memo, GroupId desc, GroupId anc) {
  std::vector<bool> visited(memo.num_groups(), false);
  std::vector<GroupId> stack = {anc};
  visited[anc] = true;
  while (!stack.empty()) {
    GroupId g = stack.back();
    stack.pop_back();
    if (g == desc) return true;
    for (const GroupExpr& expr : memo.group(g).exprs) {
      for (GroupId c : expr.children) {
        if (!visited[c]) {
          visited[c] = true;
          stack.push_back(c);
        }
      }
    }
  }
  return false;
}

TEST_F(MemoTest, DescendantGroupsMatchesPairwiseSearch) {
  QueryContext ctx(catalog_);
  auto stmts = sql::BindSql(
      "select c_nationkey, count(*) from customer, orders "
      "where c_custkey = o_custkey group by c_nationkey; "
      "select o_orderstatus, sum(l_quantity) as q from orders, lineitem "
      "where o_orderkey = l_orderkey group by o_orderstatus",
      &ctx);
  ASSERT_TRUE(stmts.ok());
  Optimizer opt(&ctx);
  opt.BuildAndExplore(*stmts);
  const Memo& memo = opt.memo();
  const int n = memo.num_groups();
  // Every single source, and a few multi-source sets.
  std::vector<std::vector<GroupId>> sources;
  for (GroupId g = 0; g < n; ++g) sources.push_back({g});
  sources.push_back(opt.statement_roots());
  sources.push_back({0, n / 2, n - 1});
  for (const std::vector<GroupId>& from : sources) {
    std::vector<bool> reached = DescendantGroups(memo, from);
    for (GroupId g = 0; g < n; ++g) {
      bool want = false;
      for (GroupId f : from) want |= ReachableByDfs(memo, g, f);
      EXPECT_EQ(reached[g], want) << "G" << g;
    }
  }
}

// The round-based fixpoint the worklist replaced: every round re-pushes
// every group's payload and required columns until nothing changes.
void RequiredColumnsBySweeps(Memo* memo, const std::vector<GroupId>& roots) {
  for (GroupId r : roots) {
    Group& g = memo->group(r);
    g.required.insert(g.output.begin(), g.output.end());
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (GroupId gid = 0; gid < memo->num_groups(); ++gid) {
      Group& parent = memo->group(gid);
      for (const GroupExpr& expr : parent.exprs) {
        std::set<ColId> need(parent.required);
        for (const ExprPtr& c : expr.op.conjuncts) CollectColumns(c, &need);
        need.insert(expr.op.group_cols.begin(), expr.op.group_cols.end());
        for (const AggregateItem& a : expr.op.aggs) {
          CollectColumns(a.arg, &need);
        }
        for (const ProjectItem& p : expr.op.projections) {
          CollectColumns(p.expr, &need);
        }
        for (const SortKey& k : expr.op.sort_keys) need.insert(k.col);
        for (GroupId cid : expr.children) {
          Group& child = memo->group(cid);
          for (ColId c : need) {
            if (child.HasOutput(c) && child.required.insert(c).second) {
              changed = true;
            }
          }
        }
      }
    }
  }
}

TEST_F(MemoTest, RequiredColumnsWorklistReachesSweepFixpoint) {
  QueryContext ctx(catalog_);
  auto stmts = sql::BindSql(
      "select c_nationkey, c_mktsegment, sum(l_extendedprice) as le "
      "from customer, orders, lineitem where c_custkey = o_custkey and "
      "o_orderkey = l_orderkey and o_orderdate < '1996-07-01' "
      "group by c_nationkey, c_mktsegment; "
      "select n_name, count(*) as c from customer, nation "
      "where c_nationkey = n_nationkey and n_regionkey < 3 group by n_name "
      "order by c",
      &ctx);
  ASSERT_TRUE(stmts.ok());
  Optimizer opt(&ctx);
  opt.BuildAndExplore(*stmts);
  Memo& memo = opt.memo();
  auto snapshot = [&] {
    std::vector<std::set<ColId>> out;
    for (GroupId g = 0; g < memo.num_groups(); ++g) {
      out.push_back(memo.group(g).required);
    }
    return out;
  };
  auto clear = [&] {
    for (GroupId g = 0; g < memo.num_groups(); ++g) {
      memo.group(g).required.clear();
    }
  };
  const std::vector<GroupId> roots = opt.statement_roots();
  const std::vector<GroupId> narrow = {roots[1]};

  // From empty sets.
  clear();
  RequiredColumnsBySweeps(&memo, roots);
  auto want = snapshot();
  clear();
  ComputeRequiredColumns(&memo, roots);
  EXPECT_EQ(snapshot(), want);

  // Growing from a partial state, as Step 3 does with extra roots.
  clear();
  RequiredColumnsBySweeps(&memo, narrow);
  RequiredColumnsBySweeps(&memo, roots);
  want = snapshot();
  clear();
  ComputeRequiredColumns(&memo, narrow);
  ComputeRequiredColumns(&memo, roots);
  EXPECT_EQ(snapshot(), want);
}

TEST_F(MemoTest, RequiredColumnsIncludeJoinKeysAndAggInputs) {
  QueryContext ctx(catalog_);
  auto stmts = sql::BindSql(
      "select c_nationkey, sum(o_totalprice) as t from customer, orders "
      "where c_custkey = o_custkey group by c_nationkey",
      &ctx);
  ASSERT_TRUE(stmts.ok());
  Optimizer opt(&ctx);
  opt.BuildAndExplore(*stmts);
  Memo& memo = opt.memo();

  // Find the customer Get group: it must require c_custkey (join key) and
  // c_nationkey (grouping) but NOT c_name / c_address / ...
  for (GroupId g = 0; g < memo.num_groups(); ++g) {
    const GroupExpr& e = memo.group(g).exprs[0];
    if (e.op.kind != LogicalOpKind::kGet) continue;
    const Table* t = catalog_->GetTable(e.op.table_id);
    if (t->name() != "customer") continue;
    ColId custkey = ctx.columns().RelationColumn(e.op.rel_id, 0);
    ColId name = ctx.columns().RelationColumn(e.op.rel_id, 1);
    ColId nationkey = ctx.columns().RelationColumn(e.op.rel_id, 3);
    EXPECT_TRUE(memo.group(g).required.count(custkey));
    EXPECT_TRUE(memo.group(g).required.count(nationkey));
    EXPECT_FALSE(memo.group(g).required.count(name));
    return;
  }
  FAIL() << "customer Get group not found";
}

TEST_F(MemoTest, PlanCacheReusesAcrossEnabledSetsWhenIrrelevant) {
  // §5.4 history reuse: optimizing with a candidate set that is irrelevant
  // to a group must not re-optimize it. We approximate by checking the
  // plan-computation counter across repeated BestPlan calls.
  QueryContext ctx(catalog_);
  auto stmts = sql::BindSql(
      "select count(*) from customer, orders where c_custkey = o_custkey",
      &ctx);
  ASSERT_TRUE(stmts.ok());
  Optimizer opt(&ctx);
  GroupId root = opt.BuildAndExplore(*stmts);
  ASSERT_NE(opt.BestPlan(root, Bitset64()), nullptr);
  int64_t after_first = opt.plan_computations();
  // Re-request: fully cached, no new computations.
  ASSERT_NE(opt.BestPlan(root, Bitset64()), nullptr);
  EXPECT_EQ(opt.plan_computations(), after_first);
  // An enabled set with no registered candidates is masked to the same
  // context: still fully cached.
  ASSERT_NE(opt.BestPlan(root, Bitset64(0b101)), nullptr);
  EXPECT_EQ(opt.plan_computations(), after_first);
}

TEST_F(MemoTest, ToStringRendersGroups) {
  QueryContext ctx(catalog_);
  auto stmts = sql::BindSql("select r_name from region", &ctx);
  ASSERT_TRUE(stmts.ok());
  Optimizer opt(&ctx);
  opt.BuildAndExplore(*stmts);
  std::string rendered = opt.memo().ToString();
  EXPECT_NE(rendered.find("Get"), std::string::npos);
  EXPECT_NE(rendered.find("Project"), std::string::npos);
  EXPECT_NE(rendered.find("Batch"), std::string::npos);
}

}  // namespace
}  // namespace subshare

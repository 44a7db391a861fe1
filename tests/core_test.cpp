#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "core/candidate_gen.h"
#include "core/cse_optimizer.h"
#include "core/signature.h"
#include "expr/implication.h"
#include "exec/executor.h"
#include "optimizer/cost_model.h"
#include "sql/binder.h"
#include "tpch/tpch.h"

namespace subshare {
namespace {

// The paper's Example 1 batch (predicates as used for E5 and the rewritten
// queries in §6.1).
constexpr const char* kQ1 =
    "select c_nationkey, c_mktsegment, sum(l_extendedprice) as le, "
    "       sum(l_quantity) as lq "
    "from customer, orders, lineitem "
    "where c_custkey = o_custkey and o_orderkey = l_orderkey "
    "  and o_orderdate < '1996-07-01' "
    "  and c_nationkey > 0 and c_nationkey < 20 "
    "group by c_nationkey, c_mktsegment";
constexpr const char* kQ2 =
    "select c_nationkey, sum(l_extendedprice) as le, sum(l_quantity) as lq "
    "from customer, orders, lineitem "
    "where c_custkey = o_custkey and o_orderkey = l_orderkey "
    "  and o_orderdate < '1996-07-01' "
    "  and c_nationkey > 5 and c_nationkey < 25 "
    "group by c_nationkey";
constexpr const char* kQ3 =
    "select n_regionkey, sum(l_extendedprice) as le, sum(l_quantity) as lq "
    "from customer, orders, lineitem, nation "
    "where c_custkey = o_custkey and o_orderkey = l_orderkey "
    "  and c_nationkey = n_nationkey and o_orderdate < '1996-07-01' "
    "  and c_nationkey > 2 and c_nationkey < 24 "
    "group by n_regionkey";

std::string Batch123() {
  return std::string(kQ1) + "; " + kQ2 + "; " + kQ3;
}

std::vector<std::string> Canon(const std::vector<Row>& rows) {
  std::vector<std::string> out;
  for (const Row& r : rows) {
    std::string s;
    for (const Value& v : r) {
      if (v.type() == DataType::kDouble && !v.is_null()) {
        char buf[32];
        snprintf(buf, sizeof(buf), "%.4f", v.AsDouble());
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

class CoreTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog_ = new Catalog();
    tpch::TpchOptions opts;
    opts.scale_factor = 0.002;
    ASSERT_TRUE(tpch::LoadTpch(catalog_, opts).ok());
  }
  static void TearDownTestSuite() { delete catalog_; }

  // Runs a batch through the full CSE pipeline.
  struct RunResult {
    std::vector<StatementResult> statements;
    CseMetrics metrics;
  };
  RunResult Run(const std::string& sql, bool enable_cse,
                bool heuristics = true) {
    QueryContext ctx(catalog_);
    auto stmts = sql::BindSql(sql, &ctx);
    EXPECT_TRUE(stmts.ok()) << stmts.status().ToString();
    CseOptimizerOptions options;
    options.enable_cse = enable_cse;
    options.enable_heuristics = heuristics;
    CseQueryOptimizer optimizer(&ctx, options);
    RunResult out;
    ExecutablePlan plan = optimizer.Optimize(*stmts, &out.metrics);
    out.statements = ExecutePlan(plan);
    return out;
  }

  static Catalog* catalog_;
};

Catalog* CoreTest::catalog_ = nullptr;

// ---------------------------------------------------------- signatures ---

TEST_F(CoreTest, SignatureRulesPerFigure2) {
  QueryContext ctx(catalog_);
  auto stmts = sql::BindSql(Batch123(), &ctx);
  ASSERT_TRUE(stmts.ok());
  Optimizer opt(&ctx);
  opt.BuildAndExplore(*stmts);
  std::vector<TableSignature> sigs;
  ComputeSignatures(opt.memo(), &sigs);

  TableId customer = catalog_->GetTable("customer")->id();
  TableId orders = catalog_->GetTable("orders")->id();
  TableId lineitem = catalog_->GetTable("lineitem")->id();

  int get_sigs = 0, col_join_sigs = 0, col_gb_sigs = 0;
  for (GroupId g = 0; g < opt.memo().num_groups(); ++g) {
    if (!sigs[g].valid) continue;
    std::vector<TableId> col = {customer, orders, lineitem};
    std::sort(col.begin(), col.end());
    if (sigs[g].tables.size() == 1 && !sigs[g].has_groupby) ++get_sigs;
    if (sigs[g].tables == col && !sigs[g].has_groupby) ++col_join_sigs;
    if (sigs[g].tables == col && sigs[g].has_groupby) ++col_gb_sigs;
  }
  // Three queries scan customer/orders/lineitem: >= 9 table signatures.
  EXPECT_GE(get_sigs, 9);
  // Q1, Q2 and Q3's sub-join produce three {C,O,L} join groups.
  EXPECT_GE(col_join_sigs, 3);
  // Q1 γ, Q2 γ and Q3's pre-aggregation: three [T;{C,O,L}] groups.
  EXPECT_GE(col_gb_sigs, 3);
}

TEST_F(CoreTest, SignatureEqualityAndSelfJoin) {
  TableSignature a{true, true, {1, 2, 3}};
  TableSignature b{true, true, {1, 2, 3}};
  TableSignature c{true, false, {1, 2, 3}};
  EXPECT_TRUE(a == b);
  EXPECT_EQ(a.Hash(), b.Hash());
  EXPECT_FALSE(a == c);
  EXPECT_FALSE(a.HasSelfJoin());
  TableSignature d{true, false, {1, 1, 2}};
  EXPECT_TRUE(d.HasSelfJoin());
}

// ----------------------------------------------------------- detection ---

TEST_F(CoreTest, SharableSetsForExample1) {
  QueryContext ctx(catalog_);
  auto stmts = sql::BindSql(Batch123(), &ctx);
  ASSERT_TRUE(stmts.ok());
  Optimizer opt(&ctx);
  opt.BuildAndExplore(*stmts);
  CseManager manager(&opt.memo(), &ctx);
  manager.CollectSignatures();
  auto sets = manager.SharableSets();
  // Expected sharable signatures: [F;{C,O}], [F;{O,L}], [F;{C,O,L}],
  // [T;{O,L}] (pre-aggregations), [T;{C,O,L}] — five sets, matching the
  // five candidates of Figure 6.
  EXPECT_EQ(sets.size(), 5u);
  for (const auto& set : sets) {
    EXPECT_GE(set.size(), 2u);
  }
}

TEST_F(CoreTest, NormalizeExtractsSpjg) {
  QueryContext ctx(catalog_);
  auto stmts = sql::BindSql(kQ1, &ctx);
  ASSERT_TRUE(stmts.ok());
  Optimizer opt(&ctx);
  opt.BuildAndExplore(*stmts);
  CseManager manager(&opt.memo(), &ctx);
  manager.CollectSignatures();
  // Find the γ group over {C,O,L}.
  for (GroupId g = 0; g < opt.memo().num_groups(); ++g) {
    const TableSignature& sig = manager.signature(g);
    if (sig.valid && sig.has_groupby && sig.tables.size() == 3 &&
        !opt.memo().group(g).is_partial_aggregate) {
      auto nf = manager.Normalize(g);
      ASSERT_TRUE(nf.has_value());
      EXPECT_EQ(nf->rel_ids.size(), 3u);
      EXPECT_TRUE(nf->has_groupby);
      EXPECT_EQ(nf->canon_group_cols.size(), 2u);  // nationkey, mktsegment
      EXPECT_EQ(nf->canon_aggs.size(), 2u);
      // 2 join conjuncts + date + two nationkey bounds.
      EXPECT_EQ(nf->canon_conjuncts.size(), 5u);
      // Equivalence classes: {c_custkey,o_custkey}, {o_orderkey,l_orderkey}.
      EXPECT_EQ(nf->canon_eq.Classes().size(), 2u);
      return;
    }
  }
  FAIL() << "no [T;{C,O,L}] group found";
}

// --------------------------------------------------- CSE construction ---

TEST_F(CoreTest, BuildSpecReproducesE5) {
  QueryContext ctx(catalog_);
  auto stmts = sql::BindSql(Batch123(), &ctx);
  ASSERT_TRUE(stmts.ok());
  Optimizer opt(&ctx);
  GroupId root = opt.BuildAndExplore(*stmts);
  ASSERT_NE(opt.BestPlan(root, Bitset64()), nullptr);

  CseManager manager(&opt.memo(), &ctx);
  manager.CollectSignatures();
  CandidateGenOptions gen_options;
  gen_options.heuristics = false;
  CandidateGenerator generator(&manager, &opt.cards(), gen_options);
  GenDiagnostics diag;
  std::vector<CseSpec> specs = generator.GenerateAll(&diag);
  // Figure 6: five candidates without pruning.
  ASSERT_EQ(specs.size(), 5u);

  // Find E5: [T;{C,O,L}].
  const CseSpec* e5 = nullptr;
  for (const CseSpec& s : specs) {
    if (s.has_groupby && s.signature.tables.size() == 3) e5 = &s;
  }
  ASSERT_NE(e5, nullptr);
  EXPECT_EQ(e5->consumers.size(), 3u);
  // Group-by columns: c_nationkey, c_mktsegment (union + covering columns).
  ASSERT_EQ(e5->group_cols.size(), 2u);
  const ColumnRegistry& reg = ctx.columns();
  std::set<std::string> names;
  for (ColId c : e5->group_cols) names.insert(reg.info(c).name);
  EXPECT_EQ(names, (std::set<std::string>{"c_nationkey", "c_mktsegment"}));
  // Aggregates: sum(l_extendedprice), sum(l_quantity).
  EXPECT_EQ(e5->aggs.size(), 2u);
  // Predicate: 2 join conjuncts + common date conjunct + nationkey hull
  // (0, 25) — five conjuncts, no OR.
  EXPECT_EQ(e5->conjuncts.size(), 5u);
  bool has_or = false;
  for (const ExprPtr& c : e5->conjuncts) {
    has_or |= (c->kind == ExprKind::kOr);
  }
  EXPECT_FALSE(has_or) << "hull simplification should eliminate the OR";
  // The hull bounds are 0 and 25 on c_nationkey.
  ColId nk = kInvalidColId;
  for (ColId c : e5->group_cols) {
    if (reg.info(c).name == "c_nationkey") nk = c;
  }
  ASSERT_NE(nk, kInvalidColId);
  ValueRange hull = DeriveRange(e5->conjuncts, nk, nullptr);
  ASSERT_TRUE(hull.lo.has_value());
  ASSERT_TRUE(hull.hi.has_value());
  EXPECT_EQ(hull.lo->AsInt64(), 0);
  EXPECT_EQ(hull.hi->AsInt64(), 25);
}

// ------------------------------------------------------- end to end ---

TEST_F(CoreTest, Example1WithCseMatchesWithout) {
  RunResult without = Run(Batch123(), /*enable_cse=*/false);
  RunResult with_cse = Run(Batch123(), /*enable_cse=*/true);
  ASSERT_EQ(with_cse.statements.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(Canon(with_cse.statements[i].rows),
              Canon(without.statements[i].rows))
        << "statement " << i;
  }
  // The paper's outcome: with heuristic pruning exactly one candidate (E5)
  // survives and is used; estimated cost drops.
  EXPECT_EQ(with_cse.metrics.candidates_after_pruning, 1);
  EXPECT_EQ(with_cse.metrics.used_cses, 1);
  EXPECT_LT(with_cse.metrics.final_cost, with_cse.metrics.normal_cost);
}

// Each E5 consumer compensates with its own c_nationkey range. The
// compensation filter folds into the consumer's spool scan (no Filter sits
// directly above a SpoolScan), and the folded scan keeps the estimates of
// the Filter-over-SpoolScan it replaces: est_cost = C_R + Filter(rows).
TEST_F(CoreTest, CompensationFilterFoldsIntoSpoolScan) {
  QueryContext ctx(catalog_);
  auto stmts = sql::BindSql(Batch123(), &ctx);
  ASSERT_TRUE(stmts.ok()) << stmts.status().ToString();
  CseQueryOptimizer optimizer(&ctx, CseOptimizerOptions());
  CseMetrics metrics;
  ExecutablePlan plan = optimizer.Optimize(*stmts, &metrics);
  ASSERT_EQ(metrics.used_cses, 1);
  std::vector<const PhysicalNode*> folded;
  std::function<void(const PhysicalNode&)> walk = [&](const PhysicalNode& n) {
    for (const PhysicalNodePtr& c : n.children) {
      EXPECT_FALSE(n.kind == PhysOpKind::kFilter &&
                   c->kind == PhysOpKind::kSpoolScan)
          << plan.ToString();
      walk(*c);
    }
    if (n.kind == PhysOpKind::kSpoolScan && n.filter != nullptr) {
      folded.push_back(&n);
    }
  };
  walk(*plan.root);
  ASSERT_EQ(folded.size(), 3u) << plan.ToString();
  for (const PhysicalNode* scan : folded) {
    const CseCandidateInfo& cand =
        optimizer.optimizer().candidates()[scan->cse_id];
    EXPECT_EQ(scan->est_cost,
              cand.spool_read_cost + CostModel::Filter(cand.est_rows));
  }
}

TEST_F(CoreTest, Example1NoHeuristicsSamePlanQuality) {
  RunResult pruned = Run(Batch123(), true, /*heuristics=*/true);
  RunResult unpruned = Run(Batch123(), true, /*heuristics=*/false);
  // Figure 6: five candidates without pruning; pruning must not lose the
  // winning plan (§6.1: both configurations chose the same final plan).
  EXPECT_EQ(unpruned.metrics.candidates_after_pruning, 5);
  EXPECT_NEAR(pruned.metrics.final_cost, unpruned.metrics.final_cost, 1e-6);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(Canon(pruned.statements[i].rows),
              Canon(unpruned.statements[i].rows));
  }
  // And the unpruned run needed more optimizations.
  EXPECT_GE(unpruned.metrics.cse_optimizations,
            pruned.metrics.cse_optimizations);
}

TEST_F(CoreTest, NoSharingMeansNoCandidates) {
  RunResult r = Run(
      "select count(*) from orders where o_orderdate < '1994-06-01'; "
      "select n_name from nation where n_regionkey = 1",
      true);
  EXPECT_EQ(r.metrics.candidates_after_pruning, 0);
  EXPECT_EQ(r.metrics.used_cses, 0);
  EXPECT_EQ(r.metrics.cse_optimizations, 0);
}

TEST_F(CoreTest, NestedQuerySharesSubexpression) {
  // §6.3's nested query: main block and HAVING subquery share the
  // customer⨝orders⨝lineitem aggregation.
  std::string q8 =
      "select c_nationkey, sum(l_discount) as totaldisc "
      "from customer, orders, lineitem "
      "where c_custkey = o_custkey and o_orderkey = l_orderkey "
      "group by c_nationkey "
      "having sum(l_discount) > (select sum(l_discount) / 25 "
      "                          from customer, orders, lineitem "
      "                          where c_custkey = o_custkey "
      "                            and o_orderkey = l_orderkey) "
      "order by totaldisc desc";
  RunResult with_cse = Run(q8, true);
  RunResult without = Run(q8, false);
  EXPECT_EQ(Canon(with_cse.statements[0].rows),
            Canon(without.statements[0].rows));
  EXPECT_GE(with_cse.metrics.candidates_after_pruning, 1);
  EXPECT_GE(with_cse.metrics.used_cses, 1);
  EXPECT_LT(with_cse.metrics.final_cost, with_cse.metrics.normal_cost);
}

TEST_F(CoreTest, IdenticalQueriesShareCompletely) {
  std::string q =
      "select o_custkey, sum(o_totalprice) as t from orders, lineitem "
      "where o_orderkey = l_orderkey group by o_custkey";
  RunResult r = Run(q + "; " + q, true);
  EXPECT_GE(r.metrics.used_cses, 1);
  EXPECT_EQ(Canon(r.statements[0].rows), Canon(r.statements[1].rows));
}

TEST_F(CoreTest, CostBasedRejectionWhenConsumersDiffer) {
  // Two queries over the same tables with disjoint, highly selective
  // predicates: a covering CSE would retain far more rows than either
  // consumer needs, so the optimizer may decline to share; whatever it
  // decides, results must be correct and cost must not regress.
  std::string batch =
      "select o_custkey, sum(l_quantity) from orders, lineitem "
      "where o_orderkey = l_orderkey and o_orderdate < '1992-02-01' "
      "group by o_custkey; "
      "select o_custkey, sum(l_extendedprice) from orders, lineitem "
      "where o_orderkey = l_orderkey and o_orderdate > '1998-06-01' "
      "group by o_custkey";
  RunResult with_cse = Run(batch, true);
  RunResult without = Run(batch, false);
  EXPECT_LE(with_cse.metrics.final_cost, with_cse.metrics.normal_cost);
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(Canon(with_cse.statements[i].rows),
              Canon(without.statements[i].rows));
  }
}

}  // namespace
}  // namespace subshare

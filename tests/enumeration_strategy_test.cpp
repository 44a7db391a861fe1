// Step-3 enumeration tests (DESIGN.md §12): the per-component search —
// the subset search on small interaction components and the greedy loop on
// large ones — must never lose to the no-sharing plan, must keep the §5.2
// spool charges, must reuse the §5.4 optimization history for the chosen
// set, must clamp candidate generation at Bitset64 capacity, and must
// return the naive reference plan's results.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/cse_optimizer.h"
#include "exec/executor.h"
#include "exec/naive_planner.h"
#include "sql/binder.h"
#include "testing/differential.h"
#include "testing/shared_prefix.h"
#include "tpch/tpch.h"
#include "util/bitset64.h"
#include "util/string_util.h"

namespace subshare {
namespace {

class EnumerationStrategyTest : public ::testing::Test {
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

Catalog* EnumerationStrategyTest::catalog_ = nullptr;

// Example 1 plus an independent O⨝L pair: several candidates, some of them
// competing.
const char* kMixedBatch =
    "select c_nationkey, c_mktsegment, sum(l_extendedprice) as le, "
    "sum(l_quantity) as lq from customer, orders, lineitem where c_custkey "
    "= o_custkey and o_orderkey = l_orderkey and o_orderdate < "
    "'1996-07-01' and c_nationkey > 0 and c_nationkey < 20 group by "
    "c_nationkey, c_mktsegment; "
    "select c_nationkey, sum(l_extendedprice) as le, sum(l_quantity) as lq "
    "from customer, orders, lineitem where c_custkey = o_custkey and "
    "o_orderkey = l_orderkey and o_orderdate < '1996-07-01' and "
    "c_nationkey > 5 and c_nationkey < 25 group by c_nationkey; "
    "select o_custkey, sum(l_quantity) as q from orders, lineitem where "
    "o_orderkey = l_orderkey group by o_custkey; "
    "select o_orderstatus, sum(l_quantity) as q from orders, lineitem "
    "where o_orderkey = l_orderkey group by o_orderstatus";

// Executes `plan` and the naive reference plan of `sql`; every statement's
// result multiset must agree.
void ExpectNaiveResults(Catalog* catalog, const std::string& sql,
                        const ExecutablePlan& plan) {
  QueryContext ref_ctx(catalog);
  auto ref_stmts = sql::BindSql(sql, &ref_ctx);
  ASSERT_TRUE(ref_stmts.ok());
  auto ref_results = ExecutePlan(NaivePlanBatch(*ref_stmts, &ref_ctx));
  auto results = ExecutePlan(plan);
  ASSERT_EQ(results.size(), ref_results.size());
  for (size_t i = 0; i < results.size(); ++i) {
    std::string why;
    EXPECT_TRUE(testing::SameRowMultiset(ref_results[i].rows,
                                         results[i].rows, &why))
        << "statement " << i << ": " << why;
  }
}

TEST_F(EnumerationStrategyTest, FinalCostNeverExceedsNormalCost) {
  // Cost is monotone non-increasing in the enabled set, and Step 3 starts
  // from the normal plan and only replaces it with cheaper ones.
  QueryContext ctx(catalog_);
  auto stmts = sql::BindSql(kMixedBatch, &ctx);
  ASSERT_TRUE(stmts.ok());
  CseQueryOptimizer optimizer(&ctx);
  CseMetrics metrics;
  ExecutablePlan plan = optimizer.Optimize(*stmts, &metrics);
  EXPECT_GT(metrics.candidates_after_pruning, 1);
  EXPECT_LE(metrics.final_cost, metrics.normal_cost * (1 + 1e-9));
  ExpectNaiveResults(catalog_, kMixedBatch, plan);
}

TEST_F(EnumerationStrategyTest, SpoolChargeInvariantsHold) {
  // §5.2: initial cost charged exactly once at the LCA, and non-recycled
  // single-consumer candidates discarded there.
  QueryContext ctx(catalog_);
  auto stmts = sql::BindSql(kMixedBatch, &ctx);
  ASSERT_TRUE(stmts.ok());
  CseQueryOptimizer optimizer(&ctx);
  CseMetrics metrics;
  ExecutablePlan plan = optimizer.Optimize(*stmts, &metrics);
  EXPECT_GE(metrics.used_cses, 1);
  EXPECT_EQ(testing::PlanInvariantViolation(plan), "");
  for (const auto& cse : plan.cse_plans) EXPECT_FALSE(cse.recycled);
}

TEST_F(EnumerationStrategyTest, HistoryReuseFiresForChosenSet) {
  // §5.4: the (group, enabled ∩ relevant) best-plan memo must serve the
  // chosen set from cache — re-requesting the winning plan after Optimize
  // performs zero new plan computations.
  QueryContext ctx(catalog_);
  auto stmts = sql::BindSql(kMixedBatch, &ctx);
  ASSERT_TRUE(stmts.ok());
  CseQueryOptimizer optimizer(&ctx);
  CseMetrics metrics;
  optimizer.Optimize(*stmts, &metrics);

  Optimizer& opt = optimizer.optimizer();
  int64_t before = opt.plan_computations();
  ASSERT_GT(before, 0);
  PhysicalNodePtr again =
      opt.BestPlan(opt.memo().root(), Bitset64(metrics.trace.chosen_set));
  ASSERT_NE(again, nullptr);
  EXPECT_EQ(opt.plan_computations(), before)
      << "chosen-set re-request missed the §5.4 history cache";
  EXPECT_NEAR(again->est_cost, metrics.final_cost, 1e-6);
}

// A batch whose candidate generation exceeds Bitset64 capacity: 68 distinct
// (table pair, join condition) combos, each shared by two statements whose
// filters differ. Same table set + different join columns are join-
// incompatible (Definition 4.1), so every combo is its own compatible set
// and yields its own candidate with heuristics off.
std::string OverCapacityBatch() {
  struct Side {
    const char* table;
    std::vector<const char*> cols;
  };
  Side orders{"orders", {"o_orderkey", "o_custkey", "o_shippriority"}};
  Side lineitem{"lineitem",
                {"l_orderkey", "l_partkey", "l_suppkey", "l_linenumber"}};
  Side customer{"customer", {"c_custkey", "c_nationkey"}};
  Side part{"part", {"p_partkey", "p_size"}};
  Side supplier{"supplier", {"s_suppkey", "s_nationkey"}};
  Side partsupp{"partsupp", {"ps_partkey", "ps_suppkey", "ps_availqty"}};
  Side nation{"nation", {"n_nationkey", "n_regionkey"}};
  Side region{"region", {"r_regionkey"}};
  std::vector<std::pair<Side, Side>> pairs = {
      {orders, lineitem},   {customer, orders},  {part, lineitem},
      {supplier, lineitem}, {customer, lineitem}, {part, partsupp},
      {supplier, partsupp}, {customer, nation},  {supplier, nation},
      {nation, region},     {orders, partsupp}};
  std::string sql;
  int combos = 0;
  for (const auto& [a, b] : pairs) {
    for (const char* ca : a.cols) {
      for (const char* cb : b.cols) {
        if (combos >= 68) break;
        int f = 40 + combos * 3;
        for (int rep = 0; rep < 2; ++rep) {
          sql += StrFormat(
              "select sum(%s) as s from %s, %s where %s = %s and %s < %d; ",
              cb, a.table, b.table, ca, cb, a.cols[0], f + rep * 7);
        }
        ++combos;
      }
    }
  }
  sql.resize(sql.size() - 2);
  return sql;
}

TEST_F(EnumerationStrategyTest, CandidateClampBeyondBitsetCapacity) {
  // A batch generating more than Bitset64::kMaxBits candidates must clamp
  // at generation — lowest net benefit dropped first, trace noting each —
  // rather than overflow the enabled-set masks. The clamp is the only
  // candidate cap.
  std::string sql = OverCapacityBatch();

  QueryContext ctx(catalog_);
  auto stmts = sql::BindSql(sql, &ctx);
  ASSERT_TRUE(stmts.ok());
  CseOptimizerOptions options;
  options.enable_heuristics = false;
  CseQueryOptimizer optimizer(&ctx, options);
  CseMetrics metrics;
  ExecutablePlan plan = optimizer.Optimize(*stmts, &metrics);

  EXPECT_GT(metrics.candidates_generated, Bitset64::kMaxBits);
  EXPECT_GT(metrics.trace.candidates_dropped, 0);
  EXPECT_LE(metrics.candidates_after_pruning, Bitset64::kMaxBits);
  EXPECT_NE(metrics.trace.ExplainTrace().find(
                "candidates dropped beyond Bitset64 capacity"),
            std::string::npos);
  EXPECT_EQ(testing::PlanInvariantViolation(plan), "");
  ExpectNaiveResults(catalog_, sql, plan);
}

TEST_F(EnumerationStrategyTest, LargeComponentGetsGreedyLoop) {
  // A shared-prefix batch big enough that one interaction component holds
  // more than 16 candidates: that component runs the greedy loop instead
  // of the subset search, and the plan must still beat or tie the normal
  // plan, keep the §5.2 charges and return the naive plan's results.
  const std::string sql = testing::SharedPrefixBatch(150);
  QueryContext ctx(catalog_);
  auto stmts = sql::BindSql(sql, &ctx);
  ASSERT_TRUE(stmts.ok());
  CseQueryOptimizer optimizer(&ctx);
  CseMetrics metrics;
  ExecutablePlan plan = optimizer.Optimize(*stmts, &metrics);

  const OptTrace::Component* greedy = nullptr;
  for (const OptTrace::Component& c : metrics.trace.components) {
    if (c.method == "greedy") greedy = &c;
  }
  ASSERT_NE(greedy, nullptr) << metrics.trace.ExplainTrace();
  EXPECT_GT(__builtin_popcountll(greedy->members), 16);
  EXPECT_NE(greedy->chosen, 0u) << metrics.trace.ExplainTrace();
  bool greedy_steps = false;
  for (const OptTrace::EnumStep& step : metrics.trace.enumeration) {
    greedy_steps |= step.note.find("greedy round") != std::string::npos;
  }
  EXPECT_TRUE(greedy_steps);
  EXPECT_LE(metrics.final_cost, metrics.normal_cost * (1 + 1e-9));
  EXPECT_LT(metrics.final_cost, metrics.normal_cost);
  EXPECT_EQ(testing::PlanInvariantViolation(plan), "");
  ExpectNaiveResults(catalog_, sql, plan);
}

}  // namespace
}  // namespace subshare

// Enumeration-strategy tests (DESIGN.md §12): the greedy and approximate
// strategies must never lose to the no-sharing plan, the approximate
// strategy must respect its provable best-singleton bound, the §5.4
// optimization-history reuse must fire for every strategy, the §5.2
// single-consumer discard must hold for every strategy, and ExplainTrace()
// must label which strategy produced each enumeration step.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "core/cse_optimizer.h"
#include "exec/executor.h"
#include "util/bitset64.h"
#include "util/string_util.h"
#include "sql/binder.h"
#include "testing/differential.h"
#include "tpch/tpch.h"

namespace subshare {
namespace {

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

// Example 1 plus an independent O⨝L pair: multiple candidates, including
// competing ones, so the strategies actually have a set to search.
const char* kBatch =
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

// Five independent shared pairs over distinct signatures: enough
// candidates that the lazy bound queue has something to skip.
const char* kWideBatch =
    "select o_custkey, sum(l_quantity) as q from orders, lineitem where "
    "o_orderkey = l_orderkey group by o_custkey; "
    "select o_orderstatus, sum(l_quantity) as q from orders, lineitem "
    "where o_orderkey = l_orderkey group by o_orderstatus; "
    "select n_name, count(*) as c from customer, nation where c_nationkey "
    "= n_nationkey group by n_name; "
    "select n_regionkey, count(*) as c from customer, nation where "
    "c_nationkey = n_nationkey group by n_regionkey; "
    "select p_brand, sum(l_quantity) as q from part, lineitem where "
    "p_partkey = l_partkey group by p_brand; "
    "select p_type, count(*) as c from part, lineitem where "
    "p_partkey = l_partkey group by p_type; "
    "select n_name, count(*) as c from supplier, nation where s_nationkey "
    "= n_nationkey group by n_name; "
    "select n_regionkey, sum(s_acctbal) as b from supplier, nation where "
    "s_nationkey = n_nationkey group by n_regionkey; "
    "select c_mktsegment, sum(o_totalprice) as t from customer, orders "
    "where c_custkey = o_custkey group by c_mktsegment; "
    "select c_nationkey, count(*) as c from customer, orders where "
    "c_custkey = o_custkey group by c_nationkey";

class StrategyTest : public ::testing::Test {
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

Catalog* StrategyTest::catalog_ = nullptr;

class StrategyParamTest
    : public StrategyTest,
      public ::testing::WithParamInterface<EnumerationStrategy> {};

TEST_P(StrategyParamTest, FinalCostNeverExceedsNormalCost) {
  // Cost is monotone non-increasing in the enabled set, and every strategy
  // starts from the normal plan and only replaces it with cheaper ones.
  QueryContext ctx(catalog_);
  auto stmts = sql::BindSql(kBatch, &ctx);
  ASSERT_TRUE(stmts.ok());
  CseOptimizerOptions options;
  options.strategy = GetParam();
  CseQueryOptimizer optimizer(&ctx, options);
  CseMetrics metrics;
  optimizer.Optimize(*stmts, &metrics);
  EXPECT_GT(metrics.candidates_after_pruning, 1);
  EXPECT_LE(metrics.final_cost, metrics.normal_cost * (1 + 1e-9));
}

TEST_P(StrategyParamTest, ResultsMatchNaiveReference) {
  QueryContext ctx(catalog_);
  auto stmts = sql::BindSql(kBatch, &ctx);
  ASSERT_TRUE(stmts.ok());
  CseOptimizerOptions options;
  options.strategy = GetParam();
  CseQueryOptimizer optimizer(&ctx, options);
  CseMetrics metrics;
  auto results = ExecutePlan(optimizer.Optimize(*stmts, &metrics));

  QueryContext ref_ctx(catalog_);
  auto ref_stmts = sql::BindSql(kBatch, &ref_ctx);
  CseOptimizerOptions off;
  off.enable_cse = false;
  CseQueryOptimizer ref(&ref_ctx, off);
  auto ref_results = ExecutePlan(ref.Optimize(*ref_stmts));
  ASSERT_EQ(results.size(), ref_results.size());
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(Canon(results[i].rows), Canon(ref_results[i].rows));
  }
}

TEST_P(StrategyParamTest, SpoolChargeInvariantsHold) {
  // §5.2 for every strategy: initial cost charged exactly once at the LCA,
  // and non-recycled single-consumer candidates discarded there.
  QueryContext ctx(catalog_);
  auto stmts = sql::BindSql(kBatch, &ctx);
  ASSERT_TRUE(stmts.ok());
  CseOptimizerOptions options;
  options.strategy = GetParam();
  CseQueryOptimizer optimizer(&ctx, options);
  CseMetrics metrics;
  ExecutablePlan plan = optimizer.Optimize(*stmts, &metrics);
  EXPECT_GE(metrics.used_cses, 1);
  EXPECT_EQ(testing::PlanInvariantViolation(plan), "");
  for (const auto& cse : plan.cse_plans) EXPECT_FALSE(cse.recycled);
}

TEST_P(StrategyParamTest, HistoryReuseFiresForChosenSet) {
  // §5.4: the (group, enabled ∩ relevant) best-plan memo must serve the
  // chosen set from cache — re-requesting the winning plan after Optimize
  // performs zero new plan computations, for every strategy.
  QueryContext ctx(catalog_);
  auto stmts = sql::BindSql(kBatch, &ctx);
  ASSERT_TRUE(stmts.ok());
  CseOptimizerOptions options;
  options.strategy = GetParam();
  CseQueryOptimizer optimizer(&ctx, options);
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

TEST_P(StrategyParamTest, ExplainTraceLabelsStrategy) {
  QueryContext ctx(catalog_);
  auto stmts = sql::BindSql(kBatch, &ctx);
  ASSERT_TRUE(stmts.ok());
  CseOptimizerOptions options;
  options.strategy = GetParam();
  CseQueryOptimizer optimizer(&ctx, options);
  CseMetrics metrics;
  optimizer.Optimize(*stmts, &metrics);

  const char* name = EnumerationStrategyName(GetParam());
  std::string trace = metrics.trace.ExplainTrace();
  EXPECT_NE(trace.find(std::string("enumeration [") + name + "]"),
            std::string::npos)
      << trace;
  EXPECT_NE(trace.find(std::string("via ") + name), std::string::npos)
      << trace;
  ASSERT_FALSE(metrics.trace.enumeration.empty());
  for (const OptTrace::EnumStep& step : metrics.trace.enumeration) {
    if (GetParam() == EnumerationStrategy::kExhaustive) {
      // §5.3 subset steps carry no provenance note.
      EXPECT_TRUE(step.note.empty() ||
                  step.note.find("round") == std::string::npos);
    } else {
      EXPECT_NE(step.note.find(std::string(name) + " round"),
                std::string::npos)
          << "unlabeled step under " << name << ": " << step.note;
    }
  }
  if (GetParam() != EnumerationStrategy::kExhaustive &&
      metrics.used_cses > 0) {
    bool accepted = false;
    for (const OptTrace::EnumStep& step : metrics.trace.enumeration) {
      accepted |= step.note.find("[accepted]") != std::string::npos;
    }
    EXPECT_TRUE(accepted);
  }
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

TEST_P(StrategyParamTest, CandidateClampBeyondBitsetCapacity) {
  // A batch generating more than Bitset64::kMaxBits candidates must clamp
  // at generation — lowest net benefit dropped first, trace noting each —
  // rather than overflow the enabled-set masks. The clamp is the only
  // candidate cap left.
  std::string sql = OverCapacityBatch();

  QueryContext ctx(catalog_);
  auto stmts = sql::BindSql(sql, &ctx);
  ASSERT_TRUE(stmts.ok());
  CseOptimizerOptions options;
  options.strategy = GetParam();
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

  auto results = ExecutePlan(plan);
  QueryContext ref_ctx(catalog_);
  auto ref_stmts = sql::BindSql(sql, &ref_ctx);
  ASSERT_TRUE(ref_stmts.ok());
  CseOptimizerOptions off;
  off.enable_cse = false;
  CseQueryOptimizer ref(&ref_ctx, off);
  auto ref_results = ExecutePlan(ref.Optimize(*ref_stmts));
  ASSERT_EQ(results.size(), ref_results.size());
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(Canon(results[i].rows), Canon(ref_results[i].rows));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, StrategyParamTest,
    ::testing::Values(EnumerationStrategy::kExhaustive,
                      EnumerationStrategy::kGreedy,
                      EnumerationStrategy::kApproximate),
    [](const ::testing::TestParamInfo<EnumerationStrategy>& info) {
      return std::string(EnumerationStrategyName(info.param));
    });

TEST_F(StrategyTest, ApproximateWithinProvableBound) {
  // The lazy greedy's first pop refreshes against the empty set, so its
  // fresh benefit equals its seeded bound and dominates the queue: the
  // best singleton is always accepted. Hence the provable guarantee on
  // any batch: final cost <= min over single-candidate plans (and the
  // normal plan). Exhaustive's optimum can be better; this bound cannot.
  QueryContext ctx(catalog_);
  auto stmts = sql::BindSql(kBatch, &ctx);
  ASSERT_TRUE(stmts.ok());
  CseOptimizerOptions options;
  options.strategy = EnumerationStrategy::kApproximate;
  CseQueryOptimizer optimizer(&ctx, options);
  CseMetrics metrics;
  optimizer.Optimize(*stmts, &metrics);

  Optimizer& opt = optimizer.optimizer();
  GroupId root = opt.memo().root();
  double bound = opt.BestPlan(root, Bitset64())->est_cost;
  int n = static_cast<int>(opt.candidates().size());
  ASSERT_GT(n, 1);
  for (int c = 0; c < n; ++c) {
    PhysicalNodePtr plan = opt.BestPlan(root, Bitset64(1ULL << c));
    if (plan != nullptr) bound = std::min(bound, plan->est_cost);
  }
  EXPECT_LE(metrics.final_cost, bound * (1 + 1e-9));
}

TEST_F(StrategyTest, GreedyStrategiesAgreeWithExhaustiveHere) {
  // Not a general guarantee — just pinning that on this batch the greedy
  // strategies find the exhaustive optimum, so a silent regression in the
  // incremental-benefit loop shows up as a cost change.
  std::vector<double> costs;
  for (EnumerationStrategy strategy : testing::AllEnumerationStrategies()) {
    QueryContext ctx(catalog_);
    auto stmts = sql::BindSql(kBatch, &ctx);
    ASSERT_TRUE(stmts.ok());
    CseOptimizerOptions options;
    options.strategy = strategy;
    CseQueryOptimizer optimizer(&ctx, options);
    CseMetrics metrics;
    optimizer.Optimize(*stmts, &metrics);
    costs.push_back(metrics.final_cost);
  }
  ASSERT_EQ(costs.size(), 3u);
  EXPECT_NEAR(costs[1], costs[0], 1e-6 * costs[0]);
  EXPECT_NEAR(costs[2], costs[0], 1e-6 * costs[0]);
}

TEST_F(StrategyTest, ApproximateSavesEvaluationsOnStaleBounds) {
  // The Kathuria–Sudarshan pruning must actually prune: on a batch with
  // several candidates the approximate strategy performs fewer enabled-set
  // optimizations than the non-lazy greedy, and the trace records the
  // accepted-on-stale-bound savings.
  auto run = [&](EnumerationStrategy strategy, CseMetrics* metrics) {
    QueryContext ctx(catalog_);
    auto stmts = sql::BindSql(kWideBatch, &ctx);
    ASSERT_TRUE(stmts.ok());
    CseOptimizerOptions options;
    options.strategy = strategy;
    options.enable_heuristics = false;  // keep all five pair candidates
    CseQueryOptimizer optimizer(&ctx, options);
    optimizer.Optimize(*stmts, metrics);
  };
  CseMetrics greedy, approx;
  run(EnumerationStrategy::kGreedy, &greedy);
  run(EnumerationStrategy::kApproximate, &approx);
  ASSERT_GE(greedy.candidates_after_pruning, 4);
  EXPECT_LT(approx.cse_optimizations, greedy.cse_optimizations);
  EXPECT_GT(approx.trace.skipped_stale_bound, 0);
  EXPECT_NE(approx.trace.ExplainTrace().find("stale lazy bound"),
            std::string::npos);
}

TEST_F(StrategyTest, EnvDefaultParsesAndNames) {
  EXPECT_STREQ(EnumerationStrategyName(EnumerationStrategy::kExhaustive),
               "exhaustive");
  EXPECT_STREQ(EnumerationStrategyName(EnumerationStrategy::kGreedy),
               "greedy");
  EXPECT_STREQ(EnumerationStrategyName(EnumerationStrategy::kApproximate),
               "approximate");
  for (EnumerationStrategy s : testing::AllEnumerationStrategies()) {
    auto parsed = ParseEnumerationStrategy(EnumerationStrategyName(s));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, s);
  }
  EXPECT_FALSE(ParseEnumerationStrategy("volcano").has_value());
  EXPECT_FALSE(ParseEnumerationStrategy("").has_value());
}

}  // namespace
}  // namespace subshare

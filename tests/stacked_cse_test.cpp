// Stacked CSEs end-to-end (§5.5): two wide candidates over different table
// sets that share a narrow, expensive O⨝L core. The narrow candidate's
// consumers include groups inside the wide candidates' evaluation
// expressions; when chosen, one spool is computed from another and the
// executor materializes them in dependency order.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "core/cse_optimizer.h"
#include "exec/executor.h"
#include "sql/binder.h"
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

bool HasSpoolScan(const PhysicalNode& n) {
  if (n.kind == PhysOpKind::kSpoolScan) return true;
  for (const auto& c : n.children) {
    if (HasSpoolScan(*c)) return true;
  }
  return false;
}

std::set<int> SpoolIds(const PhysicalNode& n) {
  std::set<int> out;
  std::function<void(const PhysicalNode&)> walk = [&](const PhysicalNode& p) {
    if (p.kind == PhysOpKind::kSpoolScan) out.insert(p.cse_id);
    for (const auto& c : p.children) walk(*c);
  };
  walk(n);
  return out;
}

// Four queries: two aggregate C⨝O⨝L, two aggregate P⨝O⨝L; all share the
// same selective order-date filter, so σ(O)⨝L is the common expensive core.
std::string StackedBatch() {
  const char* date = "1993-01-01";
  std::string col1 =
      "select c_nationkey, sum(l_extendedprice) as v from customer, orders, "
      "lineitem where c_custkey = o_custkey and o_orderkey = l_orderkey and "
      "o_orderdate < '" +
      std::string(date) + "' group by c_nationkey";
  std::string col2 =
      "select c_mktsegment, sum(l_extendedprice) as v from customer, "
      "orders, lineitem where c_custkey = o_custkey and o_orderkey = "
      "l_orderkey and o_orderdate < '" +
      std::string(date) + "' group by c_mktsegment";
  std::string pol1 =
      "select p_type, sum(l_extendedprice) as v from part, orders, lineitem "
      "where p_partkey = l_partkey and o_orderkey = l_orderkey and "
      "o_orderdate < '" +
      std::string(date) + "' group by p_type";
  std::string pol2 =
      "select p_container, sum(l_extendedprice) as v from part, orders, "
      "lineitem where p_partkey = l_partkey and o_orderkey = l_orderkey "
      "and o_orderdate < '" +
      std::string(date) + "' group by p_container";
  return col1 + "; " + col2 + "; " + pol1 + "; " + pol2;
}

class StackedCseTest : public ::testing::Test {
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

Catalog* StackedCseTest::catalog_ = nullptr;

TEST_F(StackedCseTest, StackedPlansExecuteInDependencyOrder) {
  QueryContext ctx(catalog_);
  auto stmts = sql::BindSql(StackedBatch(), &ctx);
  ASSERT_TRUE(stmts.ok()) << stmts.status().ToString();
  CseQueryOptimizer optimizer(&ctx, {});
  CseMetrics metrics;
  ExecutablePlan plan = optimizer.Optimize(*stmts, &metrics);

  // Reference results.
  QueryContext ref_ctx(catalog_);
  auto ref_stmts = sql::BindSql(StackedBatch(), &ref_ctx);
  CseOptimizerOptions off;
  off.enable_cse = false;
  CseQueryOptimizer ref(&ref_ctx, off);
  auto ref_results = ExecutePlan(ref.Optimize(*ref_stmts));

  auto results = ExecutePlan(plan);
  ASSERT_EQ(results.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(Canon(results[i].rows), Canon(ref_results[i].rows))
        << "statement " << i;
  }
  EXPECT_GE(metrics.used_cses, 2) << "both wide candidates should be shared";

  // If any CSE plan reads another spool (a stacked plan), its producer
  // must appear earlier in the materialization order.
  std::set<int> seen;
  bool any_stacked = false;
  for (const auto& cse : plan.cse_plans) {
    for (int dep : SpoolIds(*cse.plan)) {
      any_stacked = true;
      EXPECT_TRUE(seen.count(dep) > 0)
          << "CSE " << cse.cse_id << " reads CSE " << dep
          << " before it is materialized";
    }
    seen.insert(cse.cse_id);
  }
  // The engineered batch makes the shared O⨝L core clearly beneficial —
  // the chosen plan should actually stack.
  EXPECT_TRUE(any_stacked)
      << "expected at least one CSE to be computed from another";
}

// A candidate relevant inside another's evaluation tree interacts with it
// (§5.5 stacking), so Step 3 searches both in one interaction component.
TEST_F(StackedCseTest, StackedPairsShareAComponent) {
  QueryContext ctx(catalog_);
  auto stmts = sql::BindSql(StackedBatch(), &ctx);
  ASSERT_TRUE(stmts.ok());
  CseQueryOptimizer optimizer(&ctx);
  CseMetrics metrics;
  optimizer.Optimize(*stmts, &metrics);
  Optimizer& opt = optimizer.optimizer();
  auto component_of = [&](int id) {
    for (const OptTrace::Component& c : metrics.trace.components) {
      if (c.members >> id & 1) return c.members;
    }
    return uint64_t{0};
  };
  int stacked_pairs = 0;
  for (const CseCandidateInfo& wide : opt.candidates()) {
    Bitset64 inside = opt.memo().group(wide.eval_group).relevant_cses;
    for (int narrow = 0; narrow < static_cast<int>(opt.candidates().size());
         ++narrow) {
      if (!inside.Test(narrow)) continue;
      ++stacked_pairs;
      EXPECT_NE(component_of(wide.id), 0u);
      EXPECT_EQ(component_of(wide.id), component_of(narrow))
          << "candidate " << narrow << " stacks inside " << wide.id;
    }
  }
  EXPECT_GT(stacked_pairs, 0) << metrics.trace.ExplainTrace();
}

TEST_F(StackedCseTest, StackedDisabledStillCorrect) {
  QueryContext ctx(catalog_);
  auto stmts = sql::BindSql(StackedBatch(), &ctx);
  ASSERT_TRUE(stmts.ok());
  CseOptimizerOptions options;
  options.enable_stacked = false;
  CseQueryOptimizer optimizer(&ctx, options);
  CseMetrics metrics;
  ExecutablePlan plan = optimizer.Optimize(*stmts, &metrics);
  auto results = ExecutePlan(plan);
  ASSERT_EQ(results.size(), 4u);
  // No CSE plan may read another spool when stacking is disabled.
  for (const auto& cse : plan.cse_plans) {
    EXPECT_FALSE(HasSpoolScan(*cse.plan));
  }
}

}  // namespace
}  // namespace subshare

// §5.3 enumeration tests: the per-component, proposition-pruned subset
// search must never miss the best plan a brute-force enumeration of every
// candidate subset would find, the candidate interaction graph must split
// and join components as DESIGN.md §12 says, and the heuristics knobs
// (α, β) must behave monotonically without changing results.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "core/cse_optimizer.h"
#include "exec/executor.h"
#include "sql/binder.h"
#include "testing/query_gen.h"
#include "tpch/tpch.h"
#include "util/bitset64.h"

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

class EnumerationTest : public ::testing::Test {
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

Catalog* EnumerationTest::catalog_ = nullptr;

// Batches designed to produce multiple candidates.
const char* kBatches[] = {
    // Example 1 (competing candidates: shared consumers across queries).
    "select c_nationkey, c_mktsegment, sum(l_extendedprice) as le, "
    "sum(l_quantity) as lq from customer, orders, lineitem where c_custkey "
    "= o_custkey and o_orderkey = l_orderkey and o_orderdate < "
    "'1996-07-01' and c_nationkey > 0 and c_nationkey < 20 group by "
    "c_nationkey, c_mktsegment; "
    "select c_nationkey, sum(l_extendedprice) as le, sum(l_quantity) as lq "
    "from customer, orders, lineitem where c_custkey = o_custkey and "
    "o_orderkey = l_orderkey and o_orderdate < '1996-07-01' and "
    "c_nationkey > 5 and c_nationkey < 25 group by c_nationkey",
    // Two independent pairs: (Q1,Q2) share O⨝L; (Q3,Q4) share C⨝N —
    // their consumers live in disjoint statements but LCAs meet at the
    // root, exercising the competing path too.
    "select o_custkey, sum(l_quantity) as q from orders, lineitem where "
    "o_orderkey = l_orderkey group by o_custkey; "
    "select o_orderstatus, sum(l_quantity) as q from orders, lineitem "
    "where o_orderkey = l_orderkey group by o_orderstatus; "
    "select n_name, count(*) as c from customer, nation where c_nationkey "
    "= n_nationkey group by n_name; "
    "select n_regionkey, count(*) as c from customer, nation where "
    "c_nationkey = n_nationkey group by n_regionkey",
};

// The brute-force oracle: the cheapest root plan over every subset of the
// registered candidates, each costed directly through BestPlan.
double BruteForceMinimum(Optimizer& opt) {
  GroupId root = opt.memo().root();
  int n = static_cast<int>(opt.candidates().size());
  double best = opt.BestPlan(root, Bitset64())->est_cost;
  for (uint64_t s = 1; s < (1ULL << n); ++s) {
    PhysicalNodePtr plan = opt.BestPlan(root, Bitset64(s));
    if (plan != nullptr) best = std::min(best, plan->est_cost);
  }
  return best;
}

class EnumerationParamTest : public EnumerationTest,
                             public ::testing::WithParamInterface<int> {};

TEST_P(EnumerationParamTest, PrunedEnumerationMatchesExhaustiveMinimum) {
  const std::string batch = kBatches[GetParam()];
  QueryContext ctx(catalog_);
  auto stmts = sql::BindSql(batch, &ctx);
  ASSERT_TRUE(stmts.ok());
  CseOptimizerOptions options;
  options.enable_heuristics = false;  // keep every candidate
  CseQueryOptimizer optimizer(&ctx, options);
  CseMetrics metrics;
  ExecutablePlan chosen = optimizer.Optimize(*stmts, &metrics);

  int n = static_cast<int>(optimizer.optimizer().candidates().size());
  ASSERT_GE(n, 1);
  ASSERT_LE(n, 10) << "test assumes a small candidate set";
  EXPECT_NEAR(chosen.est_cost, BruteForceMinimum(optimizer.optimizer()), 1e-6)
      << "proposition-based skipping missed the best plan";
  // And it did skip something relative to the 2^N - 1 exhaustive count
  // whenever more than one candidate exists.
  if (n >= 2) {
    EXPECT_LE(metrics.cse_optimizations, (1 << n) - 1);
  }
}

INSTANTIATE_TEST_SUITE_P(Batches, EnumerationParamTest,
                         ::testing::Range(0, 2));

// The components partition the candidates, and no interaction edge leaves
// one: every statement root's relevant candidates, and every candidate's
// evaluation-tree candidates, lie within a single component.
void ExpectClosedComponents(
    Optimizer& opt, const std::vector<OptTrace::Component>& components) {
  auto touched = [&](uint64_t mask) {
    int n = 0;
    for (const OptTrace::Component& c : components) {
      n += (c.members & mask) != 0;
    }
    return n;
  };
  uint64_t covered = 0;
  for (const OptTrace::Component& c : components) {
    EXPECT_EQ(covered & c.members, 0u);
    covered |= c.members;
  }
  EXPECT_EQ(covered, (1ULL << opt.candidates().size()) - 1);
  for (GroupId s : opt.statement_roots()) {
    EXPECT_LE(touched(opt.memo().group(s).relevant_cses.Raw()), 1)
        << "statement group " << s;
  }
  for (const CseCandidateInfo& c : opt.candidates()) {
    uint64_t inside = opt.memo().group(c.eval_group).relevant_cses.Raw();
    EXPECT_LE(touched(inside | (1ULL << c.id)), 1) << "candidate " << c.id;
  }
}

// Generated batches whose candidates split over several interaction
// components: searching each component on its own and costing the union of
// the choices must reach the brute-force minimum over all 2^n subsets
// (benefits of different components add, DESIGN.md §12). A generated batch
// mostly shares one join core, so each case runs two consecutive generated
// batches as one.
TEST_F(EnumerationTest, ComponentSearchMatchesBruteForceOnGeneratedBatches) {
  int checked = 0;
  bool multi_member = false;  // some component needed a real subset search
  for (uint64_t seed = 1; seed <= 400 && checked < 8; ++seed) {
    testing::QueryGenerator gen(catalog_, seed);
    std::string sql = testing::ToSql(gen.NextBatch());
    sql += testing::ToSql(gen.NextBatch());
    QueryContext ctx(catalog_);
    auto stmts = sql::BindSql(sql, &ctx);
    if (!stmts.ok()) continue;
    CseOptimizerOptions options;
    options.enable_heuristics = false;
    options.max_optimizations = 1 << 12;  // never binds at <= 10 candidates
    CseQueryOptimizer optimizer(&ctx, options);
    CseMetrics metrics;
    ExecutablePlan chosen = optimizer.Optimize(*stmts, &metrics);
    int n = static_cast<int>(optimizer.optimizer().candidates().size());
    if (n < 2 || n > 10 || metrics.trace.components.size() < 2) continue;
    ++checked;
    for (const OptTrace::Component& c : metrics.trace.components) {
      multi_member |= __builtin_popcountll(c.members) >= 2;
    }
    ExpectClosedComponents(optimizer.optimizer(), metrics.trace.components);
    EXPECT_FALSE(metrics.trace.enumeration_capped) << "seed " << seed;
    double best = BruteForceMinimum(optimizer.optimizer());
    EXPECT_NEAR(chosen.est_cost, best, 1e-9 * best)
        << "seed " << seed << ", " << n << " candidates\n"
        << sql << "\n" << metrics.trace.ExplainTrace();
  }
  EXPECT_GE(checked, 5) << "too few generated batches with >= 2 components";
  EXPECT_TRUE(multi_member);
}

// The interaction graph on hand-built relevance masks (bit i = candidate i).
TEST(InteractionComponentsTest, IndependentCoresStaySeparate) {
  // Three statements, each relevant to its own candidate only.
  EXPECT_EQ(InteractionComponents({0b001, 0b010, 0b100}, {0, 0, 0}),
            (std::vector<uint64_t>{0b001, 0b010, 0b100}));
  // A candidate relevant nowhere is a component of its own.
  EXPECT_EQ(InteractionComponents({0b01}, {0, 0}),
            (std::vector<uint64_t>{0b01, 0b10}));
}

TEST(InteractionComponentsTest, SharedStatementJoinsCandidates) {
  // Statement 0 can read candidates 0 and 2; statement 1 only candidate 1.
  EXPECT_EQ(InteractionComponents({0b101, 0b010}, {0, 0, 0}),
            (std::vector<uint64_t>{0b101, 0b010}));
  // Chains join transitively: {0,1} via statement 0, {1,3} via statement 1.
  EXPECT_EQ(InteractionComponents({0b0011, 0b1010}, {0, 0, 0, 0}),
            (std::vector<uint64_t>{0b1011, 0b0100}));
}

TEST(InteractionComponentsTest, StackedPairJoinsCandidates) {
  // Candidates 0 and 1 serve different statements, but candidate 1 is
  // relevant inside candidate 0's evaluation tree (§5.5 stacking).
  EXPECT_EQ(InteractionComponents({0b001, 0b010, 0b100}, {0b010, 0, 0}),
            (std::vector<uint64_t>{0b011, 0b100}));
}

TEST_F(EnumerationTest, IndependentPairsFormSeparateComponents) {
  // kBatches[1]: (Q1,Q2) share O⨝L, (Q3,Q4) share C⨝N.
  QueryContext ctx(catalog_);
  auto stmts = sql::BindSql(kBatches[1], &ctx);
  ASSERT_TRUE(stmts.ok());
  CseOptimizerOptions options;
  options.enable_heuristics = false;  // H1 would drop the C⨝N pair
  CseQueryOptimizer optimizer(&ctx, options);
  CseMetrics metrics;
  optimizer.Optimize(*stmts, &metrics);
  const std::vector<OptTrace::Component>& components =
      metrics.trace.components;
  ASSERT_GE(components.size(), 2u) << metrics.trace.ExplainTrace();
  ExpectClosedComponents(optimizer.optimizer(), components);
  EXPECT_NE(metrics.trace.ExplainTrace().find("interaction components: "),
            std::string::npos);
}

// Heuristic parameter sweeps: results never change; candidate counts move
// monotonically with α.
class AlphaSweepTest : public EnumerationTest,
                       public ::testing::WithParamInterface<double> {};

TEST_P(AlphaSweepTest, ResultsInvariantUnderAlpha) {
  const std::string batch = kBatches[0];
  QueryContext ctx(catalog_);
  auto stmts = sql::BindSql(batch, &ctx);
  ASSERT_TRUE(stmts.ok());
  CseOptimizerOptions options;
  options.alpha = GetParam();
  CseQueryOptimizer optimizer(&ctx, options);
  CseMetrics metrics;
  ExecutablePlan plan = optimizer.Optimize(*stmts, &metrics);
  auto results = ExecutePlan(plan);

  // Reference without CSE.
  QueryContext ref_ctx(catalog_);
  auto ref_stmts = sql::BindSql(batch, &ref_ctx);
  CseOptimizerOptions off;
  off.enable_cse = false;
  CseQueryOptimizer ref(&ref_ctx, off);
  auto ref_results = ExecutePlan(ref.Optimize(*ref_stmts));
  ASSERT_EQ(results.size(), ref_results.size());
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(Canon(results[i].rows), Canon(ref_results[i].rows));
  }
  // With a prohibitive alpha everything is "too cheap": no candidates.
  if (GetParam() >= 100.0) {
    EXPECT_EQ(metrics.candidates_after_pruning, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Alphas, AlphaSweepTest,
                         ::testing::Values(0.01, 0.1, 0.5, 100.0));

class BetaSweepTest : public EnumerationTest,
                      public ::testing::WithParamInterface<double> {};

TEST_P(BetaSweepTest, ContainmentPruningMonotoneInBeta) {
  const std::string batch = kBatches[0];
  QueryContext ctx(catalog_);
  auto stmts = sql::BindSql(batch, &ctx);
  ASSERT_TRUE(stmts.ok());
  CseOptimizerOptions options;
  options.beta = GetParam();
  CseQueryOptimizer optimizer(&ctx, options);
  CseMetrics metrics;
  ExecutablePlan plan = optimizer.Optimize(*stmts, &metrics);
  // Tiny beta prunes every contained candidate; huge beta keeps them all.
  // Either way execution is correct and at least one candidate remains
  // (the widest is never contained).
  EXPECT_GE(metrics.candidates_after_pruning, 1);
  auto results = ExecutePlan(plan);
  EXPECT_EQ(results.size(), 2u);
}

INSTANTIATE_TEST_SUITE_P(Betas, BetaSweepTest,
                         ::testing::Values(0.0001, 0.9, 1e9));

TEST_F(EnumerationTest, UsedSetReportedMatchesPlanSpools) {
  QueryContext ctx(catalog_);
  auto stmts = sql::BindSql(kBatches[0], &ctx);
  ASSERT_TRUE(stmts.ok());
  CseQueryOptimizer optimizer(&ctx, {});
  CseMetrics metrics;
  ExecutablePlan plan = optimizer.Optimize(*stmts, &metrics);
  // Count distinct spool ids in the statement plans.
  std::set<int> spools;
  std::function<void(const PhysicalNode&)> walk = [&](const PhysicalNode& n) {
    if (n.kind == PhysOpKind::kSpoolScan) spools.insert(n.cse_id);
    for (const auto& c : n.children) walk(*c);
  };
  walk(*plan.root);
  for (const auto& cse : plan.cse_plans) walk(*cse.plan);
  EXPECT_EQ(static_cast<int>(spools.size()), metrics.used_cses);
  EXPECT_EQ(spools.size(), plan.cse_plans.size());
}

}  // namespace
}  // namespace subshare

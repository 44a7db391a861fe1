// Cross-batch plan cache + CSE result recycler (DESIGN.md §9).
//
// Headline scenario: a shared-prefix batch executed twice hits the plan
// cache for every statement on the warm run, recycles at least one spooled
// CSE artifact (charging only the C_R reads), and still matches the naive
// reference results. An insert between runs invalidates both caches.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>

#include "api/database.h"
#include "cache/fingerprint.h"
#include "cache/plan_rebind.h"
#include "cache/result_cache.h"
#include "sql/parser.h"

namespace subshare {
namespace {

// Five statements sharing the customer ⋈ orders prefix: the optimizer
// spools the join (or an aggregate over it) once and reuses it.
constexpr const char* kSharedPrefixBatch =
    "select c_nationkey, sum(o_totalprice) as s from customer, orders "
    "where c_custkey = o_custkey group by c_nationkey; "
    "select c_mktsegment, sum(o_totalprice) as s from customer, orders "
    "where c_custkey = o_custkey group by c_mktsegment; "
    "select c_nationkey, count(*) as c from customer, orders "
    "where c_custkey = o_custkey group by c_nationkey; "
    "select c_mktsegment, count(*) as c from customer, orders "
    "where c_custkey = o_custkey group by c_mktsegment; "
    "select count(*) as c from customer, orders "
    "where c_custkey = o_custkey";

bool ValuesClose(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return a.is_null() == b.is_null();
  if (a.type() == DataType::kString || b.type() == DataType::kString) {
    return a.type() == b.type() && a.AsString() == b.AsString();
  }
  double x = a.AsDouble();
  double y = b.AsDouble();
  double tol = 1e-6 * std::max({1.0, std::fabs(x), std::fabs(y)});
  return std::fabs(x - y) <= tol;
}

// Order-insensitive result comparison (statement outputs may legally differ
// in row order between planners when no ORDER BY pins it).
void ExpectSameResults(const QueryResult& a, const QueryResult& b) {
  ASSERT_EQ(a.statements.size(), b.statements.size());
  for (size_t s = 0; s < a.statements.size(); ++s) {
    std::vector<Row> ra = a.statements[s].rows;
    std::vector<Row> rb = b.statements[s].rows;
    auto canon = [](const Row& r) {
      std::string out;
      for (const Value& v : r) out += v.ToString() + "|";
      return out;
    };
    auto by_canon = [&](const Row& x, const Row& y) {
      return canon(x) < canon(y);
    };
    std::sort(ra.begin(), ra.end(), by_canon);
    std::sort(rb.begin(), rb.end(), by_canon);
    ASSERT_EQ(ra.size(), rb.size()) << "statement " << s;
    for (size_t i = 0; i < ra.size(); ++i) {
      ASSERT_EQ(ra[i].size(), rb[i].size());
      for (size_t c = 0; c < ra[i].size(); ++c) {
        EXPECT_TRUE(ValuesClose(ra[i][c], rb[i][c]))
            << "statement " << s << " row " << i << " col " << c << ": "
            << ra[i][c].ToString() << " vs " << rb[i][c].ToString();
      }
    }
  }
}

class CacheTest : public ::testing::Test {
 protected:
  void SetUp() override { ASSERT_TRUE(db_.LoadTpch(0.002).ok()); }

  QueryOptions CachedOptions() {
    QueryOptions o;
    o.cache.plan_cache = true;
    o.cache.result_cache = true;
    return o;
  }

  QueryResult Naive(const std::string& sql) {
    QueryOptions o;
    o.use_naive_plan = true;
    auto r = db_.Execute(sql, o);
    CHECK(r.ok()) << r.status().ToString();
    return *std::move(r);
  }

  Database db_;
};

TEST_F(CacheTest, FingerprintParameterizesLiteralsOnly) {
  auto a = sql::ParseBatch(
      "select c_name from customer where c_acctbal > 100 order by 1");
  auto b = sql::ParseBatch(
      "select c_name from customer where c_acctbal > 2500.5 order by 1");
  ASSERT_TRUE(a.ok() && b.ok());
  cache::BatchFingerprint fa = cache::FingerprintBatch(*a);
  cache::BatchFingerprint fb = cache::FingerprintBatch(*b);
  // Same shape modulo literals: identical text, one differing parameter.
  EXPECT_EQ(fa.text, fb.text);
  ASSERT_EQ(fa.params.size(), 1u);
  ASSERT_EQ(fb.params.size(), 1u);
  EXPECT_NE(fa.text.find("?0"), std::string::npos);
  // ORDER BY position is structural, not a parameter.
  EXPECT_NE(fa.text.find("ORDER BY 1"), std::string::npos);
  EXPECT_EQ(fa.tables, (std::vector<std::string>{"customer"}));
  // The literal got its slot assigned in place.
  EXPECT_EQ((*a)[0]->where->children[1]->param_slot, 0);
}

TEST_F(CacheTest, WarmRunHitsPlanCacheAndRecyclesSpools) {
  QueryOptions options = CachedOptions();

  auto cold = db_.Execute(kSharedPrefixBatch, options);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_FALSE(cold->cache.plan_cache_hit);
  // The batch shares its prefix: at least one CSE chosen, spooled, and
  // admitted into the result cache on the cold run.
  EXPECT_GE(cold->metrics.used_cses, 1);
  EXPECT_GE(cold->cache.spools_admitted, 1);
  EXPECT_GT(cold->execution.rows_spooled, 0);
  EXPECT_GT(cold->phases.optimize_seconds, 0);

  auto warm = db_.Execute(kSharedPrefixBatch, options);
  ASSERT_TRUE(warm.ok());
  // (a) The whole batch is one fingerprint: bind and optimize skipped.
  EXPECT_TRUE(warm->cache.plan_cache_hit);
  EXPECT_FALSE(warm->cache.plan_rebound);
  EXPECT_EQ(warm->phases.bind_seconds, 0);
  EXPECT_EQ(warm->phases.optimize_seconds, 0);
  EXPECT_EQ(warm->plan_text, cold->plan_text);
  EXPECT_EQ(warm->column_names, cold->column_names);
  // (b) Every spool comes from the result cache: nothing re-evaluated, only
  // the C_R work-table reads remain.
  EXPECT_GE(warm->cache.spools_recycled, 1);
  EXPECT_EQ(warm->execution.rows_spooled, 0);
  EXPECT_GT(warm->execution.spool_rows_read, 0);
  // (c) Results identical to the cold run and to the naive reference.
  ExpectSameResults(*warm, *cold);
  ExpectSameResults(*warm, Naive(kSharedPrefixBatch));
}

TEST_F(CacheTest, RebindHitSubstitutesLiterals) {
  QueryOptions options = CachedOptions();
  const char* q1 =
      "select c_name, c_acctbal from customer where c_acctbal > 1000";
  const char* q2 =
      "select c_name, c_acctbal from customer where c_acctbal > 5000";

  ASSERT_TRUE(db_.Execute(q1, options).ok());
  auto r2 = db_.Execute(q2, options);
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(r2->cache.plan_cache_hit);
  EXPECT_TRUE(r2->cache.plan_rebound);
  ExpectSameResults(*r2, Naive(q2));
  // A repeat of the rebound literals is now an exact hit.
  auto r3 = db_.Execute(q2, options);
  ASSERT_TRUE(r3.ok());
  EXPECT_TRUE(r3->cache.plan_cache_hit);
  EXPECT_FALSE(r3->cache.plan_rebound);
}

// Two batches that differ only in a CSE consumer's compensation literal:
// the paper's Example 1 batch with the first statement's c_nationkey < 20
// or < 18 (the spooled E5 covers 0 < c_nationkey < 25 either way). The
// consumer's compensation filter is folded into its spool scan and keeps
// the literal's plan-cache slot, so rebinding the cached consumer plans
// with the second batch's literals rewrites the folded filter, and running
// them over the first batch's spool plans returns the second batch's naive
// rows. Through the Database the second batch is re-planned (CSE plans
// replay on exact literals only) and matches too.
TEST_F(CacheTest, CompensationLiteralRebindsFoldedSpoolFilter) {
  auto batch = [](const char* literal) {
    return std::string(
               "select c_nationkey, c_mktsegment, sum(l_extendedprice) as le "
               "from customer, orders, lineitem "
               "where c_custkey = o_custkey and o_orderkey = l_orderkey "
               "and o_orderdate < '1996-07-01' and c_nationkey > 0 "
               "and c_nationkey < ") +
           literal +
           " group by c_nationkey, c_mktsegment; "
           "select c_nationkey, sum(l_extendedprice) as le "
           "from customer, orders, lineitem "
           "where c_custkey = o_custkey and o_orderkey = l_orderkey "
           "and o_orderdate < '1996-07-01' and c_nationkey > 5 "
           "and c_nationkey < 25 group by c_nationkey";
  };
  const std::string b1 = batch("20");
  const std::string b2 = batch("18");
  QueryOptions options = CachedOptions();
  options.cache.result_cache = false;
  auto r1 = db_.Execute(b1, options);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  ASSERT_GE(r1->metrics.used_cses, 1);

  auto p1 = sql::ParseBatch(b1);
  auto p2 = sql::ParseBatch(b2);
  ASSERT_TRUE(p1.ok() && p2.ok());
  cache::BatchFingerprint f1 = Database::PlanCacheKey(*p1, options);
  cache::BatchFingerprint f2 = Database::PlanCacheKey(*p2, options);
  ASSERT_EQ(f1.text, f2.text);
  ASSERT_EQ(f1.params.size(), f2.params.size());
  int slot = -1;
  for (size_t i = 0; i < f1.params.size(); ++i) {
    if (f1.params[i] != f2.params[i]) slot = static_cast<int>(i);
  }
  ASSERT_GE(slot, 0);

  std::optional<cache::PlanCache::Hit> hit = db_.plan_cache()->Lookup(f1);
  ASSERT_TRUE(hit.has_value());
  ExecutablePlan consumers;
  consumers.root = hit->plan.root;
  std::optional<ExecutablePlan> rebound =
      cache::RebindPlan(consumers, f2.params);
  ASSERT_TRUE(rebound.has_value());
  // The folded spool-scan filter holding the slot now reads 18.
  int folded = 0;
  std::function<void(const ExprPtr&)> check = [&](const ExprPtr& e) {
    if (e == nullptr) return;
    if (e->kind == ExprKind::kLiteral && e->param_slot == slot) {
      EXPECT_EQ(e->literal.AsInt64(), 18);
      ++folded;
    }
    for (const ExprPtr& c : e->children) check(c);
  };
  std::function<void(const PhysicalNode&)> walk = [&](const PhysicalNode& n) {
    if (n.kind == PhysOpKind::kSpoolScan) check(n.filter);
    for (const PhysicalNodePtr& c : n.children) walk(*c);
  };
  walk(*rebound->root);
  EXPECT_EQ(folded, 1) << hit->plan_text;

  rebound->cse_plans = hit->plan.cse_plans;
  QueryResult replayed;
  for (StatementResult& st : ExecutePlan(*rebound)) {
    replayed.statements.push_back(std::move(st));
  }
  QueryResult naive2 = Naive(b2);
  ExpectSameResults(replayed, naive2);

  auto r2 = db_.Execute(b2, options);
  ASSERT_TRUE(r2.ok());
  EXPECT_FALSE(r2->cache.plan_rebound);
  ExpectSameResults(*r2, naive2);
}

TEST_F(CacheTest, RecycledCandidateCostsOnlyReads) {
  // Plan cache off: the optimizer re-runs on the warm batch and must see
  // the cached artifacts as zero-initial-cost candidates (§5.2 charging
  // only C_R), making the final plan strictly cheaper.
  QueryOptions options;
  options.cache.result_cache = true;

  auto cold = db_.Execute(kSharedPrefixBatch, options);
  ASSERT_TRUE(cold.ok());
  ASSERT_GE(cold->cache.spools_admitted, 1);

  auto warm = db_.Execute(kSharedPrefixBatch, options);
  ASSERT_TRUE(warm.ok());
  EXPECT_GE(warm->metrics.recyclable_candidates, 1);
  EXPECT_GE(warm->metrics.results_recycled, 1);
  EXPECT_GE(warm->cache.spools_recycled, 1);
  EXPECT_LT(warm->metrics.final_cost, cold->metrics.final_cost);
  // The decision shows up in the optimizer trace.
  EXPECT_NE(warm->metrics.trace.ExplainTrace().find("recycler hit"),
            std::string::npos);
  ExpectSameResults(*warm, Naive(kSharedPrefixBatch));
}

TEST_F(CacheTest, InsertInvalidatesBothCaches) {
  QueryOptions options = CachedOptions();
  ASSERT_TRUE(db_.Execute(kSharedPrefixBatch, options).ok());
  auto warm = db_.Execute(kSharedPrefixBatch, options);
  ASSERT_TRUE(warm.ok());
  ASSERT_TRUE(warm->cache.plan_cache_hit);
  ASSERT_GE(warm->cache.spools_recycled, 1);

  // Mutate a referenced table: duplicate one orders row.
  Table* orders = db_.catalog().GetTable("orders");
  ASSERT_NE(orders, nullptr);
  uint64_t before = orders->version();
  orders->AppendRow(orders->GetRow(0));
  orders->ComputeStats();
  EXPECT_GT(orders->version(), before);

  auto post = db_.Execute(kSharedPrefixBatch, options);
  ASSERT_TRUE(post.ok());
  // Stale variants/entries must not be served across the version bump.
  EXPECT_FALSE(post->cache.plan_cache_hit);
  EXPECT_EQ(post->cache.spools_recycled, 0);
  EXPECT_GE(post->cache.plan_stats.invalidations, 1);
  EXPECT_GE(post->cache.result_stats.invalidations, 1);
  // The re-optimized, re-evaluated batch reflects the new row.
  ExpectSameResults(*post, Naive(kSharedPrefixBatch));
  // And the differing row counts prove the caches did not serve stale data.
  EXPECT_NE(post->statements[4].rows[0][0].AsInt64(),
            warm->statements[4].rows[0][0].AsInt64());

  // The caches refill: the next run is warm again at the new versions.
  auto rewarm = db_.Execute(kSharedPrefixBatch, options);
  ASSERT_TRUE(rewarm.ok());
  EXPECT_TRUE(rewarm->cache.plan_cache_hit);
  EXPECT_GE(rewarm->cache.spools_recycled, 1);
  ExpectSameResults(*rewarm, *post);
}

TEST_F(CacheTest, ExplainAndNaiveBypassCaches) {
  QueryOptions options = CachedOptions();
  ASSERT_TRUE(db_.Execute(kSharedPrefixBatch, options).ok());

  QueryOptions naive = CachedOptions();
  naive.use_naive_plan = true;
  auto n = db_.Execute(kSharedPrefixBatch, naive);
  ASSERT_TRUE(n.ok());
  EXPECT_FALSE(n->cache.plan_cache_hit);
  EXPECT_EQ(n->cache.spools_recycled, 0);

  auto e = db_.Execute(std::string("explain ") + kSharedPrefixBatch, options);
  ASSERT_TRUE(e.ok());
  EXPECT_FALSE(e->cache.plan_cache_hit);
  EXPECT_EQ(e->column_names[0][0], "plan");
}

TEST_F(CacheTest, ResultCacheEvictionPrefersLowBenefit) {
  Catalog catalog;  // no deps: entries never go stale
  Schema schema;
  schema.AddColumn("v", DataType::kInt64);
  std::vector<Row> rows;
  for (int i = 0; i < 10; ++i) rows.push_back({Value::Int64(i)});
  // Entries are charged at the true columnar footprint, so the budget has
  // to be sized the same way.
  ColumnStore columnar(schema);
  for (const Row& r : rows) columnar.AppendRow(r);
  int64_t entry_bytes = columnar.ByteSize();

  cache::ResultCache rc(&catalog, /*budget_bytes=*/entry_bytes * 2 + 1);
  EXPECT_TRUE(rc.Admit("low", {}, schema, rows, /*benefit=*/10));
  EXPECT_TRUE(rc.Admit("high", {}, schema, rows, /*benefit=*/100));
  EXPECT_EQ(rc.size(), 2);

  // A mid-benefit newcomer evicts the low-benefit resident only.
  EXPECT_TRUE(rc.Admit("mid", {}, schema, rows, /*benefit=*/50));
  EXPECT_EQ(rc.size(), 2);
  EXPECT_EQ(rc.Lookup("low"), nullptr);
  EXPECT_NE(rc.Lookup("high"), nullptr);
  // A newcomer below every resident's benefit is rejected, not admitted.
  EXPECT_FALSE(rc.Admit("tiny", {}, schema, rows, /*benefit=*/1));
  EXPECT_EQ(rc.stats().rejected, 1);
  // An artifact larger than the whole budget is rejected outright.
  std::vector<Row> huge(40, rows[0]);
  EXPECT_FALSE(rc.Admit("huge", {}, schema, huge, /*benefit=*/1000));
  EXPECT_EQ(rc.stats().evictions, 1);
}

TEST_F(CacheTest, ResultCacheInvalidatesOnVersionMismatch) {
  Table* nation = db_.catalog().GetTable("nation");
  ASSERT_NE(nation, nullptr);
  cache::ResultCache rc(&db_.catalog());
  Schema schema;
  schema.AddColumn("v", DataType::kInt64);
  ASSERT_TRUE(rc.Admit("k", {nation->id()}, schema, {{Value::Int64(7)}},
                       /*benefit=*/5));
  EXPECT_NE(rc.Lookup("k"), nullptr);
  EXPECT_EQ(rc.CountStale(), 0);

  nation->AppendRow(nation->GetRow(0));
  EXPECT_EQ(rc.CountStale(), 1);
  EXPECT_EQ(rc.Lookup("k"), nullptr);  // lazily dropped
  EXPECT_EQ(rc.stats().invalidations, 1);
  EXPECT_EQ(rc.size(), 0);
}

TEST_F(CacheTest, PhaseTimingsCoverEveryStage) {
  auto r = db_.Execute(kSharedPrefixBatch);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->phases.parse_seconds, 0);
  EXPECT_GT(r->phases.bind_seconds, 0);
  EXPECT_GT(r->phases.optimize_seconds, 0);
  EXPECT_GT(r->phases.execute_seconds, 0);
}

}  // namespace
}  // namespace subshare

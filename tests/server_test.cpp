// Multi-session server tests (DESIGN.md §13): cross-session plan-cache and
// spool sharing, append-driven invalidation under the data lock, the
// refcounted spool pin surviving eviction, and a small multi-session
// differential fuzz as a ctest.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "api/database.h"
#include "server/server.h"
#include "storage/work_table.h"
#include "testing/cache_differential.h"
#include "testing/multi_session.h"

namespace subshare {
namespace {

// Example-1 shape: two statements sharing the C⨝O⨝L core, so the optimizer
// spools a CSE and (with the result cache on) admits it.
const char* kSharedBatch =
    "select c_nationkey, sum(l_extendedprice) as le from customer, orders, "
    "lineitem where c_custkey = o_custkey and o_orderkey = l_orderkey and "
    "c_nationkey < 20 group by c_nationkey; "
    "select c_nationkey, sum(l_quantity) as lq from customer, orders, "
    "lineitem where c_custkey = o_custkey and o_orderkey = l_orderkey and "
    "c_nationkey < 25 group by c_nationkey";

QueryOptions CachedOptions() {
  QueryOptions options;
  options.cache.plan_cache = true;
  options.cache.result_cache = true;
  return options;
}

QueryOptions NaiveOptions() {
  QueryOptions options;
  options.use_naive_plan = true;
  return options;
}

class ServerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new Database();
    ASSERT_TRUE(db_->LoadTpch(0.002).ok());
  }
  static void TearDownTestSuite() { delete db_; }
  static Database* db_;
};

Database* ServerTest::db_ = nullptr;

TEST_F(ServerTest, ConnectTracksLiveSessions) {
  server::Server server(db_);
  EXPECT_EQ(server.live_sessions(), 0);
  auto a = server.Connect();
  auto b = server.Connect("reporting");
  EXPECT_EQ(server.live_sessions(), 2);
  EXPECT_NE(a->id(), b->id());
  EXPECT_EQ(b->name(), "reporting");
  EXPECT_FALSE(a->name().empty());
  a.reset();
  EXPECT_EQ(server.live_sessions(), 1);
  b.reset();
  EXPECT_EQ(server.live_sessions(), 0);
}

// An out-of-range numeric literal is a clean error for the session that
// sent it, not a throw that ends the process; the same session then runs a
// valid batch.
TEST_F(ServerTest, OutOfRangeLiteralLeavesSessionUsable) {
  server::Server server(db_);
  auto session = server.Connect();
  for (const char* bad :
       {"select n_name from nation where n_nationkey = 99999999999999999999",
        "select 1e999 from region"}) {
    auto result = session->Execute(bad, CachedOptions());
    ASSERT_FALSE(result.ok()) << bad;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
  auto ok = session->Execute(kSharedBatch, CachedOptions());
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->statements.size(), 2u);
  EXPECT_FALSE(ok->statements[0].rows.empty());
}

// Arithmetic or SUM/AVG over a string column is a bind error for the
// session that sent it (it used to abort the process inside the
// evaluator); the same session then runs a valid batch.
TEST_F(ServerTest, StringArithmeticLeavesSessionUsable) {
  server::Server server(db_);
  auto session = server.Connect();
  for (const char* bad :
       {"select sum(n_name) from nation", "select avg(n_name) from nation",
        "select n_name + 1 from nation", "select -n_name from nation",
        "select n_name from nation group by n_name having sum(n_name) > 0"}) {
    auto result = session->Execute(bad, CachedOptions());
    ASSERT_FALSE(result.ok()) << bad;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument) << bad;
  }
  auto ok = session->Execute(kSharedBatch, CachedOptions());
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->statements.size(), 2u);
  EXPECT_FALSE(ok->statements[0].rows.empty());
}

TEST_F(ServerTest, CrossSessionPlanAndSpoolSharing) {
  server::Server server(db_);
  auto a = server.Connect("a");
  auto b = server.Connect("b");

  auto first = a->Execute(kSharedBatch, CachedOptions());
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->cache.plan_cache_hit);
  EXPECT_GT(first->cache.spools_admitted, 0);

  // Session B never ran this shape; the shared caches serve it anyway.
  auto second = b->Execute(kSharedBatch, CachedOptions());
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->cache.plan_cache_hit);
  EXPECT_GT(second->cache.spools_recycled, 0);

  std::string why;
  EXPECT_TRUE(testing::SameResults(*first, *second, &why)) << why;

  server::ServerStats stats = server.stats();
  EXPECT_EQ(stats.batches_executed, 2);
  EXPECT_GE(stats.plan_hits, 1);
  EXPECT_GE(stats.spools_admitted, 1);
  EXPECT_GE(stats.spools_recycled, 1);
}

TEST_F(ServerTest, AppendInvalidatesSharedCachesForEverySession) {
  server::Server server(db_);
  auto a = server.Connect("warm");
  auto b = server.Connect("writer");

  ASSERT_TRUE(a->Execute(kSharedBatch, CachedOptions()).ok());

  // B's append bumps customer's version under the exclusive data lock.
  Table* customer = db_->catalog().GetTable("customer");
  ASSERT_NE(customer, nullptr);
  ASSERT_TRUE(b->Append("customer", {customer->GetRow(0)}).ok());
  EXPECT_EQ(server.stats().appends, 1);

  // A's warm re-run must observe the appended row: compare cached vs a
  // fresh naive reference under one snapshot.
  auto runs = a->ExecuteAtomic(
      {{kSharedBatch, NaiveOptions()}, {kSharedBatch, CachedOptions()}});
  ASSERT_TRUE(runs.ok());
  std::string why;
  EXPECT_TRUE(testing::SameResults((*runs)[0], (*runs)[1], &why)) << why;
}

TEST_F(ServerTest, AppendToUnknownTableFails) {
  server::Server server(db_);
  auto s = server.Connect();
  Status status = s->Append("no_such_table", {});
  EXPECT_FALSE(status.ok());
}

TEST_F(ServerTest, PinnedSpoolSurvivesEvictionUntilScanCloses) {
  // Deterministic two-session interleave at the cache/work-table layer,
  // mirroring the executor's recycled-spool install path: session A pins a
  // cached spool into its work table; session B's append bumps the dep
  // version and the entry is evicted; A's pinned columns stay readable
  // until A closes.
  Table* nation = db_->catalog().GetTable("nation");
  ASSERT_NE(nation, nullptr);
  cache::ResultCache cache(&db_->catalog());

  Schema schema;
  schema.AddColumn("x", DataType::kInt64);
  std::vector<Row> rows = {{Value::Int64(7)}, {Value::Int64(11)}};
  ASSERT_TRUE(cache.Admit("spool-key", {nation->id()}, schema, rows, 100.0));

  // Session A: lookup + zero-copy install (what ExecutePlan does).
  cache::ResultCache::Pin pin = cache.Lookup("spool-key");
  ASSERT_NE(pin, nullptr);
  WorkTable wt(schema);
  wt.InstallShared(
      std::shared_ptr<const ColumnStore>(pin, &pin->data));
  ASSERT_TRUE(wt.recycled_shared());
  pin.reset();  // the work table's own reference keeps the entry alive

  // Session B: version bump + eviction while A is still "scanning".
  nation->AppendRow(nation->GetRow(0));
  EXPECT_EQ(cache.EvictStale(), 1);
  EXPECT_EQ(cache.Lookup("spool-key"), nullptr);
  EXPECT_EQ(cache.size(), 0);

  // A's view is unchanged: the refcount, not the cache, owns the storage.
  ASSERT_EQ(wt.row_count(), 2);
  EXPECT_EQ(wt.GetRow(0)[0].AsInt64(), 7);
  EXPECT_EQ(wt.GetRow(1)[0].AsInt64(), 11);
}

TEST_F(ServerTest, MultiSessionFuzzSmoke) {
  // 4 threads × shared caches × guaranteed per-batch appends; every batch
  // differentially checked against the naive reference under one snapshot.
  testing::MultiSessionOptions options;
  options.sessions = 4;
  options.batches_per_session = 6;
  options.append_prob = 1.0;
  options.seed = 7;
  testing::MultiSessionReport report =
      testing::RunMultiSessionFuzz(db_, options);
  EXPECT_EQ(report.divergences, 0) << testing::MultiSessionSummary(report);
  EXPECT_GT(report.batches_checked, 0);
  EXPECT_GT(report.appends, 0);
  // The warm repeat inside every checked batch guarantees plan hits even
  // without cross-session overlap; paired seeds add the cross-session ones.
  EXPECT_GT(report.server.plan_hits, 0);
}

}  // namespace
}  // namespace subshare

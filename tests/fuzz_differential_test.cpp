// Differential fuzzing harness as a ctest target:
//   - replays the checked-in regression corpus (tests/corpus/*.sql),
//   - runs seeded random query batches (>= 500 statements by default)
//     (naive reference vs. CSE plan) and cross-checks results and the §5.2
//     cost/spool plan invariants,
//   - pins generator determinism and shrinker well-formedness, and the
//     exactly-once C_E + C_W charge at the candidate's LCA.
//
// Reproduce any reported failure with:
//   ./build/bench/fuzz_main --seed=<seed> --batches=1
// The report includes the minimized SQL and the optimizer decision trace.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/cse_optimizer.h"
#include "exec/naive_planner.h"
#include "sql/binder.h"
#include "testing/cache_differential.h"
#include "testing/differential.h"
#include "testing/query_gen.h"
#include "tpch/tpch.h"

#ifndef SUBSHARE_CORPUS_DIR
#define SUBSHARE_CORPUS_DIR "tests/corpus"
#endif

namespace subshare {
namespace {

class FuzzDifferentialTest : public ::testing::Test {
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

Catalog* FuzzDifferentialTest::catalog_ = nullptr;

struct CorpusEntry {
  std::filesystem::path path;
  std::string sql;
};

// The checked-in regression batches (tests/corpus/*.sql), sorted by path.
std::vector<CorpusEntry> Corpus() {
  std::vector<CorpusEntry> corpus;
  for (const auto& entry :
       std::filesystem::directory_iterator(SUBSHARE_CORPUS_DIR)) {
    if (entry.path().extension() != ".sql") continue;
    std::ifstream in(entry.path());
    EXPECT_TRUE(in.good()) << entry.path();
    std::stringstream buf;
    buf << in.rdbuf();
    corpus.push_back({entry.path(), buf.str()});
  }
  std::sort(corpus.begin(), corpus.end(),
            [](const CorpusEntry& a, const CorpusEntry& b) {
              return a.path < b.path;
            });
  return corpus;
}

TEST_F(FuzzDifferentialTest, CorpusReplay) {
  const std::vector<CorpusEntry> corpus = Corpus();
  ASSERT_FALSE(corpus.empty()) << "no corpus files in " << SUBSHARE_CORPUS_DIR;

  testing::DifferentialTester tester(catalog_);
  for (const CorpusEntry& entry : corpus) {
    auto d = tester.Check(entry.sql);
    EXPECT_FALSE(d.has_value()) << entry.path << ":\n" << d->ToString();
  }
  EXPECT_GT(tester.statements_checked(), 0);
}

TEST_F(FuzzDifferentialTest, RandomBatches) {
  int batches = 250;
  if (const char* env = std::getenv("SUBSHARE_FUZZ_BATCHES")) {
    batches = std::atoi(env);
  }
  testing::DifferentialTester tester(catalog_);
  for (int i = 0; i < batches; ++i) {
    uint64_t seed = 1000000 + static_cast<uint64_t>(i);
    testing::QueryGenerator gen(catalog_, seed);
    testing::BatchSpec batch = gen.NextBatch();
    batch.seed = seed;
    auto d = tester.CheckBatch(batch);
    ASSERT_FALSE(d.has_value())
        << "seed " << seed << ":\n"
        << d->ToString();
  }
  // The acceptance bar: >= 500 statements checked (only meaningful at the default batch count).
  if (batches >= 250) {
    EXPECT_GE(tester.statements_checked(), 500);
  }
}

// Corpus replay through the cache-mode checker: each checked-in batch is
// run cold, warm (must hit the plan cache), and again after a random
// insert — pinning the repeated-prefix and repeat-after-insert scenarios.
TEST_F(FuzzDifferentialTest, CorpusReplayCacheMode) {
  const std::vector<CorpusEntry> corpus = Corpus();
  ASSERT_FALSE(corpus.empty());

  Database db;
  ASSERT_TRUE(db.LoadTpch(0.002).ok());
  testing::CacheDifferentialTester tester(&db, /*seed=*/11);
  for (const CorpusEntry& entry : corpus) {
    auto d = tester.Check(entry.sql);
    EXPECT_FALSE(d.has_value()) << entry.path << ":\n" << d->ToString();
  }
  EXPECT_EQ(tester.plan_hits_seen(), tester.batches_checked());
  // The shared-prefix corpus entries actually exercise the recycler.
  EXPECT_GE(tester.recycled_runs_seen(), 1);
}

// Cache mode: each batch is replayed through the plan cache and result
// recycler with interleaved random inserts, against the naive reference.
// Uses its own Database — the interleaved inserts mutate its tables.
TEST_F(FuzzDifferentialTest, CacheModeRandomBatches) {
  int batches = 250;
  if (const char* env = std::getenv("SUBSHARE_FUZZ_BATCHES")) {
    batches = std::atoi(env);
  }
  Database db;
  ASSERT_TRUE(db.LoadTpch(0.002).ok());
  testing::CacheDifferentialTester tester(&db, /*seed=*/2000000);
  for (int i = 0; i < batches; ++i) {
    uint64_t seed = 2000000 + static_cast<uint64_t>(i);
    testing::QueryGenerator gen(&db.catalog(), seed);
    auto d = tester.Check(testing::ToSql(gen.NextBatch()));
    ASSERT_FALSE(d.has_value()) << "seed " << seed << ":\n" << d->ToString();
  }
  // The acceptance bar: >= 500 statements replayed with zero divergences,
  // with real warm traffic — plan-cache hits on every warm repeat and at
  // least some runs recycling spooled CSE artifacts.
  if (batches >= 250) {
    EXPECT_GE(tester.statements_checked(), 500);
    EXPECT_GE(tester.recycled_runs_seen(), 1);
  }
  EXPECT_EQ(tester.plan_hits_seen(), tester.batches_checked());
}

// The one result comparator: order-insensitive, near-equal doubles pair up
// even when they would sort apart exactly, and the match test is relative
// 1e-6 on doubles and exact on everything else.
TEST(SameRowMultisetTest, PairsNearEqualDoublesAndMatchesStrictly) {
  auto row = [](double d, std::string s) {
    return Row{Value::Double(d), Value::String(std::move(s))};
  };
  std::string why;
  // Exact order would pair (1.0, b) with (1.0, a): the rounded key does not.
  EXPECT_TRUE(testing::SameRowMultiset({row(1.0 + 1e-12, "b"), row(1.0, "a")},
                                       {row(1.0, "b"), row(1.0 + 1e-12, "a")},
                                       &why))
      << why;
  // Two rows a rounding step apart keep their exact order within a key.
  EXPECT_TRUE(testing::SameRowMultiset({row(2.0001, "x"), row(2.0004, "x")},
                                       {row(2.0004, "x"), row(2.0001, "x")},
                                       &why))
      << why;
  // Equal at three decimals is not enough: 1.0001 vs 1.0004.
  EXPECT_FALSE(
      testing::SameRowMultiset({row(1.0001, "a")}, {row(1.0004, "a")}, &why));
  EXPECT_FALSE(testing::SameRowMultiset({row(1.0, "a")}, {row(1.0, "b")},
                                        &why));
  EXPECT_FALSE(testing::SameRowMultiset({row(1.0, "a")}, {}, &why));
  // Integers match exactly, however large.
  EXPECT_FALSE(testing::SameRowMultiset({{Value::Int64(1000000000)}},
                                        {{Value::Int64(1000000001)}}, &why));
  EXPECT_FALSE(testing::SameRowMultiset({{Value::Null(DataType::kInt64)}},
                                        {{Value::Int64(0)}}, &why));
  EXPECT_TRUE(testing::SameRowMultiset(
      {{Value::Null(DataType::kInt64)}, {Value::Int64(3)}},
      {{Value::Int64(3)}, {Value::Null(DataType::kInt64)}}, &why))
      << why;
}

TEST_F(FuzzDifferentialTest, GeneratorIsDeterministic) {
  testing::QueryGenerator a(catalog_, 42), b(catalog_, 42);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(testing::ToSql(a.NextBatch()), testing::ToSql(b.NextBatch()));
  }
}

TEST_F(FuzzDifferentialTest, ShrinkCandidatesStayWellFormed) {
  testing::QueryGenerator gen(catalog_, 7);
  testing::DifferentialTester tester(catalog_);
  QueryContext probe(catalog_);
  for (int i = 0; i < 10; ++i) {
    testing::BatchSpec batch = gen.NextBatch();
    for (const testing::BatchSpec& cand : testing::ShrinkCandidates(batch)) {
      std::string sql = testing::ToSql(cand);
      EXPECT_LT(sql.size(), testing::ToSql(batch).size() + 1);
      QueryContext ctx(catalog_);
      auto bound = sql::BindSql(sql, &ctx);
      EXPECT_TRUE(bound.ok()) << sql << "\n" << bound.status().ToString();
    }
  }
}

void CountJoins(const PhysicalNode& node, int* hash, int* merge) {
  if (node.kind == PhysOpKind::kHashJoin) ++*hash;
  if (node.kind == PhysOpKind::kMergeJoin) ++*merge;
  for (const PhysicalNodePtr& c : node.children) CountJoins(*c, hash, merge);
}

// The naive reference shares no hash-join code with the plans it judges:
// over generated batches it plans every equi-join as a sort-merge join.
TEST_F(FuzzDifferentialTest, NaivePlanUsesNoHashJoin) {
  int hash = 0, merge = 0;
  for (int i = 0; i < 60; ++i) {
    testing::QueryGenerator gen(catalog_, 2000000 + static_cast<uint64_t>(i));
    QueryContext ctx(catalog_);
    auto stmts = sql::BindSql(testing::ToSql(gen.NextBatch()), &ctx);
    if (!stmts.ok()) continue;
    ExecutablePlan plan = NaivePlanBatch(*stmts, &ctx);
    CountJoins(*plan.root, &hash, &merge);
  }
  EXPECT_EQ(hash, 0);
  EXPECT_GT(merge, 0) << "generated batches planned no equi-join";
}

// The optimizer never plans a sort-merge join (no operator delivers sorted
// input, so it always loses to the hash join), while the naive reference
// still plans every equi-join as one.
TEST_F(FuzzDifferentialTest, OnlyNaivePlansUseMergeJoin) {
  const std::vector<CorpusEntry> corpus = Corpus();
  ASSERT_FALSE(corpus.empty());
  int naive_merge = 0;
  for (const CorpusEntry& entry : corpus) {
    QueryContext ctx(catalog_);
    auto stmts = sql::BindSql(entry.sql, &ctx);
    ASSERT_TRUE(stmts.ok()) << entry.path;
    CseQueryOptimizer opt(&ctx);
    ExecutablePlan plan = opt.Optimize(*stmts);
    int hash = 0, merge = 0;
    CountJoins(*plan.root, &hash, &merge);
    for (const auto& cse : plan.cse_plans) {
      CountJoins(*cse.plan, &hash, &merge);
    }
    EXPECT_EQ(merge, 0) << entry.path;
    QueryContext naive_ctx(catalog_);
    auto naive_stmts = sql::BindSql(entry.sql, &naive_ctx);
    ASSERT_TRUE(naive_stmts.ok()) << entry.path;
    hash = 0;
    CountJoins(*NaivePlanBatch(*naive_stmts, &naive_ctx).root, &hash,
               &naive_merge);
  }
  EXPECT_GT(naive_merge, 0) << "the corpus planned no equi-join";
}

// Counts the nodes of `kind` in a plan tree.
int CountKind(const PhysicalNode& node, PhysOpKind kind) {
  int n = node.kind == kind ? 1 : 0;
  for (const PhysicalNodePtr& c : node.children) n += CountKind(*c, kind);
  return n;
}

// The naive reference uses no hash table at all: over the corpus, its
// plans join by sort-merge / nested loops and group by sort + StreamAgg.
TEST_F(FuzzDifferentialTest, NaivePlansUseNoHashOperators) {
  const std::vector<CorpusEntry> corpus = Corpus();
  ASSERT_FALSE(corpus.empty());
  int stream_aggs = 0;
  for (const CorpusEntry& entry : corpus) {
    QueryContext ctx(catalog_);
    auto stmts = sql::BindSql(entry.sql, &ctx);
    ASSERT_TRUE(stmts.ok()) << entry.path;
    const ExecutablePlan plan = NaivePlanBatch(*stmts, &ctx);
    const PhysicalNode& root = *plan.root;
    EXPECT_EQ(CountKind(root, PhysOpKind::kHashJoin), 0) << entry.path;
    EXPECT_EQ(CountKind(root, PhysOpKind::kHashAgg), 0) << entry.path;
    stream_aggs += CountKind(root, PhysOpKind::kStreamAgg);
  }
  EXPECT_GT(stream_aggs, 0) << "the corpus planned no aggregation";
}

// Regression for the §5.2 accounting rule: when subset re-optimization
// supersedes the plan at a candidate's LCA group, the initial cost
// C_E + C_W must still be charged exactly once (one cse_finalized record in
// the statement forest) and never inside an evaluation plan. Uses a batch
// with enough sharing that the enumeration runs several subsets.
TEST_F(FuzzDifferentialTest, SpoolChargeAccountedExactlyOnce) {
  const std::string sql =
      "select o_orderpriority, sum(l_extendedprice) as agg0 "
      "from lineitem, orders where l_orderkey = o_orderkey "
      "and o_orderdate < '1997-01-01' group by o_orderpriority;\n"
      "select o_orderstatus, sum(l_quantity) as agg0 "
      "from lineitem, orders where l_orderkey = o_orderkey "
      "and o_orderdate < '1997-01-01' group by o_orderstatus;\n"
      "select c_mktsegment, count(*) as agg0 "
      "from customer, orders where c_custkey = o_custkey "
      "group by c_mktsegment;\n"
      "select c_nationkey, count(*) as agg0 "
      "from customer, orders where c_custkey = o_custkey "
      "group by c_nationkey";
  QueryContext ctx(catalog_);
  auto stmts = sql::BindSql(sql, &ctx);
  ASSERT_TRUE(stmts.ok()) << stmts.status().ToString();
  CseQueryOptimizer opt(&ctx);
  CseMetrics metrics;
  ExecutablePlan plan = opt.Optimize(*stmts, &metrics);

  ASSERT_GE(metrics.used_cses, 1) << "batch no longer produces a shared plan";
  EXPECT_GT(metrics.cse_optimizations, 1)
      << "enumeration did not supersede any plan; weaker regression";
  EXPECT_EQ(testing::PlanInvariantViolation(plan), "");
  // Count the charge directly: exactly one finalization per chosen CSE.
  for (const auto& cp : plan.cse_plans) {
    int charges = 0;
    for (int id : plan.root->cse_finalized) {
      if (id == cp.cse_id) ++charges;
    }
    EXPECT_EQ(charges, 1) << "cse " << cp.cse_id;
    EXPECT_TRUE(cp.plan->cse_finalized.empty())
        << "initial cost charged inside an evaluation plan";
  }
}

// The optimizer decision trace must record the full pipeline for a sharing
// batch: signature filtering, candidate construction, enumeration, and the
// chosen set, rendered by ExplainTrace().
TEST_F(FuzzDifferentialTest, ExplainTraceRecordsDecisions) {
  const std::string sql =
      "select o_orderpriority, sum(l_extendedprice) as agg0 "
      "from lineitem, orders where l_orderkey = o_orderkey "
      "group by o_orderpriority;\n"
      "select o_orderstatus, count(*) as agg0 "
      "from lineitem, orders where l_orderkey = o_orderkey "
      "group by o_orderstatus";
  QueryContext ctx(catalog_);
  auto stmts = sql::BindSql(sql, &ctx);
  ASSERT_TRUE(stmts.ok());
  CseQueryOptimizer opt(&ctx);
  CseMetrics metrics;
  ExecutablePlan plan = opt.Optimize(*stmts, &metrics);
  (void)plan;

  const OptTrace& trace = metrics.trace;
  EXPECT_FALSE(trace.signatures.empty());
  EXPECT_FALSE(trace.candidates.empty());
  EXPECT_FALSE(trace.enumeration.empty());
  std::string text = trace.ExplainTrace();
  EXPECT_NE(text.find("signature"), std::string::npos) << text;
  EXPECT_NE(text.find("chosen"), std::string::npos) << text;
  EXPECT_NE(text.find("enumeration"), std::string::npos) << text;
}

}  // namespace
}  // namespace subshare

// Public facade: a Database owns a catalog and executes SQL batches through
// the CSE-aware optimizer. This is the entry point examples and benchmarks
// use.
#ifndef SUBSHARE_API_DATABASE_H_
#define SUBSHARE_API_DATABASE_H_

#include <memory>
#include <string>

#include "cache/plan_cache.h"
#include "cache/result_cache.h"
#include "core/cse_optimizer.h"
#include "exec/executor.h"
#include "tpch/tpch.h"

namespace subshare {

// Cross-batch caching knobs (DESIGN.md §9). Both caches are owned by the
// Database and persist across Execute() calls; both default OFF so
// single-batch workloads are unperturbed.
struct CacheOptions {
  // Plan cache: repeated statement shapes (fingerprints with literals
  // parameterized out) skip parse→bind→optimize and replay the cached
  // physical plan, rebinding literals when the order pattern allows.
  bool plan_cache = false;
  // Result recycler: spooled CSE work tables are admitted into a budgeted
  // cache and injected into later batches as zero-initial-cost candidates.
  bool result_cache = false;
  // Byte budget applied when the result cache is first created.
  int64_t result_budget_bytes = cache::ResultCache::kDefaultBudgetBytes;
  // Allow fresh spools into the result cache (off: read-only probing).
  bool admit_results = true;
};

// Wall time per Execute() phase. A plan-cache hit reports zero bind and
// optimize time — those phases genuinely did not run.
struct PhaseTimings {
  double parse_seconds = 0;
  double bind_seconds = 0;
  double optimize_seconds = 0;
  double execute_seconds = 0;
};

// Per-call cache outcome plus cumulative cache stats (snapshotted after the
// call, so deltas across calls are meaningful).
struct CacheMetrics {
  bool plan_cache_hit = false;   // bind/optimize skipped
  bool plan_rebound = false;     // hit required literal rebinding
  int64_t spools_recycled = 0;   // CSE work tables served from the cache
  int64_t spools_admitted = 0;   // freshly evaluated spools admitted
  cache::PlanCacheStats plan_stats;
  cache::ResultCacheStats result_stats;
};

struct QueryOptions {
  CseOptimizerOptions cse;
  bool execute = true;       // false: optimize only (planning benchmarks)
  bool use_naive_plan = false;  // bypass the optimizer (reference runs)
  // Executor knobs (result recycler).
  ExecOptions exec;
  // Cross-batch plan/result caching; EXPLAIN and naive-plan runs bypass
  // both caches regardless.
  CacheOptions cache;
};

struct QueryResult {
  std::vector<StatementResult> statements;
  std::vector<std::vector<std::string>> column_names;  // per statement
  CseMetrics metrics;           // optimization metrics (empty on a
                                // plan-cache hit: no optimization ran)
  ExecutionMetrics execution;   // runtime metrics
  CacheMetrics cache;           // cross-batch cache outcome
  PhaseTimings phases;          // wall time per phase
  std::string plan_text;        // EXPLAIN-style rendering
};

class Database {
 public:
  Database() = default;
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  Catalog& catalog() { return catalog_; }
  const Catalog& catalog() const { return catalog_; }

  // Loads the TPC-H substrate at the given scale factor.
  Status LoadTpch(double scale_factor = 0.01, uint64_t seed = 20070611);

  // Creates an empty user table.
  StatusOr<Table*> CreateTable(const std::string& name, Schema schema);

  // Parses, binds, optimizes (with CSE exploitation per `options`) and
  // executes a ';'-separated batch.
  StatusOr<QueryResult> Execute(const std::string& sql,
                                const QueryOptions& options = {});

  // Same pipeline, but against caller-owned caches instead of the
  // Database's lazily created ones — the entry point the multi-session
  // server uses so N sessions share one plan cache and one result recycler
  // (both are internally synchronized). Either pointer may be nullptr to
  // disable that cache regardless of `options.cache`. Does NOT serialize
  // table access: callers running concurrently must hold the server's
  // shared data lock (DESIGN.md §13).
  StatusOr<QueryResult> ExecuteWith(const std::string& sql,
                                    const QueryOptions& options,
                                    cache::PlanCache* plan_cache,
                                    cache::ResultCache* result_cache);

  // The plan-cache key of `batch` under `options`: its fingerprint (which
  // assigns each parameterized literal its slot in place) plus the
  // optimizer settings that change plan choice.
  static cache::BatchFingerprint PlanCacheKey(
      const std::vector<sql::AstSelectPtr>& batch, const QueryOptions& options);

  // Renders a result table ("col | col | ..." plus rows) for examples.
  static std::string FormatResult(const StatementResult& result,
                                  const std::vector<std::string>& columns,
                                  int max_rows = 20);

  // Owned caches, created lazily on the first Execute() that enables them
  // (nullptr until then). Exposed for tests and maintenance hooks.
  cache::PlanCache* plan_cache() { return plan_cache_.get(); }
  cache::ResultCache* result_cache() { return result_cache_.get(); }

 private:
  Catalog catalog_;
  std::unique_ptr<cache::PlanCache> plan_cache_;
  std::unique_ptr<cache::ResultCache> result_cache_;
};

}  // namespace subshare

#endif  // SUBSHARE_API_DATABASE_H_

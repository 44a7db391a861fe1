// Cache-mode differential checker (DESIGN.md §9).
//
// Exercises the cross-batch plan cache and CSE result recycler through the
// Database facade: each SQL batch is executed as
//
//     naive reference | CSE without caches | CSE with caches, twice
//
// and every configuration must produce the same result multisets. The
// second cached run must be a plan-cache hit (the catalog did not change in
// between). Then a random row is inserted into a base table — preferring
// one the batch reads — and the naive reference and the cached run are
// re-executed: a stale plan or recycled spool served across the version
// bump shows up as a result mismatch against the fresh reference.
#ifndef SUBSHARE_TESTING_CACHE_DIFFERENTIAL_H_
#define SUBSHARE_TESTING_CACHE_DIFFERENTIAL_H_

#include <optional>
#include <string>

#include "api/database.h"
#include "testing/differential.h"
#include "util/rng.h"

namespace subshare::testing {

// SameRowMultiset (testing/differential.h) over two executions' results,
// statement by statement. Used by the cache-mode checker and the
// multi-session checker (testing/multi_session.h).
bool SameResults(const QueryResult& a, const QueryResult& b,
                 std::string* why);

// Largest "rows=N" operator estimate in a rendered plan text; the
// pre-screen bound on how much work a differential run of a batch can take.
int64_t MaxEstimatedRows(const std::string& plan_text);

struct CacheDiffOptions {
  CseOptimizerOptions cse;  // options for the CSE configurations
  int64_t result_budget_bytes = cache::ResultCache::kDefaultBudgetBytes;
  // Probability the interleaved insert targets a table the batch reads
  // (otherwise any base table: the no-false-invalidation direction).
  double insert_hits_read_table = 0.7;
  // Batches whose naive plan estimates more rows than this at any operator
  // are skipped: the checker executes each batch seven times, and the
  // generator occasionally emits low-selectivity joins whose ~10^6-row
  // results make a differential run take minutes instead of milliseconds.
  int64_t max_estimated_rows = 200'000;
};

class CacheDifferentialTester {
 public:
  // `db` must outlive the tester; its tables are mutated by the interleaved
  // inserts, and its caches are turned on by the cached configurations.
  CacheDifferentialTester(Database* db, uint64_t seed,
                          CacheDiffOptions options = {});

  // Cross-checks one SQL batch under all configurations. std::nullopt
  // means every configuration agrees before and after the insert (or the
  // batch fails to bind, which cannot diverge).
  std::optional<Divergence> Check(const std::string& sql);

  int64_t batches_checked() const { return batches_checked_; }
  int64_t statements_checked() const { return statements_checked_; }
  // Warm runs that hit the plan cache / recycled >= 1 spool.
  int64_t plan_hits_seen() const { return plan_hits_seen_; }
  int64_t recycled_runs_seen() const { return recycled_runs_seen_; }
  // Batches rejected by the max_estimated_rows pre-screen.
  int64_t batches_skipped() const { return batches_skipped_; }

 private:
  Database* db_;
  CacheDiffOptions options_;
  Rng rng_;
  int64_t batches_checked_ = 0;
  int64_t statements_checked_ = 0;
  int64_t plan_hits_seen_ = 0;
  int64_t recycled_runs_seen_ = 0;
  int64_t batches_skipped_ = 0;
};

}  // namespace subshare::testing

#endif  // SUBSHARE_TESTING_CACHE_DIFFERENTIAL_H_

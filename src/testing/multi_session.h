// Multi-session interleaved differential fuzz mode (DESIGN.md §13).
//
// K session threads share one Server (one plan cache, one CSE result
// recycler, one data lock) and hammer it with generated query batches while
// randomly appending rows to base tables — every append is a version bump
// racing the other sessions' cache probes, admissions, and recycled-spool
// scans. Each batch is checked differentially: the session runs
//
//     naive reference | CSE through the shared caches | cached again (warm)
//
// under ONE shared data-lock hold (Session::ExecuteAtomic), so all three
// observe the same frozen table state even with concurrent appenders, and
// the result multisets must agree. Sessions are paired on generator seeds
// (sessions 2k and 2k+1 replay the same batch sequence) so cross-session
// plan-cache hits and spool recycling are exercised, not just per-session
// warm repeats.
//
// Everything except thread interleaving is deterministic in (catalog
// contents, seed); divergence checking is interleaving-independent because
// each check is a snapshot. Run under ThreadSanitizer to catch races the
// differential check cannot see.
#ifndef SUBSHARE_TESTING_MULTI_SESSION_H_
#define SUBSHARE_TESTING_MULTI_SESSION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "api/database.h"
#include "server/server.h"

namespace subshare::testing {

struct MultiSessionOptions {
  int sessions = 4;             // concurrent session threads
  int batches_per_session = 25;
  uint64_t seed = 1;
  // Per-batch probability that the session appends a (pre-sampled) row to a
  // random base table after its differential check — the concurrent
  // version-bump traffic.
  double append_prob = 0.25;
  // Batches whose naive plan estimates more rows than this at any operator
  // are pre-screened out (see CacheDiffOptions::max_estimated_rows).
  int64_t max_estimated_rows = 200'000;
  int64_t result_budget_bytes = cache::ResultCache::kDefaultBudgetBytes;
  int progress_every = 0;  // print progress every N checked batches; 0: quiet
  int max_reports = 5;     // divergence descriptions kept in the report
};

struct MultiSessionReport {
  int64_t batches_checked = 0;
  int64_t statements_checked = 0;
  int64_t batches_skipped = 0;  // pre-screened as too large
  int64_t bind_failures = 0;    // batch fails under naive too: cannot diverge
  int64_t divergences = 0;
  int64_t appends = 0;
  server::ServerStats server;   // final shared-cache counters
  std::vector<std::string> reports;  // first max_reports divergences
};

// Runs the fuzz against `db` (must hold loaded TPC-H; mutated by the
// appends). Builds a Server over it internally. Returns the aggregate
// report; divergences == 0 is the pass condition.
MultiSessionReport RunMultiSessionFuzz(Database* db,
                                       const MultiSessionOptions& options = {});

// Renders a one-paragraph summary of the report (for fuzz_main / tests).
std::string MultiSessionSummary(const MultiSessionReport& report);

}  // namespace subshare::testing

#endif  // SUBSHARE_TESTING_MULTI_SESSION_H_

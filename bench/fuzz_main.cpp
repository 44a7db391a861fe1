// Standalone differential fuzzer for long runs.
//
//   fuzz_main [--seed=N] [--batches=N] [--sf=X] [--stop-on-first] [--cache]
//             [--sessions=K]
//
// Generates `batches` random query batches (testing/query_gen.h), one
// generator per seed in [seed, seed+batches), and cross-checks each CSE
// plan against the naive reference plan (testing/differential.h). A failing batch is shrunk
// and reported with its seed, so `--seed=<that seed> --batches=1` reproduces
// it exactly. Exits nonzero when any divergence was found.
//
// With --cache (or SUBSHARE_FUZZ_CACHE=1), runs the cache-mode checker
// instead (testing/cache_differential.h): each batch is replayed through
// the plan cache and CSE result recycler with interleaved random inserts,
// cross-checked against the naive reference — any stale plan-cache variant
// or recycled spool served across a version bump diverges.
//
// With --sessions=K (K > 0), runs the multi-session checker instead
// (testing/multi_session.h): K concurrent session threads share one
// server's plan cache and result recycler while randomly appending rows;
// --batches is the total across sessions. Run the ThreadSanitizer build of this mode to catch races the differential check
// cannot see.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "api/database.h"
#include "catalog/catalog.h"
#include "testing/cache_differential.h"
#include "testing/differential.h"
#include "testing/multi_session.h"
#include "testing/query_gen.h"
#include "tpch/tpch.h"
#include "util/check.h"

using subshare::Catalog;
using subshare::Database;
using subshare::testing::BatchSpec;
using subshare::testing::CacheDifferentialTester;
using subshare::testing::DifferentialTester;
using subshare::testing::Divergence;
using subshare::testing::QueryGenerator;

namespace {

int RunCacheMode(uint64_t seed, int batches, double sf) {
  Database db;
  CHECK(db.LoadTpch(sf).ok());
  std::printf("fuzz (cache mode): sf=%g seeds=[%llu, %llu)\n", sf,
              static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(seed + batches));

  CacheDifferentialTester tester(&db, seed);
  int divergences = 0;
  for (int i = 0; i < batches; ++i) {
    uint64_t batch_seed = seed + static_cast<uint64_t>(i);
    QueryGenerator gen(&db.catalog(), batch_seed);
    if (auto d = tester.Check(subshare::testing::ToSql(gen.NextBatch()));
        d.has_value()) {
      ++divergences;
      std::printf("=== divergence at seed %llu ===\n%s\n",
                  static_cast<unsigned long long>(batch_seed),
                  d->ToString().c_str());
    }
    if ((i + 1) % 100 == 0) {
      std::printf("  %d/%d batches, %lld statements, %d divergences\n", i + 1,
                  batches,
                  static_cast<long long>(tester.statements_checked()),
                  divergences);
      std::fflush(stdout);
    }
  }
  std::printf(
      "fuzz (cache mode): %lld batches (%lld skipped as too large), "
      "%lld statements, %lld plan hits, %lld recycled runs, %d divergences\n",
      static_cast<long long>(tester.batches_checked()),
      static_cast<long long>(tester.batches_skipped()),
      static_cast<long long>(tester.statements_checked()),
      static_cast<long long>(tester.plan_hits_seen()),
      static_cast<long long>(tester.recycled_runs_seen()), divergences);
  return divergences == 0 ? 0 : 1;
}

int RunMultiSessionMode(uint64_t seed, int batches, double sf, int sessions) {
  Database db;
  CHECK(db.LoadTpch(sf).ok());
  subshare::testing::MultiSessionOptions options;
  options.sessions = sessions;
  options.batches_per_session = std::max(1, (batches + sessions - 1) / sessions);
  options.seed = seed;
  options.progress_every = 50;
  std::printf("fuzz (multi-session): sf=%g sessions=%d batches/session=%d "
              "seed=%llu\n",
              sf, sessions, options.batches_per_session,
              static_cast<unsigned long long>(seed));
  subshare::testing::MultiSessionReport report =
      subshare::testing::RunMultiSessionFuzz(&db, options);
  std::printf("fuzz (multi-session): %s\n",
              subshare::testing::MultiSessionSummary(report).c_str());
  for (const std::string& r : report.reports) {
    std::printf("=== divergence ===\n%s\n", r.c_str());
  }
  return report.divergences == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t seed = 1;
  int batches = 2000;
  double sf = 0.002;
  bool stop_on_first = false;
  bool cache_mode = false;
  int sessions = 0;
  if (const char* env = std::getenv("SUBSHARE_SF")) sf = std::atof(env);
  if (const char* env = std::getenv("SUBSHARE_FUZZ_CACHE")) {
    cache_mode = std::atoi(env) != 0;
  }
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--seed=", 7) == 0) {
      seed = std::strtoull(argv[i] + 7, nullptr, 10);
    } else if (std::strncmp(argv[i], "--batches=", 10) == 0) {
      batches = std::atoi(argv[i] + 10);
    } else if (std::strncmp(argv[i], "--sf=", 5) == 0) {
      sf = std::atof(argv[i] + 5);
    } else if (std::strncmp(argv[i], "--sessions=", 11) == 0) {
      sessions = std::atoi(argv[i] + 11);
    } else if (std::strcmp(argv[i], "--stop-on-first") == 0) {
      stop_on_first = true;
    } else if (std::strcmp(argv[i], "--cache") == 0) {
      cache_mode = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 2;
    }
  }

  if (sessions > 0) return RunMultiSessionMode(seed, batches, sf, sessions);
  if (cache_mode) return RunCacheMode(seed, batches, sf);

  Catalog catalog;
  subshare::tpch::TpchOptions tpch;
  tpch.scale_factor = sf;
  CHECK(subshare::tpch::LoadTpch(&catalog, tpch).ok());
  std::printf("fuzz: sf=%g seeds=[%llu, %llu)\n", sf,
              static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(seed + batches));

  DifferentialTester tester(&catalog);
  int divergences = 0;
  for (int i = 0; i < batches; ++i) {
    uint64_t batch_seed = seed + static_cast<uint64_t>(i);
    QueryGenerator gen(&catalog, batch_seed);
    BatchSpec batch = gen.NextBatch();
    batch.seed = batch_seed;
    if (auto d = tester.CheckBatch(batch); d.has_value()) {
      ++divergences;
      std::printf("=== divergence at seed %llu ===\n%s\n",
                  static_cast<unsigned long long>(batch_seed),
                  d->ToString().c_str());
      if (stop_on_first) break;
    }
    if ((i + 1) % 100 == 0) {
      std::printf("  %d/%d batches, %lld statements, %d divergences\n", i + 1,
                  batches,
                  static_cast<long long>(tester.statements_checked()),
                  divergences);
      std::fflush(stdout);
    }
  }
  std::printf("fuzz: %lld batches, %lld statements, %d divergences\n",
              static_cast<long long>(tester.batches_checked()),
              static_cast<long long>(tester.statements_checked()),
              divergences);
  return divergences == 0 ? 0 : 1;
}

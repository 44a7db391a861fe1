#include "testing/multi_session.h"

#include <atomic>
#include <cstdio>
#include <mutex>
#include <thread>
#include <utility>

#include "testing/cache_differential.h"
#include "testing/query_gen.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace subshare::testing {

namespace {

// One pre-sampled appendable row. Rows are sampled single-threaded before
// the session threads start: the query generator and Table::GetRow read
// table contents without the server's data lock, so neither may run
// concurrently with appends.
struct AppendSample {
  std::string table;
  Row row;
};

struct ThreadReport {
  int64_t batches_checked = 0;
  int64_t statements_checked = 0;
  int64_t bind_failures = 0;
  int64_t divergences = 0;
  int64_t appends = 0;
  std::vector<std::string> reports;
};

}  // namespace

MultiSessionReport RunMultiSessionFuzz(Database* db,
                                       const MultiSessionOptions& options) {
  MultiSessionReport report;

  // Phase 1 (single-threaded): generate and pre-screen every batch. Sessions
  // 2k and 2k+1 share one seed range, so they replay the same SQL sequence
  // and the second one to reach a shape hits the plan cache the first
  // admitted — the cross-session sharing path under test.
  const int pair_groups = (options.sessions + 1) / 2;
  std::vector<std::vector<std::string>> group_sql(pair_groups);
  QueryOptions screen;
  screen.use_naive_plan = true;
  screen.execute = false;
  for (int g = 0; g < pair_groups; ++g) {
    for (int i = 0; i < options.batches_per_session; ++i) {
      uint64_t batch_seed = options.seed +
                            static_cast<uint64_t>(g) *
                                static_cast<uint64_t>(options.batches_per_session) +
                            static_cast<uint64_t>(i);
      QueryGenerator gen(&db->catalog(), batch_seed);
      std::string sql = ToSql(gen.NextBatch());
      auto plan_only = db->Execute(sql, screen);
      if (plan_only.ok() &&
          MaxEstimatedRows(plan_only->plan_text) > options.max_estimated_rows) {
        ++report.batches_skipped;
        continue;
      }
      group_sql[g].push_back(std::move(sql));
    }
  }

  // Pre-sample append payloads (duplicated live rows, so they are
  // type-correct by construction).
  std::vector<AppendSample> pool;
  {
    Rng rng(options.seed ^ 0xA99E5D1Cull);
    for (const auto& t : db->catalog().tables()) {
      if (t == nullptr || t->row_count() == 0 ||
          db->catalog().IsDeltaTable(t->id())) {
        continue;
      }
      for (int k = 0; k < 8; ++k) {
        pool.push_back(
            {t->name(), t->GetRow(rng.Uniform(0, t->row_count() - 1))});
      }
    }
  }

  // Phase 2: the concurrent part.
  server::ServerOptions server_options;
  server_options.result_budget_bytes = options.result_budget_bytes;
  server::Server server(db, server_options);

  QueryOptions naive;
  naive.use_naive_plan = true;
  QueryOptions cached;
  cached.cache.plan_cache = true;
  cached.cache.result_cache = true;

  std::atomic<int64_t> progress{0};
  std::vector<ThreadReport> thread_reports(options.sessions);
  std::vector<std::thread> threads;
  threads.reserve(options.sessions);
  for (int t = 0; t < options.sessions; ++t) {
    threads.emplace_back([&, t] {
      ThreadReport& tr = thread_reports[t];
      auto session = server.Connect(StrFormat("fuzz-%d", t));
      Rng rng(options.seed ^ (0x9E3779B97F4A7C15ull * (t + 1)));
      for (const std::string& sql : group_sql[t / 2]) {
        auto runs = session->ExecuteAtomic(
            {{sql, naive}, {sql, cached}, {sql, cached}});
        if (!runs.ok()) {
          // Distinguish "the batch cannot bind" (expected for some generated
          // shapes; cannot diverge) from "only the cached run fails".
          if (session->Execute(sql, naive).ok()) {
            ++tr.divergences;
            if (static_cast<int>(tr.reports.size()) < options.max_reports) {
              tr.reports.push_back(
                  StrFormat("[session %d] cached run failed, naive ran: %s\n%s",
                            t, runs.status().ToString().c_str(), sql.c_str()));
            }
          } else {
            ++tr.bind_failures;
          }
          continue;
        }
        ++tr.batches_checked;
        tr.statements_checked +=
            static_cast<int64_t>((*runs)[0].statements.size());
        const char* names[] = {"cached-cold", "cached-warm"};
        for (int cfg = 1; cfg <= 2; ++cfg) {
          std::string why;
          if (!SameResults((*runs)[0], (*runs)[cfg], &why)) {
            ++tr.divergences;
            if (static_cast<int>(tr.reports.size()) < options.max_reports) {
              tr.reports.push_back(
                  StrFormat("[session %d] naive vs %s: %s\n%s", t,
                            names[cfg - 1], why.c_str(), sql.c_str()));
            }
          }
        }
        if (!pool.empty() && rng.NextDouble() < options.append_prob) {
          const AppendSample& s = pool[rng.Uniform(0, pool.size() - 1)];
          if (session->Append(s.table, {s.row}).ok()) ++tr.appends;
        }
        int64_t done = progress.fetch_add(1, std::memory_order_relaxed) + 1;
        if (options.progress_every > 0 && done % options.progress_every == 0) {
          std::printf("  %lld batches checked\n",
                      static_cast<long long>(done));
          std::fflush(stdout);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();

  for (const ThreadReport& tr : thread_reports) {
    report.batches_checked += tr.batches_checked;
    report.statements_checked += tr.statements_checked;
    report.bind_failures += tr.bind_failures;
    report.divergences += tr.divergences;
    report.appends += tr.appends;
    for (const std::string& r : tr.reports) {
      if (static_cast<int>(report.reports.size()) < options.max_reports) {
        report.reports.push_back(r);
      }
    }
  }
  report.server = server.stats();
  return report;
}

std::string MultiSessionSummary(const MultiSessionReport& r) {
  return StrFormat(
      "%lld batches checked (%lld skipped as too large, %lld bind failures), "
      "%lld statements, %lld appends; shared caches: %lld plan hits "
      "(%lld rebinds), %lld spools recycled, %lld admitted; "
      "%lld divergences",
      static_cast<long long>(r.batches_checked),
      static_cast<long long>(r.batches_skipped),
      static_cast<long long>(r.bind_failures),
      static_cast<long long>(r.statements_checked),
      static_cast<long long>(r.appends),
      static_cast<long long>(r.server.plan_hits),
      static_cast<long long>(r.server.plan_rebinds),
      static_cast<long long>(r.server.spools_recycled),
      static_cast<long long>(r.server.spools_admitted),
      static_cast<long long>(r.divergences));
}

}  // namespace subshare::testing

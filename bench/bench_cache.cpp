// Cross-batch cache benchmark: repeated batches through the plan cache and
// CSE result recycler vs. re-planning from scratch every time.
//
// Emits BENCH_cache.json:
//   {"bench":"cache","scale_factor":...,
//    "workloads":[{"name":...,"nocache_ms":...,"cold_ms":...,"warm_ms":...,
//                  "warm_speedup":...,"plan_hit":0|1,"rebound":0|1,
//                  "spools_recycled":...},...]}
// Warm runs are checked to produce the same result multiset as uncached
// runs before timings are reported. Exits nonzero when the warm run of the
// shared-CSE batch fails to beat re-planning by the tracked bar.
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "bench_common.h"

namespace subshare::bench {
namespace {

constexpr double kWarmSpeedupBar = 1.25;

struct WorkloadResult {
  std::string name;
  double nocache_ms = 0;  // caches disabled, full pipeline every run
  double cold_ms = 0;     // caches on but cleared: pipeline + admissions
  double warm_ms = 0;     // caches primed: hit + rebind/recycle only
  bool plan_hit = false;
  bool rebound = false;
  int64_t spools_recycled = 0;
  double warm_speedup() const {
    return warm_ms > 0 ? nocache_ms / warm_ms : 0;
  }
};

std::multiset<std::string> ResultSet(const QueryResult& r) {
  std::multiset<std::string> out;
  for (const StatementResult& stmt : r.statements) {
    for (const Row& row : stmt.rows) {
      std::string s;
      for (const Value& v : row) s += v.ToString() + "|";
      out.insert(std::move(s));
    }
  }
  return out;
}

double TimedExecute(Database* db, const std::string& sql,
                    const QueryOptions& options, QueryResult* last) {
  WallTimer timer;
  StatusOr<QueryResult> result = db->Execute(sql, options);
  double ms = timer.ElapsedSeconds() * 1e3;
  CHECK(result.ok()) << result.status().ToString();
  if (last != nullptr) *last = std::move(*result);
  return ms;
}

// `warm_sql`, when different from `sql`, is what the warm repeats execute —
// same statement shape, new literals — so the warm path is a rebind hit.
WorkloadResult RunWorkload(Database* db, const std::string& name,
                           const std::string& sql,
                           const std::string& warm_sql, int repeats = 5) {
  QueryOptions plain;
  QueryOptions cached = plain;
  cached.cache.plan_cache = true;
  cached.cache.result_cache = true;

  WorkloadResult r;
  r.name = name;
  QueryResult nocache_result, warm_result;
  // Interleave configurations so machine-wide slow periods inflate all
  // three measurements instead of skewing the ratios; keep best-of-N.
  for (int i = 0; i < repeats; ++i) {
    double nocache = TimedExecute(db, warm_sql, plain, &nocache_result);
    // Cold: empty caches, full pipeline plus fingerprint + admissions.
    // (The Database creates the caches lazily on the first cached run.)
    if (db->plan_cache() != nullptr) db->plan_cache()->Clear();
    if (db->result_cache() != nullptr) db->result_cache()->Clear();
    double cold = TimedExecute(db, sql, cached, nullptr);
    // Warm: the caches were just primed by the cold run.
    double warm = TimedExecute(db, warm_sql, cached, &warm_result);
    if (i == 0 || nocache < r.nocache_ms) r.nocache_ms = nocache;
    if (i == 0 || cold < r.cold_ms) r.cold_ms = cold;
    if (i == 0 || warm < r.warm_ms) r.warm_ms = warm;
  }
  r.plan_hit = warm_result.cache.plan_cache_hit;
  r.rebound = warm_result.cache.plan_rebound;
  r.spools_recycled = warm_result.cache.spools_recycled;
  CHECK(r.plan_hit) << name << ": warm run missed the plan cache";
  CHECK(ResultSet(nocache_result) == ResultSet(warm_result))
      << name << ": warm cached results diverge from uncached execution";
  std::printf("%-16s nocache %8.2f ms   cold %8.2f ms   warm %8.2f ms   "
              "speedup %5.2fx   %s%s%lld spool(s) recycled\n",
              name.c_str(), r.nocache_ms, r.cold_ms, r.warm_ms,
              r.warm_speedup(), r.plan_hit ? "plan-hit " : "",
              r.rebound ? "rebound " : "",
              static_cast<long long>(r.spools_recycled));
  return r;
}

int Main() {
  double sf = ScaleFactor();
  std::printf("== bench_cache: cross-batch plan cache + result recycler "
              "(SF=%.3f) ==\n",
              sf);
  Database db;
  CHECK(db.LoadTpch(sf).ok());

  std::vector<WorkloadResult> workloads;
  // Headline: the paper's Example 1 batch repeated verbatim — warm runs
  // skip bind/optimize and recycle every spooled CSE.
  workloads.push_back(
      RunWorkload(&db, "shared_batch", Example1Batch(), Example1Batch()));
  // Same statement shape with shifted literals: the warm path is a rebind
  // hit (plan cloned, literals substituted), no re-optimization.
  const std::string scan1 =
      "select c_name, c_acctbal from customer "
      "where c_acctbal > 1000.00 and c_nationkey < 20";
  const std::string scan2 =
      "select c_name, c_acctbal from customer "
      "where c_acctbal > 4500.00 and c_nationkey < 11";
  workloads.push_back(RunWorkload(&db, "rebind_scan", scan1, scan2));

  FILE* f = std::fopen("BENCH_cache.json", "w");
  CHECK(f != nullptr) << "cannot write BENCH_cache.json";
  std::fprintf(f, "{\"bench\":\"cache\",\"scale_factor\":%g,\"workloads\":[",
               sf);
  for (size_t i = 0; i < workloads.size(); ++i) {
    const WorkloadResult& w = workloads[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"nocache_ms\":%.3f,\"cold_ms\":%.3f,"
                 "\"warm_ms\":%.3f,\"warm_speedup\":%.3f,\"plan_hit\":%d,"
                 "\"rebound\":%d,\"spools_recycled\":%lld}",
                 i == 0 ? "" : ",", w.name.c_str(), w.nocache_ms, w.cold_ms,
                 w.warm_ms, w.warm_speedup(), w.plan_hit ? 1 : 0,
                 w.rebound ? 1 : 0,
                 static_cast<long long>(w.spools_recycled));
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
  std::printf("wrote BENCH_cache.json\n");

  // The tracked regression bar: a warm repeat of the shared batch must
  // beat re-planning + re-evaluating from scratch.
  const WorkloadResult& shared = workloads[0];
  if (shared.spools_recycled < 1) {
    std::printf("WARNING: shared_batch recycled no spools\n");
    return 1;
  }
  if (shared.warm_speedup() < kWarmSpeedupBar) {
    std::printf("WARNING: shared_batch warm speedup %.2fx is below the "
                "%.2fx bar\n",
                shared.warm_speedup(), kWarmSpeedupBar);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace subshare::bench

int main() { return subshare::bench::Main(); }

// Optimizer scalability sweep (DESIGN.md §12): synthetic shared-prefix
// batches of 10 -> 1000 statements (testing/shared_prefix.h), optimized
// (never executed). Reports per size the end-to-end Optimize() time, the
// Step-2 candidate-generation time (signatures, join compatibility,
// Algorithm 1 + H1–H4), the Step-3 enumeration time, the candidates kept,
// the interaction components searched, the chosen-set size and the normal
// and final plan costs.
//
// Every core of the family yields a covering CSE (merged group-by +
// predicate hull), and Algorithm 1's merge attempts (quadratic in the
// consumers of a signature) make Step 2 grow with the batch. There is no
// candidate cap below Bitset64 capacity: Step 3 searches each interaction
// component on its own — all subsets up to kFullSubsetBits candidates, the
// greedy loop above — so its time follows the largest component, not 2^N.
//
// Tracked regression bars (exit code 1 on failure):
//   * at 1000 statements, Step 2 takes <= 1 s;
//   * at every size, Step 3 is not cut short by max_optimizations.
//
// Writes BENCH_mqo_scale.json (latest run) and appends one line to
// BENCH_mqo_scale_history.jsonl.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <string>
#include <vector>

#include "bench_common.h"
#include "testing/shared_prefix.h"
#include "util/check.h"
#include "util/string_util.h"

namespace subshare::bench {
namespace {

struct SizeResult {
  int statements = 0;
  double optimize_seconds = 0;  // whole Optimize() call
  double generate_seconds = 0;  // Step-2 candidate generation only
  double enum_seconds = 0;      // Step-3 enabled-set search only
  int cse_optimizations = 0;
  bool capped = false;       // hit max_optimizations
  int candidates = 0;        // kept after Heuristic 4
  int components = 0;        // interaction components
  int largest_component = 0;
  int chosen = 0;            // CSEs in the final plan
  double normal_cost = 0;
  double final_cost = 0;
};

SizeResult RunSize(Database* db, int statements) {
  QueryOptions options;
  options.execute = false;
  // High enough that Step 3 is never cut short on this family (the
  // not-capped bar checks it).
  options.cse.max_optimizations = 1 << 14;

  StatusOr<QueryResult> run =
      db->Execute(testing::SharedPrefixBatch(statements), options);
  CHECK(run.ok()) << run.status().ToString();

  SizeResult r;
  r.statements = statements;
  r.optimize_seconds = run->metrics.optimize_seconds;
  r.generate_seconds = run->metrics.generate_seconds;
  r.enum_seconds = run->metrics.enumerate_seconds;
  r.cse_optimizations = run->metrics.cse_optimizations;
  r.capped = run->metrics.trace.enumeration_capped;
  r.candidates = run->metrics.candidates_after_pruning;
  r.components = static_cast<int>(run->metrics.trace.components.size());
  for (const OptTrace::Component& c : run->metrics.trace.components) {
    r.largest_component =
        std::max(r.largest_component, __builtin_popcountll(c.members));
  }
  r.chosen = run->metrics.used_cses;
  r.normal_cost = run->metrics.normal_cost;
  r.final_cost = run->metrics.final_cost;
  return r;
}

}  // namespace
}  // namespace subshare::bench

int main() {
  using namespace subshare;
  using namespace subshare::bench;

  double sf = ScaleFactor(0.005);  // optimize-only: data sets stats, not time
  int max_size = 1000;
  if (const char* env = std::getenv("SUBSHARE_MQO_MAX"); env != nullptr) {
    if (int v = std::atoi(env); v > 0) max_size = v;
  }

  std::printf("== bench_mqo_scale: optimizer scaling (SF=%.3f, %d cores) ==\n",
              sf, testing::kSharedPrefixCores);
  Database db;
  CHECK(db.LoadTpch(sf).ok());

  std::printf("\n%10s %10s %10s %10s %8s %6s %6s %6s %14s %14s\n",
              "statements", "opt(s)", "step2(s)", "enum(s)", "[Opt]", "cands",
              "comps", "chosen", "normal cost", "final cost");
  std::vector<SizeResult> results;
  for (int n : {10, 25, 50, 100, 250, 1000}) {
    if (n > max_size) break;
    SizeResult r = RunSize(&db, n);
    std::string comps =
        r.components > 0 ? StrFormat("%d/%d", r.components, r.largest_component)
                         : "-";
    std::printf("%10d %10.4f %10.4f %10.4f %8d %6d %6s %6d %14.2f %14.2f%s\n",
                n, r.optimize_seconds, r.generate_seconds, r.enum_seconds,
                r.cse_optimizations, r.candidates, comps.c_str(), r.chosen,
                r.normal_cost, r.final_cost, r.capped ? "  [capped]" : "");
    results.push_back(r);
  }

  // Gate 1: Step 2 at 1000 statements <= 1 s.
  constexpr int kStep2Statements = 1000;
  constexpr double kStep2Bar = 1.0;
  double step2_at_bar = -1;  // -1: the sweep stopped below 1000 statements
  // Gate 2: Step 3 is never capped.
  int capped_sizes = 0;
  for (const SizeResult& r : results) {
    if (r.statements == kStep2Statements) step2_at_bar = r.generate_seconds;
    if (r.capped) ++capped_sizes;
  }

  if (step2_at_bar >= 0) {
    std::printf("\nstep 2 at %d statements: %.4fs (bar %.1fs)\n",
                kStep2Statements, step2_at_bar, kStep2Bar);
  }
  std::printf("step 3: capped at %d size(s) (bar: 0)\n", capped_sizes);

  std::string json = StrFormat(
      "{\"bench\":\"mqo_scale\",\"schema_version\":4,\"timestamp\":%lld,"
      "\"scale_factor\":%g,\"cores\":%d,\"sizes\":[",
      static_cast<long long>(std::time(nullptr)), sf,
      testing::kSharedPrefixCores);
  for (size_t i = 0; i < results.size(); ++i) {
    const SizeResult& r = results[i];
    json += StrFormat(
        "%s{\"statements\":%d,\"optimize_seconds\":%.6f,"
        "\"generate_seconds\":%.6f,\"enum_seconds\":%.6f,"
        "\"cse_optimizations\":%d,\"capped\":%s,\"candidates\":%d,"
        "\"components\":%d,\"largest_component\":%d,\"chosen\":%d,"
        "\"normal_cost\":%.2f,\"final_cost\":%.2f}",
        i == 0 ? "" : ",", r.statements, r.optimize_seconds,
        r.generate_seconds, r.enum_seconds, r.cse_optimizations,
        r.capped ? "true" : "false", r.candidates, r.components,
        r.largest_component, r.chosen, r.normal_cost, r.final_cost);
  }
  json += StrFormat(
      "],\"gates\":{\"step2_bar_seconds\":%.1f,"
      "\"step2_seconds_at_1000\":%.6f,\"capped_sizes\":%d}}",
      kStep2Bar, step2_at_bar, capped_sizes);

  FILE* f = std::fopen("BENCH_mqo_scale.json", "w");
  CHECK(f != nullptr) << "cannot write BENCH_mqo_scale.json";
  std::fprintf(f, "%s\n", json.c_str());
  std::fclose(f);
  FILE* h = std::fopen("BENCH_mqo_scale_history.jsonl", "a");
  CHECK(h != nullptr) << "cannot append BENCH_mqo_scale_history.jsonl";
  std::fprintf(h, "%s\n", json.c_str());
  std::fclose(h);
  std::printf("wrote BENCH_mqo_scale.json (+ BENCH_mqo_scale_history.jsonl)\n");

  int rc = 0;
  if (step2_at_bar > kStep2Bar) {
    std::printf("WARNING: Step 2 takes %.2fs at %d statements, above the "
                "%.1fs bar\n",
                step2_at_bar, kStep2Statements, kStep2Bar);
    rc = 1;
  }
  if (capped_sizes > 0) {
    std::printf("WARNING: Step 3 hit max_optimizations at %d size(s)\n",
                capped_sizes);
    rc = 1;
  }
  return rc;
}

// Optimizer scalability sweep (DESIGN.md §12): synthetic shared-prefix
// batches of 10 -> 1000 statements (testing/shared_prefix.h), optimized
// (never executed) under each EnumerationStrategy. Reports per strategy and
// size the end-to-end Optimize() time, the Step-2 candidate-generation time
// (signatures, join compatibility, Algorithm 1 + H1–H4), the Step-3
// enumeration time, the candidates kept, the interaction components the
// exhaustive strategy searched, the chosen-set size and the final plan cost.
//
// Every core of the family yields a covering CSE (merged group-by +
// predicate hull), and Algorithm 1's merge attempts (quadratic in the
// consumers of a signature) make Step 2 grow with the batch. There is no
// candidate cap below Bitset64 capacity: exhaustive searches each
// interaction component on its own — all subsets up to kFullSubsetBits
// candidates, the greedy loop above — so its Step-3 time follows the
// largest component, not 2^N.
//
// Tracked regression bars (exit code 1 on failure):
//   * at 1000 statements, Step 2 takes <= 1 s under exhaustive;
//   * at every size, exhaustive is not cut short by max_optimizations and
//     its final plan cost is <= greedy's (exact search of small components
//     plus the same greedy loop on large ones);
//   * at every size, each strategy's final plan cost is within 25% of
//     exhaustive's.
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

struct StrategyResult {
  std::string name;
  double optimize_seconds = 0;  // whole Optimize() call
  double generate_seconds = 0;  // Step-2 candidate generation only
  double enum_seconds = 0;      // Step-3 enabled-set search only
  int cse_optimizations = 0;
  bool capped = false;       // hit max_optimizations
  int candidates = 0;        // kept after Heuristic 4
  int components = 0;        // interaction components (exhaustive only)
  int largest_component = 0;
  int chosen = 0;            // CSEs in the final plan
  double normal_cost = 0;
  double final_cost = 0;
};

StrategyResult RunStrategy(Database* db, const std::string& batch,
                           EnumerationStrategy strategy) {
  QueryOptions options;
  options.execute = false;
  options.cse.strategy = strategy;
  // High enough that no strategy is cut short on this family (the
  // not-capped bar checks it for exhaustive).
  options.cse.max_optimizations = 1 << 14;

  StatusOr<QueryResult> run = db->Execute(batch, options);
  CHECK(run.ok()) << run.status().ToString();

  StrategyResult r;
  r.name = EnumerationStrategyName(strategy);
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

  const EnumerationStrategy kStrategies[] = {EnumerationStrategy::kExhaustive,
                                             EnumerationStrategy::kGreedy,
                                             EnumerationStrategy::kApproximate};
  std::vector<int> sizes;
  for (int s : {10, 25, 50, 100, 250, 1000}) {
    if (s <= max_size) sizes.push_back(s);
  }

  struct SizeResult {
    int statements = 0;
    std::vector<StrategyResult> runs;  // exhaustive, greedy, approximate
  };
  std::vector<SizeResult> results;

  std::printf("\n%10s %-12s %10s %10s %10s %8s %6s %6s %6s %14s\n",
              "statements", "strategy", "opt(s)", "step2(s)", "enum(s)",
              "[Opt]", "cands", "comps", "chosen", "final cost");
  for (int n : sizes) {
    std::string batch = testing::SharedPrefixBatch(n);
    SizeResult sr;
    sr.statements = n;
    for (EnumerationStrategy strategy : kStrategies) {
      StrategyResult r = RunStrategy(&db, batch, strategy);
      std::string comps =
          r.components > 0
              ? StrFormat("%d/%d", r.components, r.largest_component)
              : "-";
      std::printf("%10d %-12s %10.4f %10.4f %10.4f %8d %6d %6s %6d %14.2f%s\n",
                  n, r.name.c_str(), r.optimize_seconds, r.generate_seconds,
                  r.enum_seconds, r.cse_optimizations, r.candidates,
                  comps.c_str(), r.chosen, r.final_cost,
                  r.capped ? "  [capped]" : "");
      sr.runs.push_back(std::move(r));
    }
    results.push_back(std::move(sr));
  }

  // Gate 1: Step 2 at 1000 statements <= 1 s under exhaustive.
  constexpr int kStep2Statements = 1000;
  constexpr double kStep2Bar = 1.0;
  double step2_at_bar = -1;  // -1: the sweep stopped below 1000 statements
  for (const SizeResult& sr : results) {
    if (sr.statements == kStep2Statements) {
      step2_at_bar = sr.runs[0].generate_seconds;
    }
  }

  // Gate 2: exhaustive is never capped and never costlier than greedy.
  // Gate 3: each strategy's final cost within 25% of exhaustive's.
  int exhaustive_capped = 0;
  int exhaustive_above_greedy = 0;
  double worst_ratio_greedy = 1.0, worst_ratio_approx = 1.0;
  for (const SizeResult& sr : results) {
    const StrategyResult& ex = sr.runs[0];
    if (ex.capped) ++exhaustive_capped;
    if (ex.final_cost > sr.runs[1].final_cost * (1 + 1e-9)) {
      ++exhaustive_above_greedy;
    }
    if (ex.final_cost <= 0) continue;
    worst_ratio_greedy =
        std::max(worst_ratio_greedy, sr.runs[1].final_cost / ex.final_cost);
    worst_ratio_approx =
        std::max(worst_ratio_approx, sr.runs[2].final_cost / ex.final_cost);
  }

  if (step2_at_bar >= 0) {
    std::printf("\nstep 2 at %d statements: %.4fs (bar %.1fs)\n",
                kStep2Statements, step2_at_bar, kStep2Bar);
  }
  std::printf("exhaustive: capped at %d size(s), above greedy at %d size(s) "
              "(bar: 0 and 0)\n",
              exhaustive_capped, exhaustive_above_greedy);
  std::printf("greedy:      worst cost ratio vs exhaustive %.3f\n",
              worst_ratio_greedy);
  std::printf("approximate: worst cost ratio vs exhaustive %.3f\n",
              worst_ratio_approx);

  std::string json = StrFormat(
      "{\"bench\":\"mqo_scale\",\"schema_version\":3,\"timestamp\":%lld,"
      "\"scale_factor\":%g,\"cores\":%d,\"sizes\":[",
      static_cast<long long>(std::time(nullptr)), sf,
      testing::kSharedPrefixCores);
  for (size_t i = 0; i < results.size(); ++i) {
    const SizeResult& sr = results[i];
    json += StrFormat("%s{\"statements\":%d,\"strategies\":[",
                      i == 0 ? "" : ",", sr.statements);
    for (size_t j = 0; j < sr.runs.size(); ++j) {
      const StrategyResult& r = sr.runs[j];
      json += StrFormat(
          "%s{\"strategy\":\"%s\",\"optimize_seconds\":%.6f,"
          "\"generate_seconds\":%.6f,\"enum_seconds\":%.6f,"
          "\"cse_optimizations\":%d,\"capped\":%s,\"candidates\":%d,"
          "\"components\":%d,\"largest_component\":%d,\"chosen\":%d,"
          "\"normal_cost\":%.2f,\"final_cost\":%.2f}",
          j == 0 ? "" : ",", r.name.c_str(), r.optimize_seconds,
          r.generate_seconds, r.enum_seconds, r.cse_optimizations,
          r.capped ? "true" : "false", r.candidates, r.components,
          r.largest_component, r.chosen, r.normal_cost, r.final_cost);
    }
    json += "]}";
  }
  json += StrFormat(
      "],\"gates\":{\"step2_bar_seconds\":%.1f,"
      "\"step2_seconds_at_1000\":%.6f,"
      "\"exhaustive_capped_sizes\":%d,"
      "\"exhaustive_above_greedy_sizes\":%d,\"cost_ratio_bar\":1.25,"
      "\"worst_cost_ratio_greedy\":%.4f,\"worst_cost_ratio_approximate\":%.4f}"
      "}",
      kStep2Bar, step2_at_bar, exhaustive_capped, exhaustive_above_greedy,
      worst_ratio_greedy, worst_ratio_approx);

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
  if (exhaustive_capped > 0) {
    std::printf("WARNING: exhaustive hit max_optimizations at %d size(s)\n",
                exhaustive_capped);
    rc = 1;
  }
  if (exhaustive_above_greedy > 0) {
    std::printf("WARNING: exhaustive's final cost exceeds greedy's at %d "
                "size(s)\n",
                exhaustive_above_greedy);
    rc = 1;
  }
  struct CostGate {
    const char* name;
    double ratio;
  };
  for (const CostGate& g :
       {CostGate{"greedy", worst_ratio_greedy},
        CostGate{"approximate", worst_ratio_approx}}) {
    if (g.ratio > 1.25) {
      std::printf("WARNING: %s worst final-cost ratio %.3f exceeds the "
                  "1.25x bar\n",
                  g.name, g.ratio);
      rc = 1;
    }
  }
  return rc;
}

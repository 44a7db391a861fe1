// Optimizer scalability sweep (DESIGN.md §12): synthetic shared-prefix
// batches of 10 -> 1000 statements (testing/shared_prefix.h), optimized
// (never executed) under each EnumerationStrategy. Reports per strategy and
// size the end-to-end Optimize() time, the Step-2 candidate-generation time
// (signatures, join compatibility, Algorithm 1 + H1–H4, cap), the Step-3
// enumeration time, chosen-set size, and final plan cost vs. exhaustive on
// the sizes where exhaustive is feasible.
//
// Every core of the family yields a covering CSE (merged group-by +
// predicate hull) and the candidate pool saturates the max_candidates cap
// as the batch grows — which is what makes §5.3 exhaustive subset
// re-optimization the Step-3 bottleneck the greedy and approximate
// strategies exist to avoid, and Algorithm 1's merge attempts (quadratic in
// the consumers of a signature) the Step-2 one.
//
// Exhaustive runs only while its (linearly) predicted Step-3 time fits the
// wall-clock budget (SUBSHARE_MQO_BUDGET seconds, default 15); beyond that
// its time at the target size is extrapolated linearly from the largest
// feasible run — conservative, since per-optimization cost grows with the
// memo while the subset count is fixed by the candidate cap.
//
// Tracked regression bars (exit code 1 on failure):
//   * at 1000 statements, Step 2 takes <= 1 s under exhaustive (Step 2 is
//     strategy-invariant; if exhaustive was skipped there, the slowest
//     Step 2 among the strategies that ran is gated instead);
//   * at the largest size, greedy and approximate each enumerate >= 10x
//     faster than exhaustive (measured, or the extrapolation above);
//   * on every size where exhaustive completed, each strategy's final plan
//     cost is within 25% of exhaustive's.
//
// Writes BENCH_mqo_scale.json (latest run) and appends one line to
// BENCH_mqo_scale_history.jsonl.
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
  bool ran = false;
  double optimize_seconds = 0;  // whole Optimize() call
  double generate_seconds = 0;  // Step-2 candidate generation only
  double enum_seconds = 0;      // Step-3 enabled-set search only
  int cse_optimizations = 0;
  int candidates = 0;        // after pruning / cap
  int chosen = 0;            // CSEs in the final plan
  double normal_cost = 0;
  double final_cost = 0;
};

StrategyResult RunStrategy(Database* db, const std::string& batch,
                           EnumerationStrategy strategy) {
  QueryOptions options;
  options.execute = false;
  options.cse.strategy = strategy;
  options.cse.max_candidates = 12;
  // High enough that exhaustive is genuinely exhaustive at the candidate
  // cap (2^12 - 1 subsets); the greedy strategies never get close.
  options.cse.max_optimizations = 1 << 14;

  StatusOr<QueryResult> run = db->Execute(batch, options);
  CHECK(run.ok()) << run.status().ToString();

  StrategyResult r;
  r.name = EnumerationStrategyName(strategy);
  r.ran = true;
  r.optimize_seconds = run->metrics.optimize_seconds;
  r.generate_seconds = run->metrics.generate_seconds;
  r.enum_seconds = run->metrics.enumerate_seconds;
  r.cse_optimizations = run->metrics.cse_optimizations;
  r.candidates = run->metrics.candidates_after_pruning;
  r.chosen = run->metrics.used_cses;
  r.normal_cost = run->metrics.normal_cost;
  r.final_cost = run->metrics.final_cost;
  return r;
}

double EnvSeconds(const char* name, double fallback) {
  const char* env = std::getenv(name);
  if (env != nullptr) {
    double v = std::atof(env);
    if (v > 0) return v;
  }
  return fallback;
}

}  // namespace
}  // namespace subshare::bench

int main() {
  using namespace subshare;
  using namespace subshare::bench;

  double sf = ScaleFactor(0.005);  // optimize-only: data sets stats, not time
  double budget = EnvSeconds("SUBSHARE_MQO_BUDGET", 15.0);
  int max_size = static_cast<int>(EnvSeconds("SUBSHARE_MQO_MAX", 1000));

  std::printf("== bench_mqo_scale: optimizer scaling "
              "(SF=%.3f, %d cores, exhaustive budget %.1fs) ==\n",
              sf, testing::kSharedPrefixCores, budget);
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

  // Exhaustive feasibility: run while the linear prediction from the last
  // feasible run fits the budget.
  int ex_largest = 0;
  double ex_largest_enum = 0;
  bool ex_alive = true;

  std::printf("\n%10s %-12s %10s %10s %10s %8s %6s %6s %14s\n",
              "statements", "strategy", "opt(s)", "step2(s)", "enum(s)",
              "[Opt]", "cands", "chosen", "final cost");
  for (int n : sizes) {
    std::string batch = testing::SharedPrefixBatch(n);
    SizeResult sr;
    sr.statements = n;
    for (EnumerationStrategy strategy : kStrategies) {
      if (strategy == EnumerationStrategy::kExhaustive) {
        double predicted =
            ex_largest > 0 ? ex_largest_enum * n / ex_largest : 0;
        if (!ex_alive || predicted > budget) {
          ex_alive = false;
          StrategyResult skipped;
          skipped.name = EnumerationStrategyName(strategy);
          sr.runs.push_back(skipped);
          std::printf("%10d %-12s %10s (predicted %.1fs > %.1fs budget)\n",
                      n, skipped.name.c_str(), "skipped", predicted, budget);
          continue;
        }
      }
      StrategyResult r = RunStrategy(&db, batch, strategy);
      if (strategy == EnumerationStrategy::kExhaustive) {
        ex_largest = n;
        ex_largest_enum = r.enum_seconds;
        if (r.enum_seconds > budget) ex_alive = false;
      }
      std::printf("%10d %-12s %10.4f %10.4f %10.4f %8d %6d %6d %14.2f\n", n,
                  r.name.c_str(), r.optimize_seconds, r.generate_seconds,
                  r.enum_seconds, r.cse_optimizations, r.candidates, r.chosen,
                  r.final_cost);
      sr.runs.push_back(std::move(r));
    }
    results.push_back(std::move(sr));
  }

  // Gate 1: Step 2 at 1000 statements <= 1 s under exhaustive (or, if it
  // was skipped there, the slowest Step 2 among the strategies that ran).
  constexpr int kStep2Statements = 1000;
  constexpr double kStep2Bar = 1.0;
  double step2_at_bar = -1;  // -1: the sweep stopped below 1000 statements
  for (const SizeResult& sr : results) {
    if (sr.statements != kStep2Statements) continue;
    if (sr.runs[0].ran) {
      step2_at_bar = sr.runs[0].generate_seconds;
      continue;
    }
    for (const StrategyResult& r : sr.runs) {
      if (r.ran) step2_at_bar = std::max(step2_at_bar, r.generate_seconds);
    }
  }

  // Gate 2: at the largest size, greedy/approximate Step-3 time >= 10x
  // faster than exhaustive (measured there, or extrapolated linearly from
  // its largest feasible size).
  const SizeResult& last = results.back();
  const StrategyResult& last_ex = last.runs[0];
  double ex_at_max = last_ex.ran
                         ? last_ex.enum_seconds
                         : (ex_largest > 0 ? ex_largest_enum *
                                                 last.statements / ex_largest
                                           : 0);
  CHECK(ex_largest > 0) << "exhaustive never ran; raise SUBSHARE_MQO_BUDGET";
  double greedy_speedup = ex_at_max / std::max(1e-9, last.runs[1].enum_seconds);
  double approx_speedup = ex_at_max / std::max(1e-9, last.runs[2].enum_seconds);

  // Gate 3: wherever exhaustive completed, each strategy's final cost is
  // within 25% of exhaustive's.
  double worst_ratio_greedy = 1.0, worst_ratio_approx = 1.0;
  for (const SizeResult& sr : results) {
    if (!sr.runs[0].ran || sr.runs[0].final_cost <= 0) continue;
    double g = sr.runs[1].final_cost / sr.runs[0].final_cost;
    double a = sr.runs[2].final_cost / sr.runs[0].final_cost;
    worst_ratio_greedy = std::max(worst_ratio_greedy, g);
    worst_ratio_approx = std::max(worst_ratio_approx, a);
  }

  std::printf("\nexhaustive largest feasible size: %d (enum %.4fs)\n",
              ex_largest, ex_largest_enum);
  std::printf("exhaustive enum at %d statements: %.4fs (%s)\n",
              last.statements, ex_at_max,
              last_ex.ran ? "measured" : "extrapolated");
  if (step2_at_bar >= 0) {
    std::printf("step 2 at %d statements: %.4fs (bar %.1fs)\n",
                kStep2Statements, step2_at_bar, kStep2Bar);
  }
  std::printf("greedy:      %.1fx faster, worst cost ratio %.3f\n",
              greedy_speedup, worst_ratio_greedy);
  std::printf("approximate: %.1fx faster, worst cost ratio %.3f\n",
              approx_speedup, worst_ratio_approx);

  std::string json = StrFormat(
      "{\"bench\":\"mqo_scale\",\"schema_version\":2,\"timestamp\":%lld,"
      "\"scale_factor\":%g,\"cores\":%d,\"max_candidates\":12,\"sizes\":[",
      static_cast<long long>(std::time(nullptr)), sf,
      testing::kSharedPrefixCores);
  for (size_t i = 0; i < results.size(); ++i) {
    const SizeResult& sr = results[i];
    json += StrFormat("%s{\"statements\":%d,\"strategies\":[",
                      i == 0 ? "" : ",", sr.statements);
    for (size_t j = 0; j < sr.runs.size(); ++j) {
      const StrategyResult& r = sr.runs[j];
      json += StrFormat(
          "%s{\"strategy\":\"%s\",\"feasible\":%s,"
          "\"optimize_seconds\":%.6f,\"generate_seconds\":%.6f,"
          "\"enum_seconds\":%.6f,\"cse_optimizations\":%d,"
          "\"candidates\":%d,\"chosen\":%d,\"normal_cost\":%.2f,"
          "\"final_cost\":%.2f}",
          j == 0 ? "" : ",", r.name.c_str(), r.ran ? "true" : "false",
          r.optimize_seconds, r.generate_seconds, r.enum_seconds,
          r.cse_optimizations, r.candidates, r.chosen, r.normal_cost,
          r.final_cost);
    }
    json += "]}";
  }
  json += StrFormat(
      "],\"exhaustive_largest_feasible\":%d,"
      "\"exhaustive_enum_seconds_at_max\":%.6f,"
      "\"exhaustive_at_max_measured\":%s,"
      "\"gates\":{\"step2_bar_seconds\":%.1f,"
      "\"step2_seconds_at_1000\":%.6f,"
      "\"speedup_bar\":10.0,\"cost_ratio_bar\":1.25,"
      "\"greedy_speedup\":%.2f,\"approximate_speedup\":%.2f,"
      "\"worst_cost_ratio_greedy\":%.4f,\"worst_cost_ratio_approximate\":%.4f}"
      "}",
      ex_largest, ex_at_max, last_ex.ran ? "true" : "false", kStep2Bar,
      step2_at_bar, greedy_speedup,
      approx_speedup, worst_ratio_greedy, worst_ratio_approx);

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
  struct SpeedGate {
    const char* name;
    double speedup;
  };
  for (const SpeedGate& g : {SpeedGate{"greedy", greedy_speedup},
                             SpeedGate{"approximate", approx_speedup}}) {
    if (g.speedup < 10.0) {
      std::printf("WARNING: %s enumeration speedup %.1fx is below the "
                  "10x bar\n",
                  g.name, g.speedup);
      rc = 1;
    }
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

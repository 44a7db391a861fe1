// Reproduces Table 4 (§6.5, "Complex Joins"): a batch of two queries, each
// joining all eight TPC-H tables and aggregating by region, with different
// local predicates.
//
// Paper (SF=1):
//   # of CSEs [CSE Opt]       N/A      2 [2]      51 [dozens]
//   Optimization time (secs)  2.103    3.802      (higher)
//   Estimated cost            294.57   173.45
//   Execution time (secs)     81.49    48.73
// Shape targets: ~1.7x cost/execution reduction; a few candidates after
// pruning vs tens without.
#include "bench_common.h"

int main() {
  using namespace subshare;
  using namespace subshare::bench;

  Database db;
  double sf = ScaleFactor();
  CHECK(db.LoadTpch(sf).ok());
  printf("bench_table4: two 8-table joins, TPC-H SF=%.3f\n", sf);

  std::string batch = ComplexJoinQuery(0) + "; " + ComplexJoinQuery(1);
  std::vector<ConfigResult> configs;
  configs.push_back(RunConfig(&db, "No CSE", batch, false, true, 2));
  configs.push_back(RunConfig(&db, "Using CSEs", batch, true, true, 2));
  configs.push_back(
      RunConfig(&db, "CSEs (no heuristics)", batch, true, false, 2));
  PrintTable("Table 4: complex joins", configs);

  printf("\nexecution speedup with CSEs: %.2fx (paper: ~1.67x)\n",
         configs[0].execute_seconds /
             std::max(configs[1].execute_seconds, 1e-9));
  printf("cost ratio:                  %.2fx (paper: ~1.70x)\n",
         configs[0].estimated_cost /
             std::max(configs[1].estimated_cost, 1e-9));
  printf("candidates: %d pruned vs %d unpruned (paper: 2 vs 51)\n",
         configs[1].candidates, configs[2].candidates);
  return 0;
}

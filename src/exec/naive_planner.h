// Reference planner: translates a LogicalTree directly into a physical plan
// with no cost-based choices (left-deep joins, each next relation the first
// in FROM order that a predicate connects to those joined: sort-merge on
// equi-join keys, nested loops otherwise; group-by as a stable sort plus a
// streaming aggregate; no column pruning, no index selection, no CSE
// sharing). Its plans use no hash table, so they share no join or grouping
// code with the optimizer's plans they judge.
//
// Used (a) as the correctness oracle in tests and the differential fuzzer —
// optimizer output must produce identical result sets — and (b) to execute
// before the optimizer exists in the bring-up sequence.
#ifndef SUBSHARE_EXEC_NAIVE_PLANNER_H_
#define SUBSHARE_EXEC_NAIVE_PLANNER_H_

#include "logical/query.h"
#include "physical/physical_plan.h"

namespace subshare {

// Plans a single statement tree.
PhysicalNodePtr NaivePlanStatement(const LogicalTree& tree, QueryContext* ctx);

// Plans a whole batch (one Batch node over the statement plans).
ExecutablePlan NaivePlanBatch(const std::vector<Statement>& statements,
                              QueryContext* ctx);

}  // namespace subshare

#endif  // SUBSHARE_EXEC_NAIVE_PLANNER_H_

// Batch execution: materializes chosen CSEs into work tables (in dependency
// order, so stacked CSEs can read earlier spools), then runs each statement
// plan, pulling ColumnBatch units (physical/operators.h).
#ifndef SUBSHARE_EXEC_EXECUTOR_H_
#define SUBSHARE_EXEC_EXECUTOR_H_

#include <string>
#include <vector>

#include "cache/result_cache.h"
#include "physical/operators.h"
#include "physical/physical_plan.h"

namespace subshare {

struct StatementResult {
  std::vector<Row> rows;
};

// Execution knobs, orthogonal to plan choice.
struct ExecOptions {
  // Cross-batch CSE result recycler (not owned; nullptr = disabled). For
  // each keyed CsePlan, a valid cached spool is installed into the work
  // table instead of evaluating the plan; freshly evaluated spools are
  // admitted when `admit_results` is set.
  cache::ResultCache* result_cache = nullptr;
  bool admit_results = true;
};

// One operator instance's counters, in pre-order plan position.
struct OperatorMetrics {
  std::string phase;     // owning plan: "cse <id>" or "stmt <index>"
  std::string op;        // operator kind, e.g. "HashJoin"
  int depth = 0;         // depth within its plan tree
  int64_t rows_in = 0;   // rows pulled from children
  int64_t rows_out = 0;  // rows produced
  int64_t batches = 0;   // batches produced
  int64_t open_ns = 0;   // inclusive wall ns in Open()
  int64_t next_ns = 0;   // inclusive wall ns in NextBatch()
};

struct ExecutionMetrics {
  int64_t rows_scanned = 0;       // base-table + work-table rows read
  int64_t rows_spooled = 0;       // rows written into CSE work tables
  int64_t spool_rows_read = 0;    // rows read back from work tables
  int64_t spools_recycled = 0;    // work tables served from the result cache
  int64_t spools_admitted = 0;    // freshly evaluated spools admitted
  int64_t spool_bytes = 0;        // columnar footprint of all CSE spools
  int64_t probe_windows = 0;     // batched hash-join probe windows (FindBatch)
  int64_t probe_keys = 0;        // probe keys resolved through those windows
  int probe_in_flight = 0;       // max in-flight probe states observed
  double elapsed_seconds = 0;
  std::vector<OperatorMetrics> operators;  // empty when metrics not requested

  // Human-readable per-operator dump (EXPLAIN ANALYZE-style): one indented
  // row per operator with rows in/out, batch count, and inclusive times.
  std::string ExplainMetrics() const;
};

// Executes `plan`; returns one result per statement in the batch.
std::vector<StatementResult> ExecutePlan(const ExecutablePlan& plan,
                                         ExecutionMetrics* metrics = nullptr);
std::vector<StatementResult> ExecutePlan(const ExecutablePlan& plan,
                                         const ExecOptions& options,
                                         ExecutionMetrics* metrics = nullptr);

}  // namespace subshare

#endif  // SUBSHARE_EXEC_EXECUTOR_H_

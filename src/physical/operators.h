// Pull-based execution operators for PhysicalNode trees.
//
// Every operator yields batches in its node's declared output Layout;
// internal layouts (e.g. the natural concatenation of join inputs) are
// remapped via precomputed index vectors at Open() time.
//
// Operators expose one pull interface, NextBatch(ColumnBatch*): every
// operator produces up to a batch of rows per call, as typed column spans
// (physical/column_batch.h). Value rows exist only in RunToVector. The
// reference results operators are judged against come from the naive
// planner's plans (exec/naive_planner.h), which join by sort-merge and
// nested loops and aggregate by sorting.
#ifndef SUBSHARE_PHYSICAL_OPERATORS_H_
#define SUBSHARE_PHYSICAL_OPERATORS_H_

#include <memory>
#include <string>
#include <vector>

#include "physical/physical_plan.h"
#include "physical/column_batch.h"
#include "storage/work_table.h"

namespace subshare {

// Per-operator-instance execution counters, registered with the ExecContext
// at build time (pre-order, so registration order prints as a plan tree).
// Times are inclusive of children (wall time spent inside Open/NextBatch
// calls of this operator, which pull from its children).
struct OperatorStats {
  std::string label;   // operator kind, e.g. "HashJoin"
  std::string phase;   // which plan this operator belongs to ("cse 3", "stmt 0")
  int depth = 0;       // depth in its plan tree (for indented dumps)
  OperatorStats* parent = nullptr;
  int64_t rows_in = 0;    // rows pulled from children
  int64_t rows_out = 0;   // rows produced
  int64_t batches = 0;    // batches produced
  int64_t open_ns = 0;    // inclusive wall ns spent in Open()
  int64_t next_ns = 0;    // inclusive wall ns spent in NextBatch()
};

// Shared execution state: work tables for spooled CSE results and
// counters.
struct ExecContext {
  WorkTableManager* work_tables = nullptr;

  int64_t rows_scanned = 0;      // base-table + work-table rows read
  int64_t rows_spooled = 0;      // rows written into work tables
  int64_t spool_rows_read = 0;   // rows read back out of work tables
  int64_t probe_windows = 0;     // hash-join probe windows (FindBatch calls)
  int64_t probe_keys = 0;        // probe keys resolved through those windows
  int probe_in_flight = 0;       // max in-flight probe states observed

  // Label applied to operators registered from now on (set by the executor
  // before building each CSE / statement plan).
  std::string phase;

  ExecContext() = default;
  ExecContext(const ExecContext&) = delete;
  ExecContext& operator=(const ExecContext&) = delete;

  OperatorStats* RegisterOp(const char* label);
  const std::vector<std::unique_ptr<OperatorStats>>& op_stats() const {
    return op_stats_;
  }

  // Build-time bookkeeping used by BuildOperator (pre-order stats stack).
  std::vector<OperatorStats*> build_stack_;
  std::vector<std::unique_ptr<OperatorStats>> op_stats_;
};

class Operator {
 public:
  explicit Operator(ExecContext* ctx);
  virtual ~Operator() = default;

  // Prepares the operator (binds expressions, materializes build sides).
  void Open();
  // Clears `out` and fills it with up to out->capacity() rows (in the
  // node's output layout). Returns false iff the operator is exhausted and
  // no rows were produced; a true return implies out->size() >= 1. The
  // batch's spans stay valid until this operator's next NextBatch call.
  // Open and NextBatch time themselves into the operator's stats (two clock
  // reads per call).
  bool NextBatch(ColumnBatch* out);

 protected:
  virtual void OpenImpl() = 0;
  virtual bool NextBatchImpl(ColumnBatch* out) = 0;

  ExecContext* ctx_;
  OperatorStats* stats_ = nullptr;
};

// Instantiates the operator implementing `node` (recursively).
std::unique_ptr<Operator> BuildOperator(const PhysicalNode& node,
                                        ExecContext* ctx);

// Runs `node` to completion and returns all rows: the one place batches
// become Value rows.
std::vector<Row> RunToVector(const PhysicalNode& node, ExecContext* ctx);

}  // namespace subshare

#endif  // SUBSHARE_PHYSICAL_OPERATORS_H_

// Physical plan nodes.
//
// A PhysicalNode tree is the costed output of the optimizer (or of the naive
// reference planner) and the input to the executor. Nodes declare their
// output Layout (ordered ColIds); the executor computes the row mappings.
#ifndef SUBSHARE_PHYSICAL_PHYSICAL_PLAN_H_
#define SUBSHARE_PHYSICAL_PHYSICAL_PLAN_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "expr/aggregate.h"
#include "expr/evaluator.h"
#include "logical/logical_op.h"
#include "storage/table.h"

namespace subshare {

enum class PhysOpKind {
  kTableScan,  // full scan with optional residual filter
  kIndexScan,  // sorted-index range scan + residual filter
  kFilter,
  kHashJoin,   // equi-keys + residual predicate
  kMergeJoin,  // sort-merge on equi-keys + residual predicate
  kIndexNlJoin,  // index nested loops: probe a base-table index per row
  kNlJoin,     // nested loops; pred may be null (cross join)
  kHashAgg,
  kStreamAgg,  // group-by over input sorted on the group columns (naive)
  kProject,
  kSort,
  kSpoolScan,  // reads the work table of candidate CSE `cse_id`
  kBatch,      // executes children as separate statements
};

struct PhysicalNode;
using PhysicalNodePtr = std::shared_ptr<PhysicalNode>;

// Bounds for an index range scan.
struct IndexRange {
  int column_idx = -1;  // table schema column
  std::optional<Value> lo;
  bool lo_inclusive = true;
  std::optional<Value> hi;
  bool hi_inclusive = true;
  // Plan-cache parameter slots the bounds came from (-1 = constant folded
  // from an untagged literal; such plans are not literal-rebindable).
  int lo_slot = -1;
  int hi_slot = -1;
};

struct PhysicalNode {
  PhysOpKind kind = PhysOpKind::kTableScan;
  Layout output;

  // scans
  const Table* table = nullptr;
  int rel_id = -1;
  IndexRange index_range;           // kIndexScan
  ExprPtr filter;                   // residual predicate (scans / kFilter)
  // ColIds of the source rows in storage order: the relation instance's
  // columns (kTableScan/kIndexScan) or the work-table columns (kSpoolScan).
  std::vector<ColId> input_cols;

  // kHashJoin / kMergeJoin / kIndexNlJoin
  std::vector<std::pair<ColId, ColId>> join_keys;  // (left col, right col)
  ExprPtr join_residual;
  // kIndexNlJoin: the inner side is a direct base-table index probe (no
  // child operator). `table`, `rel_id`, `input_cols` describe the inner
  // relation; `index_range.column_idx` names the probed index column;
  // join_keys[0].second is the inner key ColId; `filter` holds the inner
  // relation's local predicate.

  // kNlJoin
  ExprPtr nl_pred;  // may be null (cross join)

  // kHashAgg / kStreamAgg
  std::vector<ColId> group_cols;
  std::vector<AggregateItem> aggs;

  // kProject
  std::vector<ProjectItem> projections;

  // kSort
  std::vector<SortKey> sort_keys;
  int64_t limit = -1;  // truncate output after this many rows (-1: none)

  // kSpoolScan
  int cse_id = -1;

  std::vector<PhysicalNodePtr> children;

  // Optimizer annotations.
  double est_rows = 0;
  double est_cost = 0;         // cumulative cost of this subtree
  // Candidate-CSE usage counts in this subtree (paper §5.2); counts are
  // merged bottom-up and resolved at the candidate's least common ancestor.
  std::map<int, int> cse_uses;
  // Candidates whose initial cost has already been added below this node.
  std::vector<int> cse_finalized;

  std::string ToString(const std::function<std::string(ColId)>& name = {},
                       int indent = 0) const;
};

const char* PhysOpKindName(PhysOpKind kind);

PhysicalNodePtr MakePhysical(PhysOpKind kind);

// The executable product of optimizing a batch: the statement plans plus
// one evaluation plan per chosen CSE (in dependency order: a stacked CSE
// appears after the CSEs it reads).
struct ExecutablePlan {
  PhysicalNodePtr root;  // kBatch node over statement plans
  struct CsePlan {
    int cse_id = -1;
    PhysicalNodePtr plan;
    Schema spool_schema;        // schema of the work table
    std::vector<ColId> output;  // ColIds matching spool_schema order

    // Cross-batch result-recycler annotations (empty/false when the
    // candidate is batch-local). `cache_key` is the canonical
    // [G; {tables}]-style signature; `dep_tables` the base tables whose
    // versions gate validity. `recycled` means the optimizer costed this
    // candidate as a cache hit (charged C_R only); the executor then loads
    // the spool from the ResultCache instead of running `plan`.
    std::string cache_key;
    std::vector<TableId> dep_tables;
    bool recycled = false;
    // C_E + C_W the executor saves on a hit / banks on admission.
    double initial_cost = 0;
  };
  std::vector<CsePlan> cse_plans;
  double est_cost = 0;

  std::string ToString(const std::function<std::string(ColId)>& name = {}) const;
};

}  // namespace subshare

#endif  // SUBSHARE_PHYSICAL_PHYSICAL_PLAN_H_

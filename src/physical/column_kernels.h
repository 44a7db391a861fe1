// Vectorized predicate kernels over columnar storage (DESIGN.md §10).
//
// CompiledPredicate lowers a bound conjunction into typed per-conjunct
// kernels that compact an int32 selection vector of row ids — tight
// branch-light loops over the contiguous column arrays instead of per-row
// EvalPredicate over materialized rows. String predicates run on dictionary
// codes: equality compares raw codes, ranges compare ranks (identical to
// codes once the dictionary is finalized into value order). Conjuncts the
// compiler cannot lower (arithmetic, cross-type strings, general ORs) are
// kept as a row-level residual evaluated only for rows that survive the
// kernels.
//
// Compilation captures raw pointers into the ColumnStore (data spans, rank
// tables); it is therefore valid only while the store is immutable — the
// same window in which fused scan consumers run (CLAUDE.md storage
// invariants).
#ifndef SUBSHARE_PHYSICAL_COLUMN_KERNELS_H_
#define SUBSHARE_PHYSICAL_COLUMN_KERNELS_H_

#include <cstdint>
#include <vector>

#include "expr/evaluator.h"
#include "physical/row_batch.h"
#include "storage/column_store.h"

namespace subshare {

class CompiledPredicate {
 public:
  // Compiles `bound` (a predicate bound against the store's column order:
  // bound_index i reads store.column(i)); null means pass-everything.
  static CompiledPredicate Compile(const ExprPtr& bound,
                                   const ColumnStore& store);

  // True when compilation proved no row can pass (e.g. equality against a
  // string absent from the dictionary).
  bool always_false() const { return always_false_; }
  // Row-level remainder; null when every conjunct was lowered to a kernel.
  const ExprPtr& residual() const { return residual_; }

  // Fills `sel` with the ids of rows in [start, start+n) that pass every
  // kernel (not the residual); returns the count. `sel` must hold n slots.
  int FilterDense(int64_t start, int n, int32_t* sel) const;
  // Same over explicit row ids pos[0..n); survivors keep their absolute id.
  int FilterPositions(const int64_t* pos, int n, int32_t* sel) const;

 private:
  struct Step {
    enum Kind {
      kFalse,         // no row passes
      kIntCmp,        // int-family column vs int64 literal, exact
      kIntCmpDouble,  // int-family column vs double literal, as doubles
      kDoubleCmp,     // double column vs double literal
      kIntIn,         // int-family column IN sorted int64 set
      kStrEq,         // string column == dictionary code
      kStrNe,         // string column != dictionary code
      kStrRange,      // string column rank vs threshold
      kStrIn,         // string column IN sorted code set
      kColColInt,     // int-family column vs int-family column, exact
      kColColDouble,  // numeric column vs numeric column, as doubles
    };
    Kind kind = kFalse;
    int col = -1;
    int col2 = -1;           // kColCol*
    CmpOp op = CmpOp::kEq;
    int64_t ival = 0;        // kIntCmp
    double dval = 0;         // kIntCmpDouble / kDoubleCmp
    int32_t code = -1;       // kStrEq / kStrNe
    int32_t rank_thr = 0;    // kStrRange
    bool pass_if_less = false;  // kStrRange: pass iff (rank < thr)
    const int32_t* ranks = nullptr;  // kStrRange; nullptr = identity
    std::vector<int64_t> int_set;    // kIntIn, sorted
    std::vector<int32_t> code_set;   // kStrIn, sorted
  };

  // Lowers one conjunct into `steps_`; false -> keep it in the residual.
  bool CompileConjunct(const ExprPtr& conjunct, const ColumnStore& store);
  bool CompileComparison(const Expr& e, const ColumnStore& store);
  bool CompileInList(const Expr& or_expr, const ColumnStore& store);

  int RunSteps(int32_t* sel, int count) const;

  const ColumnStore* store_ = nullptr;
  std::vector<Step> steps_;
  ExprPtr residual_;
  bool always_false_ = false;
};

// Evaluates `residual` (bound against the store's column order) for each
// selected row, gathering the row into `*scratch`, and compacts `sel` to the
// survivors. Returns the new count. A null residual is a no-op.
int ApplyRowResidual(const ColumnStore& store, const ExprPtr& residual,
                     int32_t* sel, int count, Row* scratch);

// Appends rows sel[0..count), projected through `map` (map[j] = store
// column index), to `out` — the columnar/row boundary gather.
void GatherInto(const ColumnStore& store, const int32_t* sel, int count,
                const std::vector<int>& map, RowBatch* out);

}  // namespace subshare

#endif  // SUBSHARE_PHYSICAL_COLUMN_KERNELS_H_

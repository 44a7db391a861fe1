// Vectorized predicate kernels and expression evaluation over column spans
// (DESIGN.md §10).
//
// CompiledPredicate lowers a bound conjunction into typed per-conjunct
// kernels that compact an int32 selection vector of physical positions —
// tight branch-light loops over contiguous column spans. The spans come
// from a ColumnStore (scans) or from a batch (Filter, join residuals), so
// store scans and batches share one kernel set. String predicates run on
// dictionary codes: equality compares raw codes, ranges compare ranks
// (identical to codes once the dictionary is finalized into value order).
// Conjuncts the compiler cannot lower (arithmetic, cross-type strings,
// general ORs) form a residual evaluated column-wise by ExprProgram, only
// for positions that survive the kernels.
//
// Compilation captures dictionary codes and rank thresholds, so a compiled
// predicate is valid only for spans over the same dictionaries — those of
// one scan, or of one operator's output stream.
#ifndef SUBSHARE_PHYSICAL_COLUMN_KERNELS_H_
#define SUBSHARE_PHYSICAL_COLUMN_KERNELS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "expr/evaluator.h"
#include "physical/column_batch.h"

namespace subshare {

// Column-wise evaluation of one bound expression (bound_index i reads
// cols[i]) in two-valued logic: arithmetic with a null operand or a zero
// divisor is null (integer arithmetic wraps), comparisons follow
// Value::Compare and are false against null, AND/OR/NOT read null as false. Each node keeps its result buffer across calls, so
// steady-state evaluation allocates nothing.
class ExprProgram {
 public:
  ExprProgram() = default;
  explicit ExprProgram(const ExprPtr& bound);

  bool empty() const { return bound_ == nullptr; }
  // Evaluates over cells rows[0..n) of `cols` (rows == nullptr: 0..n-1).
  // The result holds n dense cells and is valid until the next Eval.
  const ColumnBuffer& Eval(const std::vector<ColumnVector>& cols,
                           const int32_t* rows, int n);

 private:
  struct Node {
    const Expr* expr = nullptr;
    std::vector<Node> children;
    ColumnBuffer out;
    std::vector<double> lhs, rhs;  // int operands read as doubles
    StringDictionary literal;      // a string literal's one-entry dictionary
  };
  static void Build(const Expr& e, Node* node);
  static void EvalNode(Node* node, const std::vector<ColumnVector>& cols,
                       const int32_t* rows, int n);

  ExprPtr bound_;
  Node root_;
};

class CompiledPredicate {
 public:
  // Compiles `bound` (bound_index i reads cols[i]); null means
  // pass-everything.
  static CompiledPredicate Compile(const ExprPtr& bound,
                                   const std::vector<ColumnVector>& cols);

  // True when compilation proved no row can pass (e.g. equality against a
  // string absent from the dictionary).
  bool always_false() const { return always_false_; }

  // Compacts sel[0..count) (physical positions into `cols`) to the
  // positions passing every kernel and the residual; returns the count.
  int Filter(const std::vector<ColumnVector>& cols, int32_t* sel, int count);
  // Filter over the dense positions [start, start+n) / explicit positions
  // pos[0..n); `sel` must hold n slots.
  int FilterDense(const std::vector<ColumnVector>& cols, int64_t start, int n,
                  int32_t* sel);
  int FilterPositions(const std::vector<ColumnVector>& cols,
                      const int64_t* pos, int n, int32_t* sel);

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
  bool CompileConjunct(const ExprPtr& conjunct,
                       const std::vector<ColumnVector>& cols);
  bool CompileComparison(const Expr& e, const std::vector<ColumnVector>& cols);
  bool CompileInList(const Expr& or_expr,
                     const std::vector<ColumnVector>& cols);

  int RunSteps(const std::vector<ColumnVector>& cols, int32_t* sel,
               int count) const;

  std::vector<Step> steps_;
  // Residual conjuncts, evaluated column-wise (shared: copies of a compiled
  // predicate are never used concurrently).
  std::shared_ptr<ExprProgram> residual_;
  bool always_false_ = false;
};

}  // namespace subshare

#endif  // SUBSHARE_PHYSICAL_COLUMN_KERNELS_H_

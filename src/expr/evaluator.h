// Expression binding and evaluation against row layouts.
//
// A Layout is the ordered list of ColIds an operator's output batches
// carry. BindExpr rewrites kColumn references to kBoundColumn column
// indexes; ExprProgram (physical/column_kernels.h) evaluates a bound tree
// column-wise.
#ifndef SUBSHARE_EXPR_EVALUATOR_H_
#define SUBSHARE_EXPR_EVALUATOR_H_

#include <cstdint>
#include <vector>

#include "expr/expr.h"

namespace subshare {

// Ordered output columns of an operator.
class Layout {
 public:
  Layout() = default;
  explicit Layout(std::vector<ColId> cols) : cols_(std::move(cols)) {}

  int size() const { return static_cast<int>(cols_.size()); }
  ColId col(int i) const { return cols_[i]; }
  const std::vector<ColId>& cols() const { return cols_; }

  // Index of `col` in this layout, or -1.
  int IndexOf(ColId col) const;

  // True if every column in `cols` is present.
  bool ContainsAll(const std::set<ColId>& cols) const;

 private:
  std::vector<ColId> cols_;
};

// Rewrites kColumn -> kBoundColumn using `layout`. CHECK-fails if a
// referenced column is missing (plans must be column-complete).
ExprPtr BindExpr(const ExprPtr& e, const Layout& layout);

}  // namespace subshare

#endif  // SUBSHARE_EXPR_EVALUATOR_H_

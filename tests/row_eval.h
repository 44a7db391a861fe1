// Row-at-a-time expression evaluation for tests: runs the executor's
// column-wise evaluator (ExprProgram) over a one-row batch built from
// `row`, so expectations written per row check the production code.
#ifndef SUBSHARE_TESTS_ROW_EVAL_H_
#define SUBSHARE_TESTS_ROW_EVAL_H_

#include <vector>

#include "physical/column_kernels.h"

namespace subshare {

inline Value EvalExpr(const ExprPtr& e, const Row& row) {
  std::vector<Column> cols;
  cols.reserve(row.size());
  std::vector<ColumnVector> views;
  for (const Value& v : row) {
    cols.emplace_back(v.type());
    cols.back().Append(v);
  }
  for (const Column& c : cols) views.push_back(c.View());
  ExprProgram program(e);
  return program.Eval(views, nullptr, 1).view().Get(0);
}

// True iff the bound predicate evaluates to true (null reads as false).
inline bool EvalPredicate(const ExprPtr& e, const Row& row) {
  if (e == nullptr) return true;
  const Value v = EvalExpr(e, row);
  return !v.is_null() && v.AsBool();
}

}  // namespace subshare

#endif  // SUBSHARE_TESTS_ROW_EVAL_H_

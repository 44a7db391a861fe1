// Aggregate function descriptors.
//
// AVG is lowered to SUM/COUNT by the SQL binder, so only decomposable
// aggregates reach the optimizer. Decomposability is what makes both the
// eager group-by rule and CSE re-aggregation (computing a consumer's
// aggregate from a covering subexpression's finer-grained aggregate) valid:
//   SUM -> SUM of partial SUMs, COUNT -> SUM of partial COUNTs,
//   MIN -> MIN of partial MINs,  MAX -> MAX of partial MAXs.
#ifndef SUBSHARE_EXPR_AGGREGATE_H_
#define SUBSHARE_EXPR_AGGREGATE_H_

#include <string>

#include "expr/expr.h"

namespace subshare {

enum class AggFn { kSum, kCount, kMin, kMax };

// One aggregate computed by a GroupBy: fn(arg) AS output.
struct AggregateItem {
  AggFn fn = AggFn::kSum;
  ExprPtr arg;           // nullptr for COUNT(*)
  ColId output = kInvalidColId;
};

std::string AggFnName(AggFn fn);

// Result type of fn over an argument of `arg_type`.
DataType AggResultType(AggFn fn, DataType arg_type);

// The aggregate that combines partial results of `fn` (SUM for SUM/COUNT,
// MIN for MIN, MAX for MAX).
AggFn ReaggregateFn(AggFn fn);

}  // namespace subshare

#endif  // SUBSHARE_EXPR_AGGREGATE_H_

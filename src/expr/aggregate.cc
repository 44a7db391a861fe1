#include "expr/aggregate.h"

namespace subshare {

std::string AggFnName(AggFn fn) {
  switch (fn) {
    case AggFn::kSum: return "sum";
    case AggFn::kCount: return "count";
    case AggFn::kMin: return "min";
    case AggFn::kMax: return "max";
  }
  return "?";
}

DataType AggResultType(AggFn fn, DataType arg_type) {
  switch (fn) {
    case AggFn::kCount:
      return DataType::kInt64;
    case AggFn::kSum:
      return arg_type == DataType::kDouble ? DataType::kDouble
                                           : DataType::kInt64;
    case AggFn::kMin:
    case AggFn::kMax:
      return arg_type;
  }
  return arg_type;
}

AggFn ReaggregateFn(AggFn fn) {
  switch (fn) {
    case AggFn::kSum:
    case AggFn::kCount:
      return AggFn::kSum;
    case AggFn::kMin:
      return AggFn::kMin;
    case AggFn::kMax:
      return AggFn::kMax;
  }
  return AggFn::kSum;
}

}  // namespace subshare

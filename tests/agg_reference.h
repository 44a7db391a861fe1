// Reference accumulator for one aggregate over one group: the test oracle
// for HashAggOp's typed per-group state (physical/operators.cc), which must
// reproduce its results bit for bit.
#ifndef SUBSHARE_TESTS_AGG_REFERENCE_H_
#define SUBSHARE_TESTS_AGG_REFERENCE_H_

#include <cstdint>

#include "expr/aggregate.h"
#include "types/value.h"

namespace subshare {

class AggAccumulator {
 public:
  explicit AggAccumulator(AggFn fn) : fn_(fn) {}

  // Feeds one input value (ignored if null; COUNT(*) is fed a non-null
  // placeholder).
  void Update(const Value& v) {
    if (v.is_null()) return;
    switch (fn_) {
      case AggFn::kCount:
        ++count_;
        break;
      case AggFn::kSum:
        if (v.type() == DataType::kDouble) {
          integral_ = false;
        } else {
          sum_i_ += v.AsInt64();
        }
        sum_ += v.AsDouble();
        seen_ = true;
        break;
      case AggFn::kMin:
        if (!seen_ || v.Compare(extreme_) < 0) extreme_ = v;
        seen_ = true;
        break;
      case AggFn::kMax:
        if (!seen_ || v.Compare(extreme_) > 0) extreme_ = v;
        seen_ = true;
        break;
    }
  }

  // Final value; COUNT of nothing is 0, others are NULL.
  Value Final(DataType result_type) const {
    switch (fn_) {
      case AggFn::kCount:
        return Value::Int64(count_);
      case AggFn::kSum:
        if (!seen_) return Value::Null(result_type);
        if (result_type == DataType::kInt64 && integral_) {
          return Value::Int64(sum_i_);
        }
        return Value::Double(sum_);
      case AggFn::kMin:
      case AggFn::kMax:
        if (!seen_) return Value::Null(result_type);
        return extreme_;
    }
    return Value::Null(result_type);
  }

 private:
  AggFn fn_;
  bool seen_ = false;
  double sum_ = 0;
  int64_t sum_i_ = 0;
  bool integral_ = true;
  int64_t count_ = 0;
  Value extreme_;
};

}  // namespace subshare

#endif  // SUBSHARE_TESTS_AGG_REFERENCE_H_

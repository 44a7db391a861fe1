// Runtime scalar value: a tagged union over the supported data types.
//
// Rows are std::vector<Value>. The executor is tuple-at-a-time; Value keeps
// strings inline (std::string) which is adequate at the scale factors this
// repo targets.
#ifndef SUBSHARE_TYPES_VALUE_H_
#define SUBSHARE_TYPES_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "types/data_type.h"
#include "util/check.h"

namespace subshare {

class Value {
 public:
  Value() : type_(DataType::kInt64), is_null_(true) {}

  static Value Int64(int64_t v) { return Value(DataType::kInt64, v); }
  static Value Double(double v) { return Value(DataType::kDouble, v); }
  static Value String(std::string v) {
    return Value(DataType::kString, std::move(v));
  }
  static Value Date(int64_t days) { return Value(DataType::kDate, days); }
  static Value Bool(bool v) {
    return Value(DataType::kBool, static_cast<int64_t>(v));
  }
  static Value Null(DataType type) {
    Value v;
    v.type_ = type;
    v.is_null_ = true;
    return v;
  }

  DataType type() const { return type_; }
  bool is_null() const { return is_null_; }

  int64_t AsInt64() const {
    DCHECK(!is_null_);
    DCHECK(type_ == DataType::kInt64 || type_ == DataType::kDate ||
           type_ == DataType::kBool);
    return std::get<int64_t>(data_);
  }
  double AsDouble() const {
    DCHECK(!is_null_);
    if (type_ == DataType::kDouble) return std::get<double>(data_);
    return static_cast<double>(std::get<int64_t>(data_));
  }
  const std::string& AsString() const {
    DCHECK(!is_null_);
    DCHECK(type_ == DataType::kString);
    return std::get<std::string>(data_);
  }
  bool AsBool() const {
    DCHECK(type_ == DataType::kBool);
    return !is_null_ && std::get<int64_t>(data_) != 0;
  }

  // Numeric value usable in arithmetic/aggregation for any numeric type.
  double NumericValue() const { return AsDouble(); }

  // Three-way comparison; null sorts first. Numeric types compare by value
  // across int/double/date; strings compare lexicographically.
  int Compare(const Value& other) const;

  bool operator==(const Value& other) const { return Compare(other) == 0; }
  bool operator!=(const Value& other) const { return Compare(other) != 0; }
  bool operator<(const Value& other) const { return Compare(other) < 0; }

  size_t Hash() const;

  std::string ToString() const;

 private:
  Value(DataType type, int64_t v) : type_(type), is_null_(false), data_(v) {}
  Value(DataType type, double v) : type_(type), is_null_(false), data_(v) {}
  Value(DataType type, std::string v)
      : type_(type), is_null_(false), data_(std::move(v)) {}

  DataType type_;
  bool is_null_;
  std::variant<int64_t, double, std::string> data_;
};

using Row = std::vector<Value>;

}  // namespace subshare

#endif  // SUBSHARE_TYPES_VALUE_H_

#include "types/value.h"

#include <cmath>

#include "types/date.h"
#include "util/hash.h"
#include "util/string_util.h"

namespace subshare {

namespace {

bool IsNumeric(DataType t) {
  return t == DataType::kInt64 || t == DataType::kDouble ||
         t == DataType::kDate || t == DataType::kBool;
}

}  // namespace

int Value::Compare(const Value& other) const {
  if (is_null_ && other.is_null_) return 0;
  if (is_null_) return -1;
  if (other.is_null_) return 1;
  if (IsNumeric(type_) && IsNumeric(other.type_)) {
    // Compare exactly when both sides are integer-backed to avoid precision
    // loss on large keys.
    if (type_ != DataType::kDouble && other.type_ != DataType::kDouble) {
      int64_t a = std::get<int64_t>(data_);
      int64_t b = std::get<int64_t>(other.data_);
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    double a = AsDouble();
    double b = other.AsDouble();
    return a < b ? -1 : (a > b ? 1 : 0);
  }
  DCHECK(type_ == DataType::kString && other.type_ == DataType::kString);
  return AsString().compare(other.AsString());
}

size_t Value::Hash() const {
  if (is_null_) return 0x9b1a4c7d;
  switch (type_) {
    case DataType::kInt64:
    case DataType::kDate:
    case DataType::kBool:
      return std::hash<int64_t>{}(std::get<int64_t>(data_));
    case DataType::kDouble: {
      double d = std::get<double>(data_);
      // Make integral doubles hash like the equal int64 so mixed-type join
      // keys agree with Compare().
      if (d == std::floor(d) && std::abs(d) < 9.0e18) {
        return std::hash<int64_t>{}(static_cast<int64_t>(d));
      }
      return std::hash<double>{}(d);
    }
    case DataType::kString:
      return std::hash<std::string>{}(std::get<std::string>(data_));
  }
  return 0;
}

std::string Value::ToString() const {
  if (is_null_) return "NULL";
  switch (type_) {
    case DataType::kInt64:
      return std::to_string(std::get<int64_t>(data_));
    case DataType::kBool:
      return std::get<int64_t>(data_) ? "true" : "false";
    case DataType::kDouble:
      return StrFormat("%.2f", std::get<double>(data_));
    case DataType::kDate:
      return DaysToIsoDate(std::get<int64_t>(data_));
    case DataType::kString:
      return std::get<std::string>(data_);
  }
  return "?";
}

}  // namespace subshare

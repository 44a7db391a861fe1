#include "storage/column_store.h"

namespace subshare {

void Column::Append(const Value& v) {
  if (v.is_null()) {
    AppendNull();
    return;
  }
  // Exact-type fidelity: the cell must come back as the same Value kind it
  // went in as, or rendered results diverge between spooled and naive plans.
  DCHECK(v.type() == type_);
  switch (type_) {
    case DataType::kInt64:
    case DataType::kDate:
    case DataType::kBool:
      ints_.push_back(v.AsInt64());
      break;
    case DataType::kDouble:
      doubles_.push_back(v.AsDouble());
      break;
    case DataType::kString:
      codes_.push_back(dict_.Intern(v.AsString()));
      break;
  }
  nulls_.Append(false);
}

void Column::AppendNull() {
  switch (type_) {
    case DataType::kInt64:
    case DataType::kDate:
    case DataType::kBool:
      ints_.push_back(0);
      break;
    case DataType::kDouble:
      doubles_.push_back(0.0);
      break;
    case DataType::kString:
      codes_.push_back(-1);
      break;
  }
  nulls_.Append(true);
}

Value ColumnVector::Get(int64_t p) const {
  if (IsNull(p)) return Value::Null(type);
  switch (type) {
    case DataType::kInt64:
      return Value::Int64(ints[p]);
    case DataType::kDate:
      return Value::Date(ints[p]);
    case DataType::kBool:
      return Value::Bool(ints[p] != 0);
    case DataType::kDouble:
      return Value::Double(doubles[p]);
    case DataType::kString:
      return Value::String(dict->value(codes[p]));
  }
  return Value::Null(type);
}

ColumnVector Column::View() const {
  ColumnVector v;
  v.type = type_;
  v.ints = ints_.data();
  v.doubles = doubles_.data();
  v.codes = codes_.data();
  v.dict = &dict_;
  v.nulls = nulls_.words();
  return v;
}

void Column::AppendFrom(const ColumnVector& src, const int32_t* rows, int n,
                        CodeRemap* remap) {
  // Same physical vector (Get rebuilds the declared type).
  DCHECK((src.type == DataType::kString) == (type_ == DataType::kString));
  DCHECK((src.type == DataType::kDouble) == (type_ == DataType::kDouble));
  for (int i = 0; i < n; ++i) {
    const int32_t r = rows != nullptr ? rows[i] : i;
    const bool null = src.IsNull(r);
    nulls_.Append(null);
    switch (type_) {
      case DataType::kInt64:
      case DataType::kDate:
      case DataType::kBool:
        ints_.push_back(null ? 0 : src.ints[r]);
        break;
      case DataType::kDouble:
        doubles_.push_back(null ? 0.0 : src.doubles[r]);
        break;
      case DataType::kString:
        codes_.push_back(null ? -1 : remap->Map(*src.dict, src.codes[r], &dict_));
        break;
    }
  }
}

Value Column::Get(int64_t i) const { return View().Get(i); }

int Column::CompareAt(int64_t i, const Value& v) const {
  bool cell_null = IsNull(i);
  if (cell_null && v.is_null()) return 0;
  if (cell_null) return -1;
  if (v.is_null()) return 1;
  switch (type_) {
    case DataType::kInt64:
    case DataType::kDate:
    case DataType::kBool: {
      if (v.type() == DataType::kDouble) {
        double a = static_cast<double>(ints_[i]);
        double b = v.AsDouble();
        return a < b ? -1 : (a > b ? 1 : 0);
      }
      int64_t a = ints_[i];
      int64_t b = v.AsInt64();
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    case DataType::kDouble: {
      double a = doubles_[i];
      double b = v.AsDouble();
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    case DataType::kString:
      return dict_.value(codes_[i]).compare(v.AsString());
  }
  return 0;
}

void Column::FinalizeDict() {
  if (type_ != DataType::kString || dict_.sorted()) return;
  std::vector<int32_t> remap = dict_.Finalize();
  for (int32_t& c : codes_) {
    if (c >= 0) c = remap[c];
  }
}

void Column::Clear() {
  ints_.clear();
  doubles_.clear();
  codes_.clear();
  dict_.Clear();
  nulls_.Clear();
}

int64_t Column::ByteSize() const {
  return static_cast<int64_t>(ints_.size() * sizeof(int64_t)) +
         static_cast<int64_t>(doubles_.size() * sizeof(double)) +
         static_cast<int64_t>(codes_.size() * sizeof(int32_t)) +
         dict_.ByteSize() + nulls_.ByteSize();
}

void ColumnStore::Reset(const Schema& schema) {
  columns_.clear();
  columns_.reserve(schema.num_columns());
  for (const ColumnSchema& cs : schema.columns()) columns_.emplace_back(cs.type);
  num_rows_ = 0;
}

void ColumnStore::AppendRow(const Row& row) {
  DCHECK(static_cast<int>(row.size()) == num_columns());
  for (int c = 0; c < num_columns(); ++c) columns_[c].Append(row[c]);
  ++num_rows_;
  // Selection vectors are int32; the engine never approaches this at its
  // scale factors, but fail loudly rather than overflow.
  CHECK(num_rows_ < (int64_t{1} << 31));
}

void ColumnStore::GetRow(int64_t i, Row* out) const {
  out->resize(columns_.size());
  for (int c = 0; c < num_columns(); ++c) (*out)[c] = columns_[c].Get(i);
}

Row ColumnStore::GetRow(int64_t i) const {
  Row row;
  GetRow(i, &row);
  return row;
}

void ColumnStore::Clear() {
  for (Column& c : columns_) c.Clear();
  num_rows_ = 0;
}

void ColumnStore::FinalizeDicts() {
  for (Column& c : columns_) c.FinalizeDict();
}

void ColumnStore::AppendColumns(const std::vector<ColumnVector>& cols,
                                const int32_t* rows, int n,
                                std::vector<CodeRemap>* remaps) {
  DCHECK(static_cast<int>(cols.size()) == num_columns());
  remaps->resize(columns_.size());
  for (int c = 0; c < num_columns(); ++c) {
    columns_[c].AppendFrom(cols[c], rows, n, &(*remaps)[c]);
  }
  num_rows_ += n;
  CHECK(num_rows_ < (int64_t{1} << 31));
}

int64_t ColumnStore::ByteSize() const {
  int64_t bytes = 0;
  for (const Column& c : columns_) bytes += c.ByteSize();
  return bytes;
}

}  // namespace subshare

#include "physical/column_batch.h"

#include <algorithm>

namespace subshare {

ColumnVector ColumnBuffer::view() const {
  ColumnVector v;
  v.type = type_;
  v.ints = ints_.data();
  v.doubles = doubles_.data();
  v.codes = codes_.data();
  v.dict = dict_ != nullptr ? dict_ : &StringDictionary::Empty();
  v.nulls = has_nulls_ ? nulls_.data() : nullptr;
  return v;
}

void ColumnBuffer::SetNull(int i) {
  nulls_[static_cast<size_t>(i) >> 6] |= uint64_t{1} << (i & 63);
  has_nulls_ = true;
}

namespace {

// Writes cells rows[0..n) of `src` (rows == nullptr: 0..n-1) to dst[base..).
template <typename T>
void GatherCells(std::vector<T>* dst, int base, const T* src,
                 const int32_t* rows, int n) {
  dst->resize(static_cast<size_t>(base + n));
  T* out = dst->data() + base;
  if (rows == nullptr) {
    std::copy(src, src + n, out);
  } else {
    for (int i = 0; i < n; ++i) out[i] = src[rows[i]];
  }
}

}  // namespace

void ColumnBuffer::Gather(const ColumnVector& src, const int32_t* rows,
                          int n) {
  type_ = src.type;
  const int base = size_;
  size_ += n;
  nulls_.resize(static_cast<size_t>((size_ + 63) >> 6), 0);
  if (src.nulls != nullptr) {
    for (int i = 0; i < n; ++i) {
      if (src.IsNull(rows != nullptr ? rows[i] : i)) SetNull(base + i);
    }
  }
  switch (src.type) {
    case DataType::kDouble:
      GatherCells(&doubles_, base, src.doubles, rows, n);
      return;
    case DataType::kString:
      SetDict(*src.dict);
      GatherCells(&codes_, base, src.codes, rows, n);
      return;
    default:
      GatherCells(&ints_, base, src.ints, rows, n);
      return;
  }
}

void ColumnBuffer::Resize(DataType type, int n) {
  clear();
  type_ = type;
  nulls_.assign(static_cast<size_t>((n + 63) >> 6), 0);
  size_ = n;
}

int64_t* ColumnBuffer::MutableInts(DataType type, int n) {
  Resize(type, n);
  ints_.resize(static_cast<size_t>(n));
  return ints_.data();
}

double* ColumnBuffer::MutableDoubles(int n) {
  Resize(DataType::kDouble, n);
  doubles_.resize(static_cast<size_t>(n));
  return doubles_.data();
}

int32_t* ColumnBuffer::MutableCodes(int n) {
  Resize(DataType::kString, n);
  codes_.resize(static_cast<size_t>(n));
  return codes_.data();
}

}  // namespace subshare

// Column-major storage: one contiguous typed vector per column plus a packed
// null bitmap; string columns hold dictionary codes into a per-column
// StringDictionary (DESIGN.md §10).
//
// Physical layout by declared type:
//   kInt64/kDate/kBool -> int64 vector     (dates are days-since-epoch,
//                                           bools are 0/1)
//   kDouble            -> double vector
//   kString            -> int32 code vector + StringDictionary
// Null cells store a placeholder (0 / 0.0 / code -1) and set the bitmap bit;
// kernels must consult the bitmap before trusting a placeholder (a -1 code
// is NOT a valid dictionary index).
//
// Values round-trip with exact type fidelity: Get() rebuilds a Value of the
// declared column type, never a widened one — the differential fuzzer
// compares rendered results across spool/naive plans, and Int64(3),
// Double(3.0), Date(3) all render differently.
//
// Row counts are capped below 2^31 so selection vectors can be int32.
#ifndef SUBSHARE_STORAGE_COLUMN_STORE_H_
#define SUBSHARE_STORAGE_COLUMN_STORE_H_

#include <cstdint>
#include <vector>

#include "storage/string_dict.h"
#include "types/schema.h"
#include "types/value.h"

namespace subshare {

// Packed validity bitmap; bit set = null.
class NullBitmap {
 public:
  void Append(bool is_null) {
    int64_t word = size_ >> 6;
    if (word >= static_cast<int64_t>(words_.size())) words_.push_back(0);
    if (is_null) {
      words_[word] |= (uint64_t{1} << (size_ & 63));
      ++null_count_;
    }
    ++size_;
  }
  bool Test(int64_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1;
  }
  bool any() const { return null_count_ > 0; }
  int64_t null_count() const { return null_count_; }
  int64_t size() const { return size_; }
  void Clear() {
    words_.clear();
    size_ = 0;
    null_count_ = 0;
  }
  int64_t ByteSize() const {
    return static_cast<int64_t>(words_.size() * sizeof(uint64_t));
  }
  // Packed words for kernels; nullptr when no bit is set.
  const uint64_t* words() const { return any() ? words_.data() : nullptr; }

 private:
  std::vector<uint64_t> words_;
  int64_t size_ = 0;
  int64_t null_count_ = 0;
};

// Read-only typed span over column cells, addressed by physical position:
// a ColumnStore column, or an operator-owned buffer (physical/column_batch.h).
// Exactly the span of the declared type is set; string cells are codes into
// `dict`. This is the unit operators exchange (DESIGN.md §7).
struct ColumnVector {
  DataType type = DataType::kInt64;
  const int64_t* ints = nullptr;      // kInt64 / kDate / kBool
  const double* doubles = nullptr;    // kDouble
  const int32_t* codes = nullptr;     // kString
  const StringDictionary* dict = nullptr;  // kString
  const uint64_t* nulls = nullptr;    // bit set = null; nullptr: no nulls

  bool IsNull(int64_t p) const {
    return nulls != nullptr && ((nulls[p >> 6] >> (p & 63)) & 1) != 0;
  }
  // Rebuilds cell p as a Value of the declared type (a date stays a date).
  Value Get(int64_t p) const;
};

class Column {
 public:
  explicit Column(DataType type) : type_(type) {}

  DataType type() const { return type_; }
  int64_t size() const { return nulls_.size(); }

  // Appends `v`, which must be null or exactly of the declared type —
  // widening (an Int64 value into a kDouble column) would silently change
  // how the cell renders on read-back.
  void Append(const Value& v);

  // Typed appends for bulk loaders; skip Value construction entirely.
  void AppendInt64(int64_t v) {
    DCHECK(type_ != DataType::kDouble && type_ != DataType::kString);
    ints_.push_back(v);
    nulls_.Append(false);
  }
  void AppendDouble(double v) {
    DCHECK(type_ == DataType::kDouble);
    doubles_.push_back(v);
    nulls_.Append(false);
  }
  void AppendString(const std::string& s) {
    DCHECK(type_ == DataType::kString);
    codes_.push_back(dict_.Intern(s));
    nulls_.Append(false);
  }
  void AppendNull();
  // Appends cells rows[0..n) of `src` (rows == nullptr: 0..n-1; same
  // declared type family);
  // foreign dictionary codes are re-interned through `remap`.
  void AppendFrom(const ColumnVector& src, const int32_t* rows, int n,
                  CodeRemap* remap);

  // Span over this column's cells; valid while the column is unchanged.
  ColumnVector View() const;

  bool IsNull(int64_t i) const { return nulls_.any() && nulls_.Test(i); }
  Value Get(int64_t i) const;

  // Three-way comparison of cell i against `v` with Value::Compare
  // semantics (null sorts first; int-family exact; any double side compares
  // as double; strings lexicographic).
  int CompareAt(int64_t i, const Value& v) const;

  // Re-codes the string dictionary into value order (no-op for non-string
  // columns or already-sorted dictionaries). Callers must not hold codes
  // across this call.
  void FinalizeDict();

  void Clear();
  int64_t ByteSize() const;

  // Direct spans for kernels. Valid only for the matching declared type.
  const int64_t* ints() const { return ints_.data(); }
  const double* doubles() const { return doubles_.data(); }
  const int32_t* codes() const { return codes_.data(); }
  const NullBitmap& nulls() const { return nulls_; }
  const StringDictionary& dict() const { return dict_; }

 private:
  DataType type_;
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<int32_t> codes_;
  StringDictionary dict_;
  NullBitmap nulls_;
};

// A schema'd set of equal-length columns.
class ColumnStore {
 public:
  ColumnStore() = default;
  explicit ColumnStore(const Schema& schema) { Reset(schema); }

  // Drops all data and rebuilds the column set for `schema`.
  void Reset(const Schema& schema);

  int num_columns() const { return static_cast<int>(columns_.size()); }
  int64_t num_rows() const { return num_rows_; }
  Column& column(int c) { return columns_[c]; }
  const Column& column(int c) const { return columns_[c]; }

  void AppendRow(const Row& row);
  // Appends cells rows[0..n) of `cols` (one span per column, in order;
  // rows == nullptr: 0..n-1).
  // String codes re-intern once per distinct source code (`remaps` holds
  // one map per column across calls).
  void AppendColumns(const std::vector<ColumnVector>& cols,
                     const int32_t* rows, int n,
                     std::vector<CodeRemap>* remaps);
  // Loader fast path: exactly one typed Column::Append* per column, then
  // FinishRow() to commit the row. The DCHECK catches a missed column.
  void FinishRow() {
    ++num_rows_;
    DCHECK(columns_.empty() || columns_.back().size() == num_rows_);
  }

  void GetRow(int64_t i, Row* out) const;
  Row GetRow(int64_t i) const;

  void Clear();
  void FinalizeDicts();

  // True in-memory footprint (typed vectors + bitmaps + dictionaries).
  int64_t ByteSize() const;

 private:
  std::vector<Column> columns_;
  int64_t num_rows_ = 0;
};

}  // namespace subshare

#endif  // SUBSHARE_STORAGE_COLUMN_STORE_H_

// ColumnBatch: the unit operators exchange (DESIGN.md §7).
//
// A batch is `size()` logical rows over a set of typed column spans
// (ColumnVector: int64, double or dictionary-code cells plus a null bitmap).
// Every column of a batch is addressed by the same physical positions:
// logical row j lives at pos(j) = sel()[j] when the batch carries a
// selection vector, else at j. A scan therefore hands out spans over its
// ColumnStore plus the positions its filter kept, with no gather; operators
// that build new cells (join output, computed projections, aggregates)
// write them into ColumnBuffers and hand out dense spans over those.
//
// Lifetime contract: a batch's spans stay valid until the producing
// operator's next NextBatch call. Each output column of an operator draws
// its strings from one dictionary for the whole stream (a store column's,
// or a literal's); it lives, unchanged, as long as the producing operator,
// so a consumer may keep (dictionary, code) pairs across batches but never
// spans.
#ifndef SUBSHARE_PHYSICAL_COLUMN_BATCH_H_
#define SUBSHARE_PHYSICAL_COLUMN_BATCH_H_

#include <vector>

#include "storage/column_store.h"
#include "util/check.h"

namespace subshare {

// Owned typed cells (dense positions 0..size()-1). String cells are codes
// into the one dictionary of the stream they were gathered from. clear()
// keeps capacity and the dictionary, so steady-state batches do no per-row
// heap work.
class ColumnBuffer {
 public:
  ColumnBuffer() = default;
  ColumnBuffer(const ColumnBuffer&) = delete;
  ColumnBuffer& operator=(const ColumnBuffer&) = delete;
  ColumnBuffer(ColumnBuffer&&) = default;
  ColumnBuffer& operator=(ColumnBuffer&&) = default;

  DataType type() const { return type_; }
  int size() const { return size_; }
  void clear() {
    size_ = 0;
    ints_.clear();
    doubles_.clear();
    codes_.clear();
    nulls_.clear();
    has_nulls_ = false;
  }

  ColumnVector view() const;

  // Appends cells rows[0..n) of `src` (rows == nullptr: 0..n-1) and takes
  // its declared type.
  void Gather(const ColumnVector& src, const int32_t* rows, int n);

  // Direct typed storage: resets the buffer to n non-null cells of `type`
  // and returns the span to fill; SetNull marks cell i null afterwards.
  int64_t* MutableInts(DataType type, int n);
  double* MutableDoubles(int n);
  int32_t* MutableCodes(int n);  // codes into the SetDict dictionary
  void SetNull(int i);

  // The dictionary string cells index; set once per buffer.
  void SetDict(const StringDictionary& dict) {
    DCHECK(dict_ == nullptr || dict_ == &dict);
    dict_ = &dict;
  }

 private:
  void Resize(DataType type, int n);

  DataType type_ = DataType::kInt64;
  int size_ = 0;
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<int32_t> codes_;
  std::vector<uint64_t> nulls_;
  bool has_nulls_ = false;
  const StringDictionary* dict_ = nullptr;  // borrowed from the source
};

class ColumnBatch {
 public:
  static constexpr int kDefaultCapacity = 1024;

  explicit ColumnBatch(int capacity = kDefaultCapacity)
      : capacity_(capacity) {}
  ColumnBatch(const ColumnBatch&) = delete;
  ColumnBatch& operator=(const ColumnBatch&) = delete;

  int size() const { return size_; }
  bool empty() const { return size_ == 0; }
  int capacity() const { return capacity_; }
  bool full() const { return size_ >= capacity_; }
  int width() const { return static_cast<int>(cols_.size()); }

  const ColumnVector& column(int i) const { return cols_[i]; }
  const std::vector<ColumnVector>& columns() const { return cols_; }
  // Physical positions of the logical rows; nullptr: pos(j) == j.
  const int32_t* sel() const { return has_sel_ ? sel_.data() : nullptr; }
  int32_t pos(int j) const { return has_sel_ ? sel_[j] : j; }

  // Producer side. Reset starts a batch of `width` columns, size 0, no
  // selection vector (buffers keep their storage).
  void Reset(int width) {
    cols_.resize(static_cast<size_t>(width));
    if (buffers_.size() < cols_.size()) buffers_.resize(cols_.size());
    size_ = 0;
    has_sel_ = false;
  }
  void clear() {
    size_ = 0;
    has_sel_ = false;
  }
  void set_size(int n) { size_ = n; }
  void set_column(int i, const ColumnVector& v) { cols_[i] = v; }
  // Owned storage for column i (persists across batches).
  ColumnBuffer* buffer(int i) { return &buffers_[i]; }
  // Points column i at buffer(i).
  void UseBuffer(int i) { cols_[i] = buffers_[i].view(); }
  // Selection storage of n slots; the batch then carries it.
  int32_t* MutableSel(int n) {
    if (sel_.size() < static_cast<size_t>(n)) sel_.resize(static_cast<size_t>(n));
    has_sel_ = true;
    return sel_.data();
  }

 private:
  std::vector<ColumnVector> cols_;
  std::vector<ColumnBuffer> buffers_;
  std::vector<int32_t> sel_;
  bool has_sel_ = false;
  int size_ = 0;
  int capacity_ = kDefaultCapacity;
};

}  // namespace subshare

#endif  // SUBSHARE_PHYSICAL_COLUMN_BATCH_H_

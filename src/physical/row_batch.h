// RowBatch: the unit of vectorized execution.
//
// A batch is a reusable buffer of up to `capacity()` rows. Operators fill a
// batch via the Append* helpers and consumers call clear() before (or the
// Operator::NextBatch wrapper does it for them) refilling. clear() only
// resets the logical size: the underlying Row objects (and their Value
// string storage) are kept and overwritten in place by AppendSlot /
// AppendMapped, so steady-state batch execution performs no per-row heap
// allocation for buffer management.
//
// Invariants (see DESIGN.md "Vectorized execution"):
//   - rows [0, size()) are live; rows beyond size() hold stale data that
//     must be fully overwritten before use (AppendMapped resizes+assigns).
//   - a batch returned by NextBatch is non-empty unless the operator is
//     exhausted; NextBatch never returns an empty batch mid-stream.
//   - batches are at most capacity() rows except transiently inside an
//     operator that appends per-match output (joins stop pulling new probe
//     rows once full() is true, but finish the current match list).
#ifndef SUBSHARE_PHYSICAL_ROW_BATCH_H_
#define SUBSHARE_PHYSICAL_ROW_BATCH_H_

#include <utility>
#include <vector>

#include "types/value.h"
#include "util/check.h"

namespace subshare {

class RowBatch {
 public:
  static constexpr int kDefaultCapacity = 1024;

  explicit RowBatch(int capacity = kDefaultCapacity) : capacity_(capacity) {}

  int size() const { return size_; }
  bool empty() const { return size_ == 0; }
  int capacity() const { return capacity_; }
  bool full() const { return size_ >= capacity_; }

  Row& row(int i) {
    DCHECK(i >= 0 && i < size_);
    return rows_[i];
  }
  const Row& row(int i) const {
    DCHECK(i >= 0 && i < size_);
    return rows_[i];
  }

  // Resets the logical size; keeps row storage for reuse.
  void clear() { size_ = 0; }

  // Appends and returns a row slot. The slot may hold stale values from a
  // previous batch; the caller must overwrite it completely.
  Row& AppendSlot() {
    if (size_ == static_cast<int>(rows_.size())) rows_.emplace_back();
    return rows_[size_++];
  }

  void AppendMove(Row&& r) { AppendSlot() = std::move(r); }

  // Appends source columns selected by `map` (dst[j] = src[map[j]]),
  // reusing the slot's Value storage when shapes match.
  void AppendMapped(const Row& src, const std::vector<int>& map) {
    Row& dst = AppendSlot();
    dst.resize(map.size());
    for (size_t j = 0; j < map.size(); ++j) dst[j] = src[map[j]];
  }

  // Moves the live rows into `out` (appending). Rows left behind are in a
  // moved-from state; clear() makes the batch reusable. No reserve here:
  // an exact-size reserve per batch would defeat the vector's geometric
  // growth and make draining N rows quadratic.
  void MoveTo(std::vector<Row>* out) {
    for (int i = 0; i < size_; ++i) out->push_back(std::move(rows_[i]));
  }

  // Pointer to the first live row (for bulk WorkTable appends).
  Row* data() { return rows_.data(); }

 private:
  std::vector<Row> rows_;
  int size_ = 0;
  int capacity_ = kDefaultCapacity;
};

}  // namespace subshare

#endif  // SUBSHARE_PHYSICAL_ROW_BATCH_H_

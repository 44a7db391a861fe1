// Work tables: transient spool targets for materialized CSE results.
//
// The paper's spool operator "materializes the result in a work table so that
// it can be reused multiple times" (§2.2). The executor evaluates each chosen
// CSE once into a WorkTable; SpoolScan operators then read it. Storage is
// column-major (storage/column_store.h), so spooled strings are dictionary
// compressed and SpoolScan gets the same columnar fast path as base tables.
//
// A work table holds its rows in one of two ways:
//   - owned: rows appended by the spool evaluation (data_), or
//   - shared: a pinned, immutable ColumnStore installed wholesale from the
//     CSE result recycler (InstallShared). The shared_ptr IS the spool's
//     lifetime pin — typically an aliasing pointer into a refcounted cache
//     entry, so a concurrent eviction or version bump drops the cache's
//     reference but cannot free storage this execution is still scanning
//     (the work-table analog of SortedIndex::Pin).
#ifndef SUBSHARE_STORAGE_WORK_TABLE_H_
#define SUBSHARE_STORAGE_WORK_TABLE_H_

#include <atomic>
#include <memory>
#include <unordered_map>

#include "storage/column_store.h"
#include "types/schema.h"
#include "types/value.h"
#include "util/check.h"

namespace subshare {

class WorkTable {
 public:
  explicit WorkTable(Schema schema)
      : schema_(std::move(schema)), data_(schema_) {}

  const Schema& schema() const { return schema_; }
  const ColumnStore& columns() const { return shared_ ? *shared_ : data_; }
  int64_t row_count() const { return columns().num_rows(); }

  void GetRow(int64_t i, Row* out) const { columns().GetRow(i, out); }
  Row GetRow(int64_t i) const { return columns().GetRow(i); }

  // Monotonic content version, mirroring Table::version(). Atomic for the
  // same reason (well-defined under a concurrent probe), though work tables
  // are per-execution and rarely shared.
  uint64_t version() const { return version_.load(std::memory_order_acquire); }

  void AppendRow(const Row& row) {
    DCHECK(shared_ == nullptr);  // install-once: no appends after a recycle
    data_.AppendRow(row);
    version_.fetch_add(1, std::memory_order_relaxed);
  }

  // Appends cells rows[0..n) of `cols` (rows == nullptr: 0..n-1): the
  // spool write, one typed call per batch. String codes re-intern once per
  // distinct source code.
  void AppendBatch(const std::vector<ColumnVector>& cols, const int32_t* rows,
                   int n) {
    DCHECK(shared_ == nullptr);
    data_.AppendColumns(cols, rows, n, &remaps_);
    version_.fetch_add(static_cast<uint64_t>(n), std::memory_order_relaxed);
  }

  // Installs a recycled cache artifact zero-copy: consumers scan the cached
  // columns directly, and the shared_ptr pins the backing entry alive for
  // this work table's lifetime even if the cache evicts it concurrently.
  // The store must be fully materialized and immutable (same contract every
  // scan relies on). Install-once: no appends may follow.
  void InstallShared(std::shared_ptr<const ColumnStore> store) {
    DCHECK(shared_ == nullptr && data_.num_rows() == 0);
    CHECK(store != nullptr);
    shared_ = std::move(store);
    version_.fetch_add(static_cast<uint64_t>(shared_->num_rows()) + 1,
                       std::memory_order_relaxed);
  }
  bool recycled_shared() const { return shared_ != nullptr; }

 private:
  Schema schema_;
  ColumnStore data_;
  std::shared_ptr<const ColumnStore> shared_;  // set: rows live in the cache
  std::vector<CodeRemap> remaps_;  // AppendBatch: per-column code maps
  std::atomic<uint64_t> version_{0};
};

// Keyed by candidate-CSE id for the duration of one batch execution.
class WorkTableManager {
 public:
  WorkTable* Create(int cse_id, Schema schema);
  WorkTable* Get(int cse_id);
  const WorkTable* Get(int cse_id) const;
  void Clear() { tables_.clear(); }

 private:
  std::unordered_map<int, std::unique_ptr<WorkTable>> tables_;
};

}  // namespace subshare

#endif  // SUBSHARE_STORAGE_WORK_TABLE_H_

// In-memory column-store tables, per-column statistics, and sorted indexes.
#ifndef SUBSHARE_STORAGE_TABLE_H_
#define SUBSHARE_STORAGE_TABLE_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "storage/btree_index.h"
#include "storage/column_store.h"
#include "types/schema.h"
#include "types/value.h"

namespace subshare {

using TableId = int;

// Statistics for one column, used by the cardinality estimator.
struct ColumnStats {
  Value min;
  Value max;
  int64_t ndv = 0;  // number of distinct values

  // Equi-depth histogram for numeric/date columns: `bounds[i]` is the value
  // at quantile i / (bounds.size()-1) of the non-null sorted column, so each
  // bucket holds ~the same number of rows. Empty for string columns and
  // tiny tables.
  std::vector<double> histogram_bounds;

  // Estimated fraction of non-null values <= v; falls back to min/max
  // interpolation when no histogram is available. Returns -1 when the
  // column has no usable numeric statistics.
  double FractionAtMost(double v) const;
};

struct TableStats {
  int64_t row_count = 0;
  std::vector<ColumnStats> columns;
};

// A sorted secondary index on one column: row positions ordered by value.
// Supports range lookups [lo, hi] with open/closed bounds. Holds a pointer
// to the store it was built over; the owning Table rebuilds it on mutation.
//
// Searches run on an implicit-B-tree layout (DESIGN.md §11) over typed key
// arrays extracted at build time — int64 values for the int family, doubles,
// and materialized dictionary *ranks* for strings (ranks, unlike raw codes,
// survive a dictionary Finalize re-code, and bound strings convert to rank
// thresholds via StringDictionary::LowerBoundRank/UpperBoundRank). Nulls
// sort first (Value::Compare) and are kept as a counted prefix outside the
// key arrays. RangeLookupBinary is the plain binary-search reference
// implementation, kept for A/B benchmarks and the property tests.
class SortedIndex {
 public:
  SortedIndex(const ColumnStore& store, int column);

  int column() const { return column_; }
  int64_t size() const { return static_cast<int64_t>(order_.size()); }

  // Row positions whose indexed value lies in the given range. Null bounds
  // mean unbounded on that side. Implicit-B-tree search.
  std::vector<int64_t> RangeLookup(const Value* lo, bool lo_inclusive,
                                   const Value* hi, bool hi_inclusive) const;

  // Reference implementation: std::partition_point over the sorted position
  // order, one CompareAt per probe (the pre-B-tree code path).
  std::vector<int64_t> RangeLookupBinary(const Value* lo, bool lo_inclusive,
                                         const Value* hi,
                                         bool hi_inclusive) const;

  // RAII pin for consumers that hold this index (or spans derived from it)
  // across calls — e.g. the index nested-loop join keeps the SortedIndex*
  // for its whole lifetime. Rebuilds DCHECK that no pin is outstanding, so
  // an append-triggered lazy rebuild under a live consumer fails loudly
  // instead of dangling.
  class Pin {
   public:
    Pin() = default;
    explicit Pin(const SortedIndex* index) : index_(index) {
      if (index_ != nullptr) {
        index_->pins_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    Pin(Pin&& other) noexcept : index_(std::exchange(other.index_, nullptr)) {}
    Pin& operator=(Pin&& other) noexcept {
      if (this != &other) {
        Release();
        index_ = std::exchange(other.index_, nullptr);
      }
      return *this;
    }
    Pin(const Pin&) = delete;
    Pin& operator=(const Pin&) = delete;
    ~Pin() { Release(); }
    void Release() {
      if (index_ != nullptr) index_->pins_.fetch_sub(1, std::memory_order_relaxed);
      index_ = nullptr;
    }

   private:
    const SortedIndex* index_ = nullptr;
  };
  int pins() const { return pins_.load(std::memory_order_relaxed); }

 private:
  // Count of cells `c` with c < v (or c <= v when `or_equal`), i.e. the
  // partition point of that predicate in the sorted order. `binary` selects
  // the reference search.
  size_t BelowCount(const Value& v, bool or_equal, bool binary) const;
  std::pair<size_t, size_t> BoundsFor(const Value* lo, bool lo_inclusive,
                                      const Value* hi, bool hi_inclusive,
                                      bool binary) const;

  const ColumnStore* store_;
  int column_;
  std::vector<int64_t> order_;  // row positions sorted by column value
  int64_t null_count_ = 0;      // nulls occupy order_[0, null_count_)
  // Implicit-B-tree over the non-null keys in sorted order; exactly one of
  // these is populated, matching the column's physical type.
  ImplicitBTree<int64_t> int_tree_;
  ImplicitBTree<double> double_tree_;
  ImplicitBTree<int32_t> rank_tree_;  // string: dictionary-rank keys
  // Atomic: concurrent readers (index NL joins on different sessions) pin
  // and release the same index; the count is an audit, not a lock.
  mutable std::atomic<int> pins_{0};
};

class Table;

// Bulk-load writer appending typed cells straight into a table's columns,
// bypassing Value construction. One typed call per column in schema order,
// then EndRow(). EndRow commits the row through the same bookkeeping as
// AppendRow — version bump, stats/index invalidation — so this path keeps
// the cache-invalidation contract (CLAUDE.md "before touching storage").
class TableLoader {
 public:
  explicit TableLoader(Table* table);

  TableLoader& Int64(int64_t v);
  TableLoader& Double(double v);
  TableLoader& Str(const std::string& s);
  TableLoader& Date(int64_t days);
  TableLoader& Null();
  void EndRow();

 private:
  Table* table_;
  int col_ = 0;
};

// A named, schema'd collection of rows stored column-major, with statistics
// and optional indexes.
class Table {
 public:
  Table(TableId id, std::string name, Schema schema)
      : id_(id), name_(std::move(name)), schema_(std::move(schema)),
        data_(schema_) {}

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  TableId id() const { return id_; }
  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  const ColumnStore& columns() const { return data_; }
  int64_t row_count() const { return data_.num_rows(); }

  // Materializes row `i` (index NL join inner rows, tests). Prefer the
  // columnar accessors in hot loops.
  void GetRow(int64_t i, Row* out) const { data_.GetRow(i, out); }
  Row GetRow(int64_t i) const { return data_.GetRow(i); }
  // Materializes the entire table as rows (view maintenance, tests).
  std::vector<Row> MaterializeRows() const;

  void AppendRow(const Row& row);
  void AppendRows(const std::vector<Row>& rows);
  void Clear();

  // Monotonic content version: bumped on every mutation (append, clear,
  // TableLoader::EndRow). Cross-batch caches snapshot (id, version) pairs
  // and treat any mismatch as an invalidation; the counter never decreases
  // and never repeats. Atomic so a concurrent append + cache probe is
  // well-defined; bumps are relaxed, reads acquire. Ordering between a
  // mutation's data writes and a reader's probe comes from the server's
  // shared-data lock, not from this counter.
  uint64_t version() const { return version_.load(std::memory_order_acquire); }

  // Recomputes row count, min/max and exact NDV per column, and re-codes
  // string dictionaries into value order (code order = value order until
  // the next mutation interns a new string). Called once after bulk load;
  // cheap at this repo's scale factors.
  void ComputeStats();
  const TableStats& stats() const { return stats_; }
  // True once ComputeStats has run for the current contents.
  bool stats_valid() const { return stats_valid_; }

  // Builds (or rebuilds) a sorted index on `column`.
  void CreateIndex(int column);
  // Returns the index on `column`, or nullptr. Indexes invalidated by
  // appends since the last build are rebuilt lazily here, so an
  // insert-then-index-scan sequence never reads a stale index.
  const SortedIndex* GetIndex(int column) const;

 private:
  friend class TableLoader;

  // Shared mutation bookkeeping: invalidate stats/indexes, bump version.
  void CommitMutation();

  TableId id_;
  std::string name_;
  Schema schema_;
  ColumnStore data_;
  TableStats stats_;
  bool stats_valid_ = false;
  std::atomic<uint64_t> version_{0};
  // Mutable: GetIndex() is logically const but rebuilds stale indexes.
  // index_mu_ serializes the lazy rebuild and the map access against
  // concurrent readers; a returned SortedIndex* stays valid until the next
  // mutation (which may only run with no readers live).
  mutable std::mutex index_mu_;
  mutable std::map<int, std::unique_ptr<SortedIndex>> indexes_;
  mutable bool indexes_stale_ = false;
};

}  // namespace subshare

#endif  // SUBSHARE_STORAGE_TABLE_H_

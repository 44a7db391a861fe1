#include "storage/table.h"

#include <algorithm>
#include <cmath>

namespace subshare {

namespace {

constexpr int kHistogramBuckets = 64;
constexpr int64_t kHistogramMinRows = 100;

// The column's non-null cells that `keep` accepts, in ascending order.
template <typename T, typename Keep>
std::vector<T> SortedValues(const T* v, const Column& col, Keep keep) {
  std::vector<T> sorted;
  sorted.reserve(static_cast<size_t>(col.size() - col.nulls().null_count()));
  for (int64_t i = 0; i < col.size(); ++i) {
    if (!col.IsNull(i) && keep(v[i])) sorted.push_back(v[i]);
  }
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

// ndv (adjacent distinct values; -0.0 == 0.0), min/max (the two ends) and,
// with `histogram`, the equi-depth bounds read from the ascending non-null
// values of a column of `rows` rows. Tables or columns under
// kHistogramMinRows get no histogram; int64 -> double is monotone, so
// integer bounds equal those of the column sorted as doubles.
template <typename T, typename ToValue>
void SetSortedStats(const std::vector<T>& sorted, int64_t rows, bool histogram,
                    ColumnStats* cs, ToValue to_value) {
  cs->ndv = sorted.empty() ? 0 : 1;
  for (size_t i = 1; i < sorted.size(); ++i) {
    cs->ndv += sorted[i] != sorted[i - 1];
  }
  if (sorted.empty()) return;
  cs->min = to_value(sorted.front());
  cs->max = to_value(sorted.back());
  if (!histogram || rows < kHistogramMinRows ||
      static_cast<int64_t>(sorted.size()) < kHistogramMinRows) {
    return;
  }
  cs->histogram_bounds.resize(kHistogramBuckets + 1);
  for (int b = 0; b <= kHistogramBuckets; ++b) {
    size_t idx = static_cast<size_t>(
        (sorted.size() - 1) * static_cast<double>(b) / kHistogramBuckets);
    cs->histogram_bounds[b] = static_cast<double>(sorted[idx]);
  }
}

}  // namespace

SortedIndex::SortedIndex(const ColumnStore& store, int column)
    : store_(&store), column_(column) {
  const Column& col = store.column(column);
  order_.resize(store.num_rows());
  for (int64_t i = 0; i < store.num_rows(); ++i) order_[i] = i;
  // Null-first ordering, matching Value::Compare.
  auto null_ordered = [&col](int64_t a, int64_t b, auto&& less) {
    if (col.IsNull(a)) return !col.IsNull(b);
    if (col.IsNull(b)) return false;
    return less(a, b);
  };
  switch (col.type()) {
    case DataType::kInt64:
    case DataType::kDate:
    case DataType::kBool: {
      const int64_t* v = col.ints();
      std::sort(order_.begin(), order_.end(), [&](int64_t a, int64_t b) {
        return null_ordered(a, b,
                            [v](int64_t x, int64_t y) { return v[x] < v[y]; });
      });
      break;
    }
    case DataType::kDouble: {
      const double* v = col.doubles();
      std::sort(order_.begin(), order_.end(), [&](int64_t a, int64_t b) {
        return null_ordered(a, b,
                            [v](int64_t x, int64_t y) { return v[x] < v[y]; });
      });
      break;
    }
    case DataType::kString: {
      const int32_t* codes = col.codes();
      const int32_t* ranks = col.dict().EnsureRanks();  // nullptr = identity
      std::sort(order_.begin(), order_.end(), [&](int64_t a, int64_t b) {
        return null_ordered(a, b, [&](int64_t x, int64_t y) {
          int32_t cx = codes[x], cy = codes[y];
          return ranks ? ranks[cx] < ranks[cy] : cx < cy;
        });
      });
      break;
    }
  }

  // Nulls sort first, so they form a counted prefix of order_; the typed
  // key arrays (and the implicit B-tree built over them) cover only the
  // non-null suffix. String keys are materialized dictionary *ranks*: a
  // value's rank among the sorted distinct values is stable across the
  // Finalize re-code ComputeStats performs, unlike the raw code.
  null_count_ = col.nulls().null_count();
  const size_t non_null = order_.size() - static_cast<size_t>(null_count_);
  switch (col.type()) {
    case DataType::kInt64:
    case DataType::kDate:
    case DataType::kBool: {
      const int64_t* v = col.ints();
      std::vector<int64_t> keys(non_null);
      for (size_t i = 0; i < non_null; ++i) keys[i] = v[order_[null_count_ + i]];
      int_tree_.Build(std::move(keys));
      break;
    }
    case DataType::kDouble: {
      const double* v = col.doubles();
      std::vector<double> keys(non_null);
      for (size_t i = 0; i < non_null; ++i) keys[i] = v[order_[null_count_ + i]];
      double_tree_.Build(std::move(keys));
      break;
    }
    case DataType::kString: {
      const int32_t* codes = col.codes();
      const int32_t* ranks = col.dict().EnsureRanks();
      std::vector<int32_t> keys(non_null);
      for (size_t i = 0; i < non_null; ++i) {
        int32_t c = codes[order_[null_count_ + i]];
        keys[i] = ranks ? ranks[c] : c;
      }
      rank_tree_.Build(std::move(keys));
      break;
    }
  }
}

size_t SortedIndex::BelowCount(const Value& v, bool or_equal,
                               bool binary) const {
  const Column& col = store_->column(column_);
  // A null bound: only null cells compare <= it, none compare < it.
  if (v.is_null()) return or_equal ? static_cast<size_t>(null_count_) : 0;
  if (binary) {
    auto below = [&](int64_t pos) {
      int c = col.CompareAt(pos, v);
      return or_equal ? c <= 0 : c < 0;
    };
    return static_cast<size_t>(
        std::partition_point(order_.begin(), order_.end(), below) -
        order_.begin());
  }
  const size_t nulls = static_cast<size_t>(null_count_);  // all below v
  switch (col.type()) {
    case DataType::kInt64:
    case DataType::kDate:
    case DataType::kBool: {
      // Mirror Column::CompareAt: against a double bound the cell value is
      // compared as double; against the int family, exactly.
      if (v.type() == DataType::kDouble) {
        const double b = v.AsDouble();
        return nulls + (or_equal
                            ? int_tree_.PartitionPoint([b](int64_t k) {
                                return static_cast<double>(k) <= b;
                              })
                            : int_tree_.PartitionPoint([b](int64_t k) {
                                return static_cast<double>(k) < b;
                              }));
      }
      const int64_t b = v.AsInt64();
      return nulls +
             (or_equal
                  ? int_tree_.PartitionPoint([b](int64_t k) { return k <= b; })
                  : int_tree_.PartitionPoint([b](int64_t k) { return k < b; }));
    }
    case DataType::kDouble: {
      const double b = v.AsDouble();
      return nulls +
             (or_equal
                  ? double_tree_.PartitionPoint([b](double k) { return k <= b; })
                  : double_tree_.PartitionPoint([b](double k) { return k < b; }));
    }
    case DataType::kString: {
      // cell < s  <=>  rank(cell) < LowerBoundRank(s);
      // cell <= s <=>  rank(cell) < UpperBoundRank(s).
      const std::string& s = v.AsString();
      const int32_t t = or_equal ? col.dict().UpperBoundRank(s)
                                 : col.dict().LowerBoundRank(s);
      return nulls +
             rank_tree_.PartitionPoint([t](int32_t r) { return r < t; });
    }
  }
  return nulls;
}

std::pair<size_t, size_t> SortedIndex::BoundsFor(const Value* lo,
                                                 bool lo_inclusive,
                                                 const Value* hi,
                                                 bool hi_inclusive,
                                                 bool binary) const {
  size_t begin =
      lo != nullptr ? BelowCount(*lo, /*or_equal=*/!lo_inclusive, binary) : 0;
  size_t end = hi != nullptr ? BelowCount(*hi, /*or_equal=*/hi_inclusive, binary)
                             : order_.size();
  if (end < begin) end = begin;
  return {begin, end};
}

std::vector<int64_t> SortedIndex::RangeLookup(const Value* lo,
                                              bool lo_inclusive,
                                              const Value* hi,
                                              bool hi_inclusive) const {
  auto [begin, end] =
      BoundsFor(lo, lo_inclusive, hi, hi_inclusive, /*binary=*/false);
  return std::vector<int64_t>(order_.begin() + begin, order_.begin() + end);
}

std::vector<int64_t> SortedIndex::RangeLookupBinary(const Value* lo,
                                                    bool lo_inclusive,
                                                    const Value* hi,
                                                    bool hi_inclusive) const {
  auto [begin, end] =
      BoundsFor(lo, lo_inclusive, hi, hi_inclusive, /*binary=*/true);
  return std::vector<int64_t>(order_.begin() + begin, order_.begin() + end);
}

TableLoader::TableLoader(Table* table) : table_(table) {}

TableLoader& TableLoader::Int64(int64_t v) {
  table_->data_.column(col_++).AppendInt64(v);
  return *this;
}

TableLoader& TableLoader::Double(double v) {
  table_->data_.column(col_++).AppendDouble(v);
  return *this;
}

TableLoader& TableLoader::Str(const std::string& s) {
  table_->data_.column(col_++).AppendString(s);
  return *this;
}

TableLoader& TableLoader::Date(int64_t days) {
  table_->data_.column(col_++).AppendInt64(days);
  return *this;
}

TableLoader& TableLoader::Null() {
  table_->data_.column(col_++).AppendNull();
  return *this;
}

void TableLoader::EndRow() {
  DCHECK(col_ == table_->schema().num_columns());
  col_ = 0;
  table_->data_.FinishRow();
  table_->CommitMutation();
}

void Table::CommitMutation() {
  stats_valid_ = false;
  {
    std::lock_guard<std::mutex> lock(index_mu_);
    if (!indexes_.empty()) indexes_stale_ = true;
  }
  version_.fetch_add(1, std::memory_order_relaxed);
}

void Table::AppendRow(const Row& row) {
  DCHECK(static_cast<int>(row.size()) == schema_.num_columns());
  data_.AppendRow(row);
  CommitMutation();
}

void Table::AppendRows(const std::vector<Row>& rows) {
  for (const Row& r : rows) AppendRow(r);
}

void Table::Clear() {
  {
    std::lock_guard<std::mutex> lock(index_mu_);
    for (auto& [col, index] : indexes_) {
      DCHECK(index->pins() == 0);  // no consumer may hold spans across Clear
    }
    indexes_.clear();
    indexes_stale_ = false;
  }
  data_.Clear();
  stats_valid_ = false;
  version_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<Row> Table::MaterializeRows() const {
  std::vector<Row> rows(static_cast<size_t>(data_.num_rows()));
  for (int64_t i = 0; i < data_.num_rows(); ++i) data_.GetRow(i, &rows[i]);
  return rows;
}

void Table::ComputeStats() {
  // Re-code string dictionaries into value order first so the FSST-style
  // "code order = value order" property holds for loaded tables. Safe here:
  // nothing holds codes across a mutation, and stats follow a bulk load.
  data_.FinalizeDicts();

  stats_.row_count = row_count();
  stats_.columns.assign(schema_.num_columns(), ColumnStats{});
  const int64_t n = data_.num_rows();
  for (int c = 0; c < schema_.num_columns(); ++c) {
    ColumnStats& cs = stats_.columns[c];
    const Column& col = data_.column(c);
    const int64_t non_null = n - col.nulls().null_count();

    switch (col.type()) {
      case DataType::kString: {
        // Dictionary is sorted and deduplicated: NDV and min/max are free.
        const StringDictionary& dict = col.dict();
        cs.ndv = dict.size();
        if (!dict.empty() && non_null > 0) {
          cs.min = Value::String(dict.MinValue());
          cs.max = Value::String(dict.MaxValue());
        }
        break;
      }
      case DataType::kInt64:
      case DataType::kDate:
      case DataType::kBool: {
        const std::vector<int64_t> sorted =
            SortedValues(col.ints(), col, [](int64_t) { return true; });
        SetSortedStats(sorted, n, col.type() != DataType::kBool, &cs,
                       [&col](int64_t x) {
                         return col.type() == DataType::kDate ? Value::Date(x)
                                : col.type() == DataType::kBool
                                    ? Value::Bool(x != 0)
                                    : Value::Int64(x);
                       });
        break;
      }
      case DataType::kDouble: {
        // NaN cells are left out like nulls: they have no place in an
        // order, so they count toward neither ndv, min/max nor the bounds.
        const std::vector<double> sorted = SortedValues(
            col.doubles(), col, [](double x) { return !std::isnan(x); });
        SetSortedStats(sorted, n, true, &cs,
                       [](double x) { return Value::Double(x); });
        break;
      }
    }
  }
  stats_valid_ = true;
}

double ColumnStats::FractionAtMost(double v) const {
  if (!histogram_bounds.empty()) {
    const std::vector<double>& b = histogram_bounds;
    const int n = static_cast<int>(b.size()) - 1;
    if (v < b.front()) return 0.0;
    if (v >= b.back()) return 1.0;
    // Find the bucket containing v and interpolate inside it.
    auto it = std::upper_bound(b.begin(), b.end(), v);
    int bucket = static_cast<int>(it - b.begin()) - 1;
    double lo = b[bucket], hi = b[bucket + 1];
    double within = hi > lo ? (v - lo) / (hi - lo) : 1.0;
    return (static_cast<double>(bucket) + within) / n;
  }
  if (min.is_null() || max.is_null() || min.type() == DataType::kString) {
    return -1;
  }
  double lo = min.AsDouble(), hi = max.AsDouble();
  if (hi <= lo) return v >= hi ? 1.0 : 0.0;
  double frac = (v - lo) / (hi - lo);
  return frac < 0 ? 0 : (frac > 1 ? 1 : frac);
}

void Table::CreateIndex(int column) {
  CHECK(column >= 0 && column < schema_.num_columns());
  std::lock_guard<std::mutex> lock(index_mu_);
  auto it = indexes_.find(column);
  // Rebuilding over a pinned index would dangle the consumer's spans.
  if (it != indexes_.end()) DCHECK(it->second->pins() == 0);
  indexes_[column] = std::make_unique<SortedIndex>(data_, column);
}

const SortedIndex* Table::GetIndex(int column) const {
  // index_mu_ covers both the staleness check/rebuild and the map lookup:
  // two sessions racing GetIndex after an append must not both rebuild, and
  // neither may observe the map mid-rebuild. The returned pointer outlives
  // the lock — rebuilds only happen after a mutation, and mutations require
  // exclusive data access (no readers live).
  std::lock_guard<std::mutex> lock(index_mu_);
  if (indexes_stale_) {
    for (auto& [col, index] : indexes_) {
      // Append-triggered lazy rebuild under a live consumer: the consumer's
      // Pin makes this fail loudly instead of silently invalidating spans.
      DCHECK(index->pins() == 0);
      index = std::make_unique<SortedIndex>(data_, col);
    }
    indexes_stale_ = false;
  }
  auto it = indexes_.find(column);
  return it == indexes_.end() ? nullptr : it->second.get();
}

}  // namespace subshare

// Dedicated coverage for the columnar storage statistics layer:
// ColumnStats::FractionAtMost edge cases (empty-histogram fallback,
// all-null columns, single-distinct-value columns, out-of-range probes),
// the StringDictionary ordering contract, NullBitmap packing, Column type
// fidelity, and the ColumnStore footprint accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <set>

#include "storage/column_store.h"
#include "storage/table.h"

namespace subshare {
namespace {

// Must match kHistogramMinRows/kHistogramBuckets in table.cc: tables below
// the row floor fall back to min/max interpolation.
constexpr int64_t kHistogramMinRows = 100;

Schema IntDoubleStrSchema() {
  Schema s;
  s.AddColumn("i", DataType::kInt64);
  s.AddColumn("d", DataType::kDouble);
  s.AddColumn("s", DataType::kString);
  return s;
}

// ---------------------------------------------------------------------------
// FractionAtMost: empty-histogram fallback (min/max interpolation).

TEST(FractionAtMostTest, EmptyHistogramFallsBackToMinMaxInterpolation) {
  Table t(0, "t", IntDoubleStrSchema());
  // Far below kHistogramMinRows: no histogram gets built.
  for (int64_t i = 0; i <= 10; ++i) {
    t.AppendRow({Value::Int64(i), Value::Double(i * 1.0), Value::String("x")});
  }
  t.ComputeStats();
  const ColumnStats& cs = t.stats().columns[0];
  ASSERT_TRUE(cs.histogram_bounds.empty());
  EXPECT_DOUBLE_EQ(cs.FractionAtMost(5.0), 0.5);
  EXPECT_DOUBLE_EQ(cs.FractionAtMost(0.0), 0.0);
  EXPECT_DOUBLE_EQ(cs.FractionAtMost(10.0), 1.0);
  // Out-of-range probes clamp to [0, 1] rather than extrapolating.
  EXPECT_DOUBLE_EQ(cs.FractionAtMost(-100.0), 0.0);
  EXPECT_DOUBLE_EQ(cs.FractionAtMost(1e9), 1.0);
}

TEST(FractionAtMostTest, StringColumnHasNoNumericStats) {
  Table t(0, "t", IntDoubleStrSchema());
  t.AppendRow({Value::Int64(1), Value::Double(1.0), Value::String("a")});
  t.AppendRow({Value::Int64(2), Value::Double(2.0), Value::String("b")});
  t.ComputeStats();
  // min/max exist (they gate dictionary pruning) but are not numeric, so
  // the selectivity probe must report "no estimate" rather than guessing.
  const ColumnStats& cs = t.stats().columns[2];
  EXPECT_FALSE(cs.min.is_null());
  EXPECT_DOUBLE_EQ(cs.FractionAtMost(0.5), -1);
}

TEST(FractionAtMostTest, AllNullColumnReportsNoEstimate) {
  Table t(0, "t", IntDoubleStrSchema());
  for (int i = 0; i < 5; ++i) {
    t.AppendRow({Value::Null(DataType::kInt64), Value::Null(DataType::kDouble),
                 Value::Null(DataType::kString)});
  }
  t.ComputeStats();
  const ColumnStats& cs = t.stats().columns[0];
  EXPECT_TRUE(cs.min.is_null());
  EXPECT_TRUE(cs.max.is_null());
  EXPECT_EQ(cs.ndv, 0);
  EXPECT_DOUBLE_EQ(cs.FractionAtMost(0.0), -1);
}

TEST(FractionAtMostTest, EmptyTableReportsNoEstimate) {
  Table t(0, "t", IntDoubleStrSchema());
  t.ComputeStats();
  EXPECT_DOUBLE_EQ(t.stats().columns[0].FractionAtMost(42.0), -1);
}

TEST(FractionAtMostTest, SingleDistinctValueIsAStepFunction) {
  Table t(0, "t", IntDoubleStrSchema());
  for (int i = 0; i < 7; ++i) {
    t.AppendRow({Value::Int64(42), Value::Double(3.5), Value::String("k")});
  }
  t.ComputeStats();
  const ColumnStats& cs = t.stats().columns[0];
  EXPECT_EQ(cs.ndv, 1);
  // min == max: everything below the value is 0, at/above it is 1. A naive
  // (v - lo) / (hi - lo) here would divide by zero.
  EXPECT_DOUBLE_EQ(cs.FractionAtMost(41.0), 0.0);
  EXPECT_DOUBLE_EQ(cs.FractionAtMost(42.0), 1.0);
  EXPECT_DOUBLE_EQ(cs.FractionAtMost(43.0), 1.0);
}

// ---------------------------------------------------------------------------
// FractionAtMost: histogram path.

class HistogramTest : public ::testing::Test {
 protected:
  void SetUp() override {
    table_ = std::make_unique<Table>(0, "t", IntDoubleStrSchema());
    // 2 * kHistogramMinRows uniform rows: enough for an equi-depth
    // histogram on both numeric columns.
    n_ = 2 * kHistogramMinRows;
    for (int64_t i = 0; i < n_; ++i) {
      table_->AppendRow(
          {Value::Int64(i), Value::Double(i * 0.5), Value::String("x")});
    }
    table_->ComputeStats();
  }
  std::unique_ptr<Table> table_;
  int64_t n_ = 0;
};

TEST_F(HistogramTest, UniformColumnInterpolatesLinearly) {
  const ColumnStats& cs = table_->stats().columns[0];
  ASSERT_FALSE(cs.histogram_bounds.empty());
  // Uniform data: the histogram estimate should track v / (n-1) closely.
  for (double v : {10.0, 50.5, 99.0, 150.0}) {
    EXPECT_NEAR(cs.FractionAtMost(v), v / static_cast<double>(n_ - 1), 0.02)
        << "probe " << v;
  }
}

TEST_F(HistogramTest, OutOfRangeProbesClampToZeroAndOne) {
  const ColumnStats& cs = table_->stats().columns[0];
  ASSERT_FALSE(cs.histogram_bounds.empty());
  EXPECT_DOUBLE_EQ(cs.FractionAtMost(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(cs.FractionAtMost(-1e18), 0.0);
  // v == max sits in the final bucket's closed upper bound.
  EXPECT_DOUBLE_EQ(cs.FractionAtMost(static_cast<double>(n_ - 1)), 1.0);
  EXPECT_DOUBLE_EQ(cs.FractionAtMost(1e18), 1.0);
}

TEST_F(HistogramTest, SkewRespectedByEquiDepthBuckets) {
  // 180 copies of 0 and 20 distinct high values: an equi-depth histogram
  // puts ~90% of the mass at 0, which min/max interpolation would miss.
  Table t(0, "skew", IntDoubleStrSchema());
  for (int i = 0; i < 180; ++i) {
    t.AppendRow({Value::Int64(0), Value::Double(0), Value::String("x")});
  }
  for (int i = 0; i < 20; ++i) {
    t.AppendRow(
        {Value::Int64(1000 + i), Value::Double(0), Value::String("x")});
  }
  t.ComputeStats();
  const ColumnStats& cs = t.stats().columns[0];
  ASSERT_FALSE(cs.histogram_bounds.empty());
  EXPECT_GE(cs.FractionAtMost(0.0), 0.8);
  EXPECT_LE(cs.FractionAtMost(999.0), 1.0);
}

TEST(FractionAtMostTest, NullsExcludedFromHistogram) {
  Table t(0, "t", IntDoubleStrSchema());
  // Interleave nulls with 150 non-null uniform values; the histogram is
  // built over non-null cells only.
  for (int64_t i = 0; i < 150; ++i) {
    t.AppendRow({Value::Int64(i), Value::Double(0), Value::String("x")});
    t.AppendRow({Value::Null(DataType::kInt64), Value::Double(0),
                 Value::Null(DataType::kString)});
  }
  t.ComputeStats();
  const ColumnStats& cs = t.stats().columns[0];
  ASSERT_FALSE(cs.histogram_bounds.empty());
  EXPECT_NEAR(cs.FractionAtMost(74.5), 0.5, 0.02);
}

// ---------------------------------------------------------------------------
// StringDictionary ordering contract.

TEST(StringDictionaryTest, InsertionOrderCodesAndLazyRanks) {
  StringDictionary d;
  EXPECT_TRUE(d.sorted());  // vacuously, while empty
  EXPECT_EQ(d.Intern("banana"), 0);
  EXPECT_EQ(d.Intern("apple"), 1);
  EXPECT_EQ(d.Intern("cherry"), 2);
  EXPECT_EQ(d.Intern("banana"), 0);  // dedup keeps the original code
  EXPECT_EQ(d.size(), 3);
  EXPECT_FALSE(d.sorted());  // "apple" arrived after "banana"

  // Order queries go through the rank table while unsorted.
  const int32_t* ranks = d.EnsureRanks();
  ASSERT_NE(ranks, nullptr);
  EXPECT_EQ(ranks[0], 1);  // banana
  EXPECT_EQ(ranks[1], 0);  // apple
  EXPECT_EQ(ranks[2], 2);  // cherry
  EXPECT_EQ(d.MinValue(), "apple");
  EXPECT_EQ(d.MaxValue(), "cherry");
  EXPECT_EQ(d.LowerBoundRank("banana"), 1);
  EXPECT_EQ(d.UpperBoundRank("banana"), 2);
  // Probes absent from the dictionary still rank correctly.
  EXPECT_EQ(d.LowerBoundRank("aardvark"), 0);
  EXPECT_EQ(d.UpperBoundRank("zebra"), 3);
  EXPECT_EQ(d.Find("durian"), -1);
}

TEST(StringDictionaryTest, FinalizeRecodesToValueOrder) {
  StringDictionary d;
  d.Intern("banana");
  d.Intern("apple");
  d.Intern("cherry");
  std::vector<int32_t> remap = d.Finalize();
  ASSERT_EQ(remap.size(), 3u);
  EXPECT_EQ(remap[0], 1);  // banana: code 0 -> 1
  EXPECT_EQ(remap[1], 0);  // apple:  code 1 -> 0
  EXPECT_EQ(remap[2], 2);  // cherry: unchanged
  EXPECT_TRUE(d.sorted());
  EXPECT_EQ(d.EnsureRanks(), nullptr);  // identity ranks once sorted
  EXPECT_EQ(d.value(0), "apple");
  EXPECT_EQ(d.value(2), "cherry");
  EXPECT_EQ(d.Find("banana"), 1);
  // Already sorted: a second Finalize is a no-op with an empty remap.
  EXPECT_TRUE(d.Finalize().empty());
  // Interning in value order keeps the sorted property...
  EXPECT_EQ(d.Intern("durian"), 3);
  EXPECT_TRUE(d.sorted());
  // ...but an out-of-order intern breaks it again.
  d.Intern("aardvark");
  EXPECT_FALSE(d.sorted());
}

TEST(ColumnTest, FinalizeDictRewritesCodesThroughRemap) {
  Column c(DataType::kString);
  c.Append(Value::String("bbb"));
  c.Append(Value::String("aaa"));
  c.AppendNull();
  c.Append(Value::String("bbb"));
  c.FinalizeDict();
  EXPECT_TRUE(c.dict().sorted());
  EXPECT_EQ(c.Get(0).AsString(), "bbb");
  EXPECT_EQ(c.Get(1).AsString(), "aaa");
  EXPECT_TRUE(c.Get(2).is_null());
  EXPECT_EQ(c.Get(3).AsString(), "bbb");
  // Code order now equals value order.
  EXPECT_LT(c.codes()[1], c.codes()[0]);
  // The null placeholder (-1) must survive the remap untouched.
  EXPECT_EQ(c.codes()[2], -1);
}

// ---------------------------------------------------------------------------
// NullBitmap packing.

TEST(NullBitmapTest, PacksAcrossWordBoundaries) {
  NullBitmap b;
  for (int i = 0; i < 130; ++i) b.Append(i % 3 == 0);
  EXPECT_EQ(b.size(), 130);
  EXPECT_EQ(b.null_count(), 44);  // ceil(130 / 3)
  EXPECT_TRUE(b.any());
  for (int i = 0; i < 130; ++i) {
    EXPECT_EQ(b.Test(i), i % 3 == 0) << "bit " << i;
  }
  // 130 bits need three 64-bit words.
  EXPECT_EQ(b.ByteSize(), 3 * static_cast<int64_t>(sizeof(uint64_t)));
  b.Clear();
  EXPECT_EQ(b.size(), 0);
  EXPECT_FALSE(b.any());
}

// ---------------------------------------------------------------------------
// Column type fidelity + footprint accounting.

TEST(ColumnTest, GetPreservesDeclaredType) {
  Column i(DataType::kInt64), d(DataType::kDouble), dt(DataType::kDate),
      b(DataType::kBool);
  i.Append(Value::Int64(3));
  d.Append(Value::Double(3.0));
  dt.Append(Value::Date(3));
  b.Append(Value::Bool(true));
  EXPECT_EQ(i.Get(0).type(), DataType::kInt64);
  EXPECT_EQ(d.Get(0).type(), DataType::kDouble);
  EXPECT_EQ(dt.Get(0).type(), DataType::kDate);
  EXPECT_EQ(b.Get(0).type(), DataType::kBool);
  // The fuzzer compares rendered results: Int64(3)/Double(3)/Date(3) must
  // not collapse to one representation on the way through a column.
  EXPECT_NE(i.Get(0).ToString(), d.Get(0).ToString());
  EXPECT_NE(i.Get(0).ToString(), dt.Get(0).ToString());
}

// What `store`'s contents would cost in a row model: a vector of Rows of
// Values with inline string payloads.
int64_t RowModelBytes(const ColumnStore& store) {
  int64_t bytes = store.num_rows() * static_cast<int64_t>(sizeof(Row));
  for (int c = 0; c < store.num_columns(); ++c) {
    const Column& col = store.column(c);
    bytes += store.num_rows() * static_cast<int64_t>(sizeof(Value));
    if (col.type() != DataType::kString) continue;
    for (int64_t i = 0; i < col.size(); ++i) {
      if (!col.IsNull(i)) {
        bytes += static_cast<int64_t>(col.dict().value(col.codes()[i]).size());
      }
    }
  }
  return bytes;
}

TEST(ColumnStoreTest, RowRoundTripAndDictCompression) {
  Schema s = IntDoubleStrSchema();
  ColumnStore store(s);
  // A low-cardinality string column: dictionary storage should beat the
  // row model by a wide margin.
  for (int i = 0; i < 200; ++i) {
    store.AppendRow({Value::Int64(i), Value::Double(i * 0.25),
                     Value::String(i % 2 == 0 ? "EVEN-SEGMENT-VALUE"
                                              : "ODD-SEGMENT-VALUE")});
  }
  ASSERT_EQ(store.num_rows(), 200);
  Row r = store.GetRow(7);
  EXPECT_EQ(r[0].AsInt64(), 7);
  EXPECT_DOUBLE_EQ(r[1].AsDouble(), 1.75);
  EXPECT_EQ(r[2].AsString(), "ODD-SEGMENT-VALUE");
  EXPECT_EQ(store.column(2).dict().size(), 2);
  EXPECT_LT(store.ByteSize(), RowModelBytes(store));
  store.Clear();
  EXPECT_EQ(store.num_rows(), 0);
  EXPECT_EQ(store.column(2).size(), 0);
}

// ---------------------------------------------------------------------------
// ComputeStats against a set-based reference: ndv from a std::set of the
// non-null values, min/max by scan, histogram bounds read from the values
// sorted as doubles. NaN cells count as absent (like nulls).

struct RefStats {
  int64_t ndv = 0;
  bool any = false;
  double min = 0, max = 0;
  std::vector<double> bounds;
};

RefStats Reference(const std::vector<std::optional<double>>& cells,
                   bool histogram) {
  RefStats ref;
  std::set<double> distinct;  // -0.0 and 0.0 compare equal: one entry
  std::vector<double> values;
  for (const std::optional<double>& c : cells) {
    if (!c || std::isnan(*c)) continue;
    distinct.insert(*c);
    values.push_back(*c);
  }
  ref.ndv = static_cast<int64_t>(distinct.size());
  ref.any = !values.empty();
  if (ref.any) {
    ref.min = *std::min_element(values.begin(), values.end());
    ref.max = *std::max_element(values.begin(), values.end());
  }
  if (histogram && cells.size() >= 100 && values.size() >= 100) {
    std::sort(values.begin(), values.end());
    for (int b = 0; b <= 64; ++b) {
      ref.bounds.push_back(
          values[static_cast<size_t>((values.size() - 1) * (b / 64.0))]);
    }
  }
  return ref;
}

void ExpectMatches(const ColumnStats& cs, const RefStats& ref,
                   const std::string& what) {
  EXPECT_EQ(cs.ndv, ref.ndv) << what;
  ASSERT_EQ(!cs.min.is_null(), ref.any) << what;
  if (ref.any) {
    EXPECT_EQ(cs.min.AsDouble(), ref.min) << what;
    EXPECT_EQ(cs.max.AsDouble(), ref.max) << what;
  }
  EXPECT_EQ(cs.histogram_bounds, ref.bounds) << what;
}

TEST(TableStatsTest, SortedStatsMatchSetReference) {
  Schema s;
  s.AddColumn("i", DataType::kInt64);
  s.AddColumn("d", DataType::kDouble);
  s.AddColumn("b", DataType::kBool);
  s.AddColumn("dt", DataType::kDate);
  const int64_t kBig = (int64_t{1} << 53) + 1;  // not exact as a double
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  for (int rows : {0, 1, 7, 99, 100, 101, 640}) {
    Table t(0, "t", s);
    std::vector<std::vector<std::optional<double>>> cells(4);
    std::vector<int64_t> ints;
    for (int r = 0; r < rows; ++r) {
      const bool null = r % 9 == 4;
      const int64_t i = r % 5 == 0 ? kBig + r % 3 : (r * 7919) % 53 - 20;
      const double d = r % 6 == 0 ? -0.0 : r % 6 == 1 ? 0.0
                       : r % 31 == 2 ? kNan : (r * 37 % 101) / 4.0;
      t.AppendRow({null ? Value::Null(DataType::kInt64) : Value::Int64(i),
                   null ? Value::Null(DataType::kDouble) : Value::Double(d),
                   null ? Value::Null(DataType::kBool) : Value::Bool(r % 3 == 0),
                   null ? Value::Null(DataType::kDate) : Value::Date(9000 + r % 40)});
      if (!null) ints.push_back(i);
      cells[0].push_back(null ? std::nullopt
                              : std::optional<double>(static_cast<double>(i)));
      cells[1].push_back(null ? std::nullopt : std::optional<double>(d));
      cells[2].push_back(null ? std::nullopt
                              : std::optional<double>(r % 3 == 0 ? 1 : 0));
      cells[3].push_back(null ? std::nullopt
                              : std::optional<double>(9000 + r % 40));
    }
    t.ComputeStats();
    const std::string what = "rows=" + std::to_string(rows);
    // Integer ndv and min/max are exact in int64, beyond 2^53 too.
    const std::set<int64_t> distinct_ints(ints.begin(), ints.end());
    const ColumnStats& ci = t.stats().columns[0];
    EXPECT_EQ(ci.ndv, static_cast<int64_t>(distinct_ints.size())) << what;
    if (!ints.empty()) {
      EXPECT_EQ(ci.min.AsInt64(), *distinct_ints.begin()) << what;
      EXPECT_EQ(ci.max.AsInt64(), *distinct_ints.rbegin()) << what;
    }
    RefStats ref_i = Reference(cells[0], true);
    EXPECT_EQ(ci.histogram_bounds, ref_i.bounds) << what;
    ExpectMatches(t.stats().columns[1], Reference(cells[1], true),
                  what + " double");
    ExpectMatches(t.stats().columns[2], Reference(cells[2], false),
                  what + " bool");
    ExpectMatches(t.stats().columns[3], Reference(cells[3], true),
                  what + " date");
    if (!ints.empty()) {
      EXPECT_EQ(t.stats().columns[2].min.type(), DataType::kBool);
      EXPECT_EQ(t.stats().columns[3].min.type(), DataType::kDate);
    }
  }
}

TEST(TableStatsTest, AllNanDoubleColumnHasNoRange) {
  Schema s;
  s.AddColumn("d", DataType::kDouble);
  Table t(0, "t", s);
  for (int r = 0; r < 150; ++r) {
    t.AppendRow({Value::Double(std::numeric_limits<double>::quiet_NaN())});
  }
  t.ComputeStats();
  const ColumnStats& cs = t.stats().columns[0];
  EXPECT_EQ(cs.ndv, 0);
  EXPECT_TRUE(cs.min.is_null());
  EXPECT_TRUE(cs.histogram_bounds.empty());
}

// ---------------------------------------------------------------------------
// Mutations after stats invalidate them (the version/stats contract).

TEST(TableStatsTest, AppendInvalidatesStatsAndBumpsVersion) {
  Table t(0, "t", IntDoubleStrSchema());
  t.AppendRow({Value::Int64(1), Value::Double(1.0), Value::String("a")});
  t.ComputeStats();
  ASSERT_TRUE(t.stats_valid());
  uint64_t v = t.version();
  t.AppendRow({Value::Int64(2), Value::Double(2.0), Value::String("b")});
  EXPECT_FALSE(t.stats_valid());
  EXPECT_GT(t.version(), v);
}

}  // namespace
}  // namespace subshare

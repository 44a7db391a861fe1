#include <gtest/gtest.h>

#include "storage/table.h"
#include "storage/work_table.h"
#include "util/rng.h"

namespace subshare {
namespace {

Schema TwoColSchema() {
  Schema s;
  s.AddColumn("k", DataType::kInt64);
  s.AddColumn("v", DataType::kString);
  return s;
}

TEST(TableTest, AppendAndStats) {
  Table t(0, "t", TwoColSchema());
  t.AppendRow({Value::Int64(3), Value::String("a")});
  t.AppendRow({Value::Int64(1), Value::String("b")});
  t.AppendRow({Value::Int64(3), Value::String("a")});
  EXPECT_FALSE(t.stats_valid());
  t.ComputeStats();
  ASSERT_TRUE(t.stats_valid());
  EXPECT_EQ(t.stats().row_count, 3);
  EXPECT_EQ(t.stats().columns[0].min.AsInt64(), 1);
  EXPECT_EQ(t.stats().columns[0].max.AsInt64(), 3);
  EXPECT_EQ(t.stats().columns[0].ndv, 2);
  EXPECT_EQ(t.stats().columns[1].ndv, 2);
}

TEST(TableTest, StatsSkipNulls) {
  Table t(0, "t", TwoColSchema());
  t.AppendRow({Value::Null(DataType::kInt64), Value::String("a")});
  t.AppendRow({Value::Int64(5), Value::String("b")});
  t.ComputeStats();
  EXPECT_EQ(t.stats().columns[0].min.AsInt64(), 5);
  EXPECT_EQ(t.stats().columns[0].ndv, 1);
}

class SortedIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    table_ = std::make_unique<Table>(0, "t", TwoColSchema());
    for (int64_t k : {5, 2, 9, 2, 7, 1}) {
      table_->AppendRow({Value::Int64(k), Value::String("r")});
    }
    table_->CreateIndex(0);
  }
  std::unique_ptr<Table> table_;
};

TEST_F(SortedIndexTest, FullRange) {
  const SortedIndex* idx = table_->GetIndex(0);
  ASSERT_NE(idx, nullptr);
  auto all = idx->RangeLookup(nullptr, false, nullptr, false);
  EXPECT_EQ(all.size(), 6u);
  // Sorted order by key.
  int64_t prev = INT64_MIN;
  for (int64_t pos : all) {
    int64_t v = table_->GetRow(pos)[0].AsInt64();
    EXPECT_LE(prev, v);
    prev = v;
  }
}

TEST_F(SortedIndexTest, ClosedAndOpenBounds) {
  const SortedIndex* idx = table_->GetIndex(0);
  Value lo = Value::Int64(2), hi = Value::Int64(7);
  // [2, 7] -> 2,2,5,7
  EXPECT_EQ(idx->RangeLookup(&lo, true, &hi, true).size(), 4u);
  // (2, 7) -> 5
  EXPECT_EQ(idx->RangeLookup(&lo, false, &hi, false).size(),
            1u);
  // [2, 7) -> 2,2,5
  EXPECT_EQ(idx->RangeLookup(&lo, true, &hi, false).size(),
            3u);
  // unbounded below, <= 2 -> 1,2,2
  EXPECT_EQ(idx->RangeLookup(nullptr, false, &lo, true).size(),
            3u);
}

TEST_F(SortedIndexTest, EmptyRange) {
  const SortedIndex* idx = table_->GetIndex(0);
  Value lo = Value::Int64(100);
  EXPECT_TRUE(
      idx->RangeLookup(&lo, true, nullptr, false).empty());
  Value hi = Value::Int64(0);
  EXPECT_TRUE(
      idx->RangeLookup(nullptr, false, &hi, true).empty());
}

TEST(HistogramTest, EquiDepthBoundsOnSkewedData) {
  Schema s;
  s.AddColumn("x", DataType::kInt64);
  Table t(0, "t", s);
  // 900 values at 0..9, 100 values at 1000..1099: heavy skew.
  for (int i = 0; i < 900; ++i) t.AppendRow({Value::Int64(i % 10)});
  for (int i = 0; i < 100; ++i) t.AppendRow({Value::Int64(1000 + i)});
  t.ComputeStats();
  const ColumnStats& cs = t.stats().columns[0];
  ASSERT_FALSE(cs.histogram_bounds.empty());
  // ~90% of values are <= 9.
  EXPECT_NEAR(cs.FractionAtMost(9), 0.9, 0.05);
  // Uniform min/max interpolation would say ~0.8%; the histogram must not.
  EXPECT_GT(cs.FractionAtMost(9), 0.5);
  EXPECT_NEAR(cs.FractionAtMost(999), 0.9, 0.05);
  EXPECT_DOUBLE_EQ(cs.FractionAtMost(2000), 1.0);
  EXPECT_DOUBLE_EQ(cs.FractionAtMost(-5), 0.0);
}

TEST(HistogramTest, SmallAndStringColumnsFallBack) {
  Schema s;
  s.AddColumn("x", DataType::kInt64);
  s.AddColumn("name", DataType::kString);
  Table t(0, "t", s);
  for (int i = 0; i < 20; ++i) {
    t.AppendRow({Value::Int64(i), Value::String("s")});
  }
  t.ComputeStats();
  // Too few rows for a histogram: min/max interpolation.
  EXPECT_TRUE(t.stats().columns[0].histogram_bounds.empty());
  EXPECT_NEAR(t.stats().columns[0].FractionAtMost(9.5), 0.5, 0.01);
  // Strings: no numeric statistics at all.
  EXPECT_LT(t.stats().columns[1].FractionAtMost(1.0), 0);
}

TEST(HistogramTest, MonotoneNonDecreasing) {
  Schema s;
  s.AddColumn("x", DataType::kDouble);
  Table t(0, "t", s);
  Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    t.AppendRow({Value::Double(rng.NextDouble() * rng.NextDouble() * 100)});
  }
  t.ComputeStats();
  const ColumnStats& cs = t.stats().columns[0];
  double prev = -1;
  for (double v = -10; v <= 110; v += 2.5) {
    double f = cs.FractionAtMost(v);
    EXPECT_GE(f, prev - 1e-12);
    EXPECT_GE(f, 0.0);
    EXPECT_LE(f, 1.0);
    prev = f;
  }
}

TEST(TableTest, VersionChangesExactlyWhenContentsDo) {
  Table t(0, "t", TwoColSchema());
  EXPECT_EQ(t.version(), 0u);
  t.AppendRow({Value::Int64(1), Value::String("a")});
  EXPECT_EQ(t.version(), 1u);
  t.AppendRows({{Value::Int64(2), Value::String("b")},
                {Value::Int64(3), Value::String("c")}});
  EXPECT_EQ(t.version(), 3u);

  // Read-only operations never bump the version.
  uint64_t v = t.version();
  t.ComputeStats();
  t.CreateIndex(0);
  (void)t.GetIndex(0);
  (void)t.MaterializeRows();
  EXPECT_EQ(t.version(), v);

  // Clearing is a content change even when the table ends up empty, and
  // the counter never revisits an earlier value.
  t.Clear();
  EXPECT_GT(t.version(), v);
}

TEST(TableTest, StaleIndexRebuiltAfterAppend) {
  Table t(0, "t", TwoColSchema());
  t.AppendRow({Value::Int64(1), Value::String("a")});
  t.CreateIndex(0);
  t.AppendRow({Value::Int64(2), Value::String("b")});
  // The lazily rebuilt index sees the appended row.
  Value lo = Value::Int64(2);
  ASSERT_NE(t.GetIndex(0), nullptr);
  EXPECT_EQ(t.GetIndex(0)
                ->RangeLookup(&lo, true, nullptr, true)
                .size(),
            1u);
}

TEST(WorkTableTest, VersionTracksAppends) {
  WorkTable wt(TwoColSchema());
  EXPECT_EQ(wt.version(), 0u);
  wt.AppendRow({Value::Int64(1), Value::String("a")});
  EXPECT_EQ(wt.version(), 1u);
  Column ints(DataType::kInt64);
  Column strs(DataType::kString);
  for (const char* s : {"b", "c", "b"}) strs.AppendString(s);
  for (int64_t v : {2, 3, 4}) ints.AppendInt64(v);
  const int32_t rows[2] = {2, 1};  // cells 2 then 1
  wt.AppendBatch({ints.View(), strs.View()}, rows, 2);
  EXPECT_EQ(wt.version(), 3u);
  EXPECT_EQ(wt.row_count(), 3);
  EXPECT_EQ(wt.GetRow(1)[0].AsInt64(), 4);
  EXPECT_EQ(wt.GetRow(1)[1].AsString(), "b");
  EXPECT_EQ(wt.GetRow(2)[1].AsString(), "c");
}

TEST(WorkTableTest, ManagerLifecycle) {
  WorkTableManager mgr;
  EXPECT_EQ(mgr.Get(1), nullptr);
  WorkTable* wt = mgr.Create(1, TwoColSchema());
  wt->AppendRow({Value::Int64(1), Value::String("x")});
  EXPECT_EQ(mgr.Get(1)->row_count(), 1);
  mgr.Clear();
  EXPECT_EQ(mgr.Get(1), nullptr);
}

}  // namespace
}  // namespace subshare

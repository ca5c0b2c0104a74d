#include "util/timeseries.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace grunt {
namespace {

// Every query test runs on both storage shapes: a stand-alone TimeSeries
// (the one-column table) and the middle column of a three-column
// SeriesTable whose neighbouring columns hold other values on the same
// clock, so a query that strays into another column shows up.
class SeriesQueries : public ::testing::TestWithParam<bool> {
 protected:
  void Add(SimTime t, double v) {
    series_.Add(t, v);
    const double row[] = {-v - 1000, v, v + 1000};
    table_.AddRow(t, row);
  }
  void AddRamp() {
    for (int i = 0; i < 10; ++i) Add(Sec(i), static_cast<double>(i));
  }
  SeriesView view() const {
    return GetParam() ? table_.column(1) : series_.view();
  }

 private:
  TimeSeries series_;
  SeriesTable table_{3};
};

INSTANTIATE_TEST_SUITE_P(Storage, SeriesQueries, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "TableColumn" : "TimeSeries";
                         });

TEST_P(SeriesQueries, PointAccessors) {
  EXPECT_TRUE(view().empty());
  AddRamp();
  const SeriesView ts = view();
  ASSERT_EQ(ts.size(), 10u);
  EXPECT_FALSE(ts.empty());
  EXPECT_EQ(ts.at(3).time, Sec(3));
  EXPECT_DOUBLE_EQ(ts.at(3).value, 3.0);
  EXPECT_EQ(ts.back().time, Sec(9));
  EXPECT_DOUBLE_EQ(ts.back().value, 9.0);
  EXPECT_THROW(ts.at(10), std::out_of_range);
}

TEST_P(SeriesQueries, IterationVisitsEveryPointInOrder) {
  AddRamp();
  const SeriesView ts = view();
  std::size_t k = 0;
  for (const TimePoint p : ts) {
    EXPECT_EQ(p.time, ts.at(k).time);
    EXPECT_EQ(p.value, ts.at(k).value);
    ++k;
  }
  EXPECT_EQ(k, ts.size());
}

TEST_P(SeriesQueries, ViewSeesRowsAppendedAfterItWasTaken) {
  const SeriesView ts = view();
  Add(Sec(1), 5.0);
  Add(Sec(2), 7.0);
  ASSERT_EQ(ts.size(), 2u);
  EXPECT_DOUBLE_EQ(ts.WindowMean(0, Sec(3)), 6.0);
}

TEST_P(SeriesQueries, WindowStatsHalfOpenInterval) {
  AddRamp();
  const SeriesView ts = view();
  const RunningStats s = ts.WindowStats(Sec(2), Sec(5));
  EXPECT_EQ(s.count(), 3u);  // t = 2, 3, 4
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(ts.WindowMax(Sec(2), Sec(5)), 4.0);
  EXPECT_DOUBLE_EQ(ts.WindowMean(Sec(2), Sec(5)), 3.0);
}

TEST_P(SeriesQueries, WindowOutsideDataIsEmpty) {
  AddRamp();
  const SeriesView ts = view();
  EXPECT_EQ(ts.WindowStats(Sec(100), Sec(200)).count(), 0u);
  EXPECT_DOUBLE_EQ(ts.WindowMax(Sec(100), Sec(200)), 0.0);
}

TEST_P(SeriesQueries, LongestRunAboveThreshold) {
  // 1s-spaced samples: below, above x3, below, above x2.
  const double vals[] = {0, 1, 1, 1, 0, 1, 1};
  for (int i = 0; i < 7; ++i) Add(Sec(i), vals[i]);
  const SeriesView ts = view();
  // Runs measured between first and last qualifying sample times.
  EXPECT_EQ(ts.LongestRunAbove(0.5, 0, Sec(10)), Sec(2));  // t=1..3
  EXPECT_EQ(ts.LongestRunAbove(2.0, 0, Sec(10)), 0);
}

TEST_P(SeriesQueries, ResampleAveragesWindows) {
  AddRamp();
  const SeriesView ts = view();
  const auto out = ts.Resample(0, Sec(10), Sec(2));
  ASSERT_EQ(out.size(), 5u);
  EXPECT_DOUBLE_EQ(out[0].value, 0.5);   // mean(0,1)
  EXPECT_DOUBLE_EQ(out[4].value, 8.5);   // mean(8,9)
  EXPECT_EQ(out[1].time, Sec(2));
  EXPECT_THROW(ts.Resample(0, Sec(10), 0), std::invalid_argument);
}

TEST(TimeSeries, RejectsTimeGoingBackwards) {
  TimeSeries ts;
  ts.Add(Sec(2), 1.0);
  ts.Add(Sec(2), 2.0);  // equal time is fine
  EXPECT_THROW(ts.Add(Sec(1), 3.0), std::invalid_argument);
  EXPECT_EQ(ts.view().size(), 2u);
}

TEST(SeriesTable, ColumnsOfOneSamplerShareTimestamps) {
  SeriesTable table(3);
  for (int i = 0; i < 5; ++i) {
    const double row[] = {0.1 * i, 10.0 * i, 100.0 * i};
    table.AddRow(Ms(100 * i), row);
  }
  ASSERT_EQ(table.columns(), 3u);
  ASSERT_EQ(table.rows(), 5u);
  for (std::size_t c = 0; c < table.columns(); ++c) {
    const SeriesView col = table.column(c);
    ASSERT_EQ(col.size(), table.rows());
    for (std::size_t i = 0; i < col.size(); ++i) {
      EXPECT_EQ(col.at(i).time, table.column(0).at(i).time);
    }
  }
  EXPECT_DOUBLE_EQ(table.column(0).at(4).value, 0.4);
  EXPECT_DOUBLE_EQ(table.column(1).at(4).value, 40.0);
  EXPECT_DOUBLE_EQ(table.column(2).at(4).value, 400.0);
  // Each column answers its own window queries over the shared clock.
  EXPECT_DOUBLE_EQ(table.column(2).WindowMax(0, Ms(300)), 200.0);
  EXPECT_DOUBLE_EQ(table.column(1).WindowMean(Ms(100), Ms(300)), 15.0);
  EXPECT_THROW(table.column(3), std::out_of_range);
}

TEST(SeriesTable, RejectsABackwardsRowWhole) {
  SeriesTable table(2);
  const double row[] = {1.0, 2.0};
  table.AddRow(Sec(2), row);
  table.AddRow(Sec(2), row);  // equal time is fine
  EXPECT_THROW(table.AddRow(Sec(1), row), std::invalid_argument);
  // Nothing of the rejected row was stored, in any column.
  EXPECT_EQ(table.rows(), 2u);
  EXPECT_EQ(table.column(0).size(), 2u);
  EXPECT_EQ(table.column(1).size(), 2u);
}

TEST(SeriesTable, RejectsARowOfTheWrongWidth) {
  SeriesTable table(2);
  const double narrow[] = {1.0};
  const double wide[] = {1.0, 2.0, 3.0};
  EXPECT_THROW(table.AddRow(Sec(1), narrow), std::invalid_argument);
  EXPECT_THROW(table.AddRow(Sec(1), wide), std::invalid_argument);
  EXPECT_EQ(table.rows(), 0u);
}

}  // namespace
}  // namespace grunt

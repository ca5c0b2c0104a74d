#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "util/stats.h"
#include "util/time_types.h"

namespace grunt {

/// A (time, value) point emitted by a sampler or metric.
struct TimePoint {
  SimTime time;
  double value;
};

/// Read-only view of one value column of a SeriesTable, paired with the
/// table's time column. Cheap to copy (two pointers); it reads the table
/// live, so rows appended after the view was taken are visible through it.
/// It must not outlive the table it was taken from.
class SeriesView {
 public:
  /// Yields TimePoint by value: the point is assembled from the two columns.
  /// Like a vector's iterators, appending a row invalidates it.
  class const_iterator {
   public:
    TimePoint operator*() const { return {times_[i_], values_[i_]}; }
    const_iterator& operator++() {
      ++i_;
      return *this;
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.i_ == b.i_;
    }

   private:
    friend class SeriesView;
    const_iterator(const SimTime* times, const double* values, std::size_t i)
        : times_(times), values_(values), i_(i) {}
    const SimTime* times_;
    const double* values_;
    std::size_t i_;
  };

  SeriesView(const std::vector<SimTime>& times,
             const std::vector<double>& values)
      : times_(&times), values_(&values) {}

  std::size_t size() const { return values_->size(); }
  bool empty() const { return values_->empty(); }
  /// Bounds-checked (throws std::out_of_range).
  TimePoint at(std::size_t i) const {
    return {times_->at(i), values_->at(i)};
  }
  TimePoint back() const { return {times_->back(), values_->back()}; }

  const_iterator begin() const {
    return {times_->data(), values_->data(), 0};
  }
  const_iterator end() const {
    return {times_->data(), values_->data(), size()};
  }

  /// Statistics over points with time in [from, to).
  RunningStats WindowStats(SimTime from, SimTime to) const;

  /// Max value over [from, to); 0 if no points in window.
  double WindowMax(SimTime from, SimTime to) const;

  /// Mean value over [from, to); 0 if no points in window.
  double WindowMean(SimTime from, SimTime to) const;

  /// Longest run (duration) of consecutive points with value >= threshold
  /// inside [from, to), measured from the run's first qualifying sample to
  /// its last (so a single hot sample is a run of length 0).
  SimDuration LongestRunAbove(double threshold, SimTime from, SimTime to) const;

  /// Re-buckets the series into fixed-width windows of `width` covering
  /// [from, to), taking the mean of each window (empty windows -> 0).
  std::vector<TimePoint> Resample(SimTime from, SimTime to,
                                  SimDuration width) const;

 private:
  /// Index of the first row with time >= t.
  std::size_t LowerBound(SimTime t) const;

  const std::vector<SimTime>* times_;
  const std::vector<double>* values_;
};

/// Append-only samples of several series taken on one clock: a single time
/// column shared by every value column, so a tick costs one SimTime plus one
/// double per series. Rows must be appended in non-decreasing time order
/// (enforced).
class SeriesTable {
 public:
  explicit SeriesTable(std::size_t columns) : values_(columns) {}

  std::size_t columns() const { return values_.size(); }
  std::size_t rows() const { return times_.size(); }

  /// Appends one row: `t` plus one value per column, in column order.
  /// Throws std::invalid_argument if time went backwards or the row width
  /// differs from columns().
  void AddRow(SimTime t, std::span<const double> row);

  /// View of column `c` (throws std::out_of_range).
  SeriesView column(std::size_t c) const { return {times_, values_.at(c)}; }

 private:
  std::vector<SimTime> times_;
  std::vector<std::vector<double>> values_;
};

/// A stand-alone series: the one-column SeriesTable.
class TimeSeries {
 public:
  void Add(SimTime t, double value) { table_.AddRow(t, {&value, 1}); }
  SeriesView view() const { return table_.column(0); }

 private:
  SeriesTable table_{1};
};

}  // namespace grunt

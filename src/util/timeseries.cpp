#include "util/timeseries.h"

#include <algorithm>
#include <stdexcept>

namespace grunt {

void SeriesTable::AddRow(SimTime t, std::span<const double> row) {
  if (row.size() != values_.size()) {
    throw std::invalid_argument("SeriesTable::AddRow: row width mismatch");
  }
  if (!times_.empty() && t < times_.back()) {
    throw std::invalid_argument("SeriesTable::AddRow: time went backwards");
  }
  times_.push_back(t);
  for (std::size_t c = 0; c < row.size(); ++c) values_[c].push_back(row[c]);
}

std::size_t SeriesView::LowerBound(SimTime t) const {
  return static_cast<std::size_t>(
      std::lower_bound(times_->begin(), times_->end(), t) - times_->begin());
}

RunningStats SeriesView::WindowStats(SimTime from, SimTime to) const {
  RunningStats s;
  const std::vector<SimTime>& times = *times_;
  const std::vector<double>& values = *values_;
  for (std::size_t i = LowerBound(from); i < values.size(); ++i) {
    if (times[i] >= to) break;
    s.Add(values[i]);
  }
  return s;
}

double SeriesView::WindowMax(SimTime from, SimTime to) const {
  const RunningStats s = WindowStats(from, to);
  return s.count() == 0 ? 0.0 : s.max();
}

double SeriesView::WindowMean(SimTime from, SimTime to) const {
  return WindowStats(from, to).mean();
}

SimDuration SeriesView::LongestRunAbove(double threshold, SimTime from,
                                        SimTime to) const {
  SimDuration best = 0;
  bool in_run = false;
  SimTime run_start = 0;
  const std::vector<SimTime>& times = *times_;
  const std::vector<double>& values = *values_;
  for (std::size_t i = LowerBound(from); i < values.size(); ++i) {
    if (times[i] >= to) break;
    if (values[i] >= threshold) {
      if (!in_run) {
        in_run = true;
        run_start = times[i];
      }
      best = std::max(best, times[i] - run_start);
    } else {
      in_run = false;
    }
  }
  return best;
}

std::vector<TimePoint> SeriesView::Resample(SimTime from, SimTime to,
                                            SimDuration width) const {
  if (width <= 0) throw std::invalid_argument("Resample: width <= 0");
  std::vector<TimePoint> out;
  for (SimTime w = from; w < to; w += width) {
    out.push_back({w, WindowMean(w, std::min<SimTime>(w + width, to))});
  }
  return out;
}

}  // namespace grunt

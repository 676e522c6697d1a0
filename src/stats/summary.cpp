#include "stats/summary.h"

#include <cmath>

namespace mcdc::stats {

void RunningStats::add(double x) {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    if (x < min_) min_ = x;
    if (x > max_) max_ = x;
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double RunningStats::mean() const { return count_ == 0 ? 0.0 : mean_; }

double RunningStats::stddev() const {
  if (count_ == 0) return 0.0;
  return std::sqrt(m2_ / static_cast<double>(count_));
}

}  // namespace mcdc::stats

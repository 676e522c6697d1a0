// Mean / standard deviation accumulation for repeated experiment runs
// (Table III reports mean +/- std over 50 runs).
#pragma once

#include <cstddef>

namespace mcdc::stats {

class RunningStats {
 public:
  void add(double x);

  std::size_t count() const { return count_; }
  double mean() const;
  // Population standard deviation (the convention of the paper's "+/-").
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;  // Welford accumulator
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace mcdc::stats

// Paired bootstrap confidence intervals for method-comparison scores —
// complements the Wilcoxon (Table IV) and Friedman machinery with an effect
// size: not only *whether* method A beats method B, but by how much, with a
// percentile interval.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mcdc::stats {

struct BootstrapConfig {
  // Two-sided confidence level (0.95 -> the [2.5%, 97.5%] interval).
  double confidence = 0.95;
  std::uint64_t seed = 1;
};

struct BootstrapInterval {
  double estimate = 0.0;  // mean paired difference on the original sample
  double lower = 0.0;
  double upper = 0.0;
  // Fraction of resamples with mean difference <= 0 (one-sided evidence
  // that a > b; near 0 = strong evidence, ~0.5 = none).
  double fraction_non_positive = 0.0;

  bool excludes_zero() const { return lower > 0.0 || upper < 0.0; }
};

// Percentile bootstrap of mean(a[i] - b[i]) over paired scores, from 2000
// resamples.
BootstrapInterval paired_bootstrap(const std::vector<double>& a,
                                   const std::vector<double>& b,
                                   const BootstrapConfig& config = {});

// Percentile bootstrap of the mean of one sample.
BootstrapInterval mean_bootstrap(const std::vector<double>& sample,
                                 const BootstrapConfig& config = {});

}  // namespace mcdc::stats

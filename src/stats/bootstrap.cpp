#include "stats/bootstrap.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/rng.h"
#include "stats/summary.h"

namespace mcdc::stats {

namespace {

constexpr std::size_t kResamples = 2000;

BootstrapInterval bootstrap_means(const std::vector<double>& values,
                                  const BootstrapConfig& config) {
  if (values.empty()) {
    throw std::invalid_argument("bootstrap: empty sample");
  }
  if (config.confidence <= 0.0 || config.confidence >= 1.0) {
    throw std::invalid_argument("bootstrap: confidence outside (0, 1)");
  }
  const std::size_t n = values.size();

  BootstrapInterval out;
  out.estimate = mean_of(values);

  Rng rng(config.seed);
  std::vector<double> means;
  means.reserve(kResamples);
  std::size_t non_positive = 0;
  for (std::size_t b = 0; b < kResamples; ++b) {
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      sum += values[rng.below(n)];
    }
    const double m = sum / static_cast<double>(n);
    means.push_back(m);
    if (m <= 0.0) ++non_positive;
  }
  std::sort(means.begin(), means.end());

  const double alpha = 1.0 - config.confidence;
  const auto index = [&](double q) {
    const double pos = q * static_cast<double>(means.size() - 1);
    return means[static_cast<std::size_t>(std::llround(pos))];
  };
  out.lower = index(alpha / 2.0);
  out.upper = index(1.0 - alpha / 2.0);
  out.fraction_non_positive =
      static_cast<double>(non_positive) / static_cast<double>(kResamples);
  return out;
}

}  // namespace

BootstrapInterval paired_bootstrap(const std::vector<double>& a,
                                   const std::vector<double>& b,
                                   const BootstrapConfig& config) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("paired_bootstrap: size mismatch");
  }
  std::vector<double> diff(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) diff[i] = a[i] - b[i];
  return bootstrap_means(diff, config);
}

BootstrapInterval mean_bootstrap(const std::vector<double>& sample,
                                 const BootstrapConfig& config) {
  return bootstrap_means(sample, config);
}

}  // namespace mcdc::stats

#include "core/anomaly.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "core/profile_set.h"

namespace mcdc::core {

std::vector<std::size_t> AnomalyResult::top_fraction(double fraction) const {
  if (fraction <= 0.0) return {};
  fraction = std::min(fraction, 1.0);
  const auto count = static_cast<std::size_t>(
      std::ceil(fraction * static_cast<double>(ranking.size())));
  return {ranking.begin(),
          ranking.begin() + static_cast<std::ptrdiff_t>(count)};
}

AnomalyResult score_anomalies(const data::DatasetView& ds,
                              const MgcplResult& mgcpl,
                              const AnomalyConfig& config) {
  if (mgcpl.kappa.empty()) {
    throw std::invalid_argument("score_anomalies: empty MGCPL result");
  }
  const int sigma = mgcpl.sigma();
  int stage = config.stage;
  if (stage < 0) stage += sigma;
  if (stage < 0 || stage >= sigma) {
    throw std::invalid_argument("score_anomalies: stage out of range");
  }
  if (config.rarity_weight < 0.0 || config.rarity_weight > 1.0) {
    throw std::invalid_argument("score_anomalies: weight outside [0, 1]");
  }

  const auto& labels = mgcpl.partitions[static_cast<std::size_t>(stage)];
  const int k = mgcpl.kappa[static_cast<std::size_t>(stage)];
  const std::size_t n = ds.num_objects();

  // One histogram bank: profiles for the similarity term, sizes for the
  // rarity term.
  const ProfileSet bank = ProfileSet::from_assignment(ds, labels, k);

  // Rarity normalised against the smallest cluster (score 1) and the whole
  // dataset (score 0).
  const double log_n = std::log(static_cast<double>(n));
  AnomalyResult out;
  out.scores.resize(n);
  double max_rarity = 0.0;
  std::vector<double> rarity(static_cast<std::size_t>(k), 0.0);
  for (int l = 0; l < k; ++l) {
    const auto lu = static_cast<std::size_t>(l);
    rarity[lu] = bank.empty(l)
                     ? 0.0
                     : -std::log(bank.size(l) / static_cast<double>(n)) /
                           log_n;
    max_rarity = std::max(max_rarity, rarity[lu]);
  }
  if (max_rarity > 0.0) {
    for (double& r : rarity) r /= max_rarity;
  }

  const double w = config.rarity_weight;
  for (std::size_t i = 0; i < n; ++i) {
    const int l = labels[i];
    const double eccentricity = 1.0 - bank.score_one(l, ds.row(i));
    out.scores[i] =
        w * rarity[static_cast<std::size_t>(l)] + (1.0 - w) * eccentricity;
  }

  out.ranking.resize(n);
  std::iota(out.ranking.begin(), out.ranking.end(), std::size_t{0});
  std::stable_sort(out.ranking.begin(), out.ranking.end(),
                   [&](std::size_t a, std::size_t b) {
                     return out.scores[a] > out.scores[b];
                   });
  return out;
}

}  // namespace mcdc::core

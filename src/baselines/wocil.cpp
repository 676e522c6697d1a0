#include "baselines/wocil.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/profile_set.h"
#include "core/simd.h"

namespace mcdc::baselines {

namespace {

using core::ProfileSet;
using data::Dataset;
using data::Value;

// Deterministic seeding: densest object first, then objects maximising
// (Hamming distance to nearest chosen seed) * density — the stable
// initialisation WOCIL is known for.
std::vector<std::size_t> stable_seeds(const data::DatasetView& ds, int k) {
  const std::size_t n = ds.num_objects();
  const std::size_t d = ds.num_features();
  const auto counts = ds.value_counts();

  std::vector<double> density(n, 0.0);
  for (std::size_t r = 0; r < d; ++r) {
    for (std::size_t i = 0; i < n; ++i) {
      const Value v = ds.at(i, r);
      if (v != data::kMissing) {
        density[i] += counts[r][static_cast<std::size_t>(v)];
      }
    }
  }

  auto hamming = [&](std::size_t a, std::size_t b) {
    int dist = 0;
    for (std::size_t r = 0; r < d; ++r) {
      if (ds.at(a, r) != ds.at(b, r)) ++dist;
    }
    return dist;
  };

  std::vector<std::size_t> seeds;
  std::size_t first = 0;
  for (std::size_t i = 1; i < n; ++i) {
    if (density[i] > density[first]) first = i;
  }
  seeds.push_back(first);
  std::vector<int> nearest(n);
  for (std::size_t i = 0; i < n; ++i) nearest[i] = hamming(i, first);
  while (seeds.size() < static_cast<std::size_t>(k)) {
    std::size_t best = 0;
    double best_score = -1.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double score = static_cast<double>(nearest[i]) * density[i];
      if (score > best_score) {
        best_score = score;
        best = i;
      }
    }
    seeds.push_back(best);
    for (std::size_t i = 0; i < n; ++i) {
      nearest[i] = std::min(nearest[i], hamming(i, best));
    }
  }
  return seeds;
}

// Subspace weights of cluster l: concentration (1 - normalised entropy)
// per attribute, normalised to sum 1.
std::vector<double> subspace_weights(const ProfileSet& profiles, int l) {
  const std::size_t d = profiles.num_features();
  std::vector<double> w(d, 0.0);
  double total = 0.0;
  for (std::size_t r = 0; r < d; ++r) {
    const int m_r = profiles.cardinalities()[r];
    const double denom = profiles.non_null(l, r);
    if (m_r <= 1 || denom <= 0.0) {
      w[r] = 0.0;  // a single-valued attribute separates nothing
      continue;
    }
    double h = 0.0;
    for (int v = 0; v < m_r; ++v) {
      const double c = profiles.count(l, r, v);
      if (c == 0.0) continue;
      const double p = c / denom;
      h -= p * std::log(p);
    }
    w[r] = 1.0 - h / std::log(static_cast<double>(m_r));
    total += w[r];
  }
  if (total <= 0.0) {
    return std::vector<double>(d, 1.0 / static_cast<double>(d));
  }
  for (double& x : w) x /= total;
  return w;
}

}  // namespace

ClusterResult Wocil::cluster(const data::DatasetView& ds, int k,
                             std::uint64_t /*seed*/) const {
  const std::size_t n = ds.num_objects();
  if (n == 0) throw std::invalid_argument("Wocil: empty dataset");
  if (k < 1 || static_cast<std::size_t>(k) > n) {
    throw std::invalid_argument("Wocil: invalid k");
  }

  std::vector<int> labels(n, -1);
  ProfileSet profiles(ds.cardinalities(), k);
  const auto seeds = stable_seeds(ds, k);
  for (std::size_t l = 0; l < seeds.size(); ++l) {
    profiles.add(static_cast<int>(l), ds.row(seeds[l]));
    labels[seeds[l]] = static_cast<int>(l);
  }
  // Feature-major weight bank, weights[r * k + l] = w_rl — the layout
  // ProfileSet::weighted_score_all consumes — refreshed once per iteration.
  const std::size_t d = ds.num_features();
  const auto ku = static_cast<std::size_t>(k);
  std::vector<double> weights(d * ku, 1.0 / static_cast<double>(d));
  std::vector<double> scores(ku);

  for (int iter = 0; iter < config_.max_iterations; ++iter) {
    bool changed = false;
    for (std::size_t i = 0; i < n; ++i) {
      // Live scores (the sweep moves objects as it goes); ties go to the
      // lowest cluster id.
      const data::RowRef row = ds.row(i);
      profiles.weighted_score_all(row, weights.data(), scores.data());
      const int best = core::simd::kernels().argmax(scores.data(), ku);
      if (labels[i] != best) {
        if (labels[i] >= 0) {
          profiles.move(labels[i], best, row);
        } else {
          profiles.add(best, row);
        }
        labels[i] = best;
        changed = true;
      }
    }
    for (int l = 0; l < k; ++l) {
      const std::vector<double> w = subspace_weights(profiles, l);
      for (std::size_t r = 0; r < d; ++r) {
        weights[r * ku + static_cast<std::size_t>(l)] = w[r];
      }
    }
    if (!changed) break;
  }

  ClusterResult result;
  result.labels = std::move(labels);
  finalize_result(result, k);
  return result;
}

}  // namespace mcdc::baselines

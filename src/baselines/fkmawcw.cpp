#include "baselines/fkmawcw.h"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "common/rng.h"
#include "data/seeding.h"

namespace mcdc::baselines {

namespace {

using data::Dataset;
using data::Value;

constexpr double kEps = 1e-10;
// Objective-change stopping threshold.
constexpr double kObjectiveTolerance = 1e-6;

}  // namespace

ClusterResult Fkmawcw::cluster(const data::DatasetView& ds, int k,
                               std::uint64_t seed) const {
  ClusterResult result = run_once(
      ds, k, seed, config_.init == FkmawcwConfig::Init::density);
  if (!result.failed || !config_.restart_on_collapse) return result;
  // Collapse rescue: seeded random restarts (the density seeding is
  // deterministic, so repeating it cannot help).
  for (int attempt = 1; attempt <= config_.max_restarts; ++attempt) {
    const std::uint64_t derived =
        seed + 0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(attempt);
    result = run_once(ds, k, derived, /*density_init=*/false);
    if (!result.failed) return result;
  }
  return result;
}

ClusterResult Fkmawcw::run_once(const data::DatasetView& ds, int k,
                                std::uint64_t seed, bool density_init) const {
  const std::size_t n = ds.num_objects();
  const std::size_t d = ds.num_features();
  if (n == 0) throw std::invalid_argument("Fkmawcw: empty dataset");
  if (k < 1 || static_cast<std::size_t>(k) > n) {
    throw std::invalid_argument("Fkmawcw: invalid k");
  }
  const auto ku = static_cast<std::size_t>(k);

  Rng rng(seed);
  std::vector<std::vector<Value>> modes;
  if (density_init) {
    modes = data::density_seed_modes(ds, k);
  } else {
    modes.reserve(ku);
    for (std::size_t i : rng.sample_without_replacement(n, ku)) {
      modes.push_back(ds.row_copy(i));
    }
  }

  std::vector<std::vector<double>> v(ku, std::vector<double>(d, 1.0 / static_cast<double>(d)));
  std::vector<double> w(ku, 1.0 / static_cast<double>(k));
  std::vector<std::vector<double>> u(n, std::vector<double>(ku, 0.0));
  // Per-feature global value frequencies — the presentation-invariant
  // tie-break key of the mode update below.
  const std::vector<std::vector<int>> frequency = ds.value_counts();

  // Weighted dissimilarity of object i to cluster l:
  //   D_il = w_l^q * sum_r v_rl^p * delta(x_ir, z_lr).
  auto dissimilarity = [&](std::size_t i, std::size_t l) {
    double sum = 0.0;
    for (std::size_t r = 0; r < d; ++r) {
      const Value val = ds.at(i, r);
      if (val == data::kMissing || val != modes[l][r]) {
        sum += std::pow(v[l][r], config_.p);
      }
    }
    return std::pow(w[l], config_.q) * sum;
  };

  double previous_objective = std::numeric_limits<double>::infinity();
  for (int iter = 0; iter < config_.max_iterations; ++iter) {
    // --- memberships ---
    const double mexp = 1.0 / (config_.m - 1.0);
    for (std::size_t i = 0; i < n; ++i) {
      std::vector<double> dist(ku);
      bool exact = false;
      for (std::size_t l = 0; l < ku; ++l) {
        dist[l] = dissimilarity(i, l);
        if (dist[l] <= kEps) exact = true;
      }
      if (exact) {
        // Crisp membership on the first zero-distance cluster. Duplicate
        // modes — the case where this would funnel everything into one
        // cluster — are re-seeded after every mode update, so a genuine
        // collapse here means the data cannot support k distinct clusters
        // and is reported via the failed flag.
        for (std::size_t l = 0; l < ku; ++l) u[i][l] = 0.0;
        for (std::size_t l = 0; l < ku; ++l) {
          if (dist[l] <= kEps) {
            u[i][l] = 1.0;
            break;
          }
        }
        continue;
      }
      for (std::size_t l = 0; l < ku; ++l) {
        double denom = 0.0;
        for (std::size_t t = 0; t < ku; ++t) {
          denom += std::pow(dist[l] / dist[t], mexp);
        }
        u[i][l] = 1.0 / denom;
      }
    }

    // Starved clusters (negligible membership mass) are re-seeded onto the
    // worst-fitting object — the fuzzy analogue of k-modes' empty-cluster
    // remedy — so the algorithm actually uses all k clusters when the data
    // supports them.
    {
      std::vector<double> mass(ku, 0.0);
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t l = 0; l < ku; ++l) mass[l] += u[i][l];
      }
      for (std::size_t l = 0; l < ku; ++l) {
        if (mass[l] >= 1.0) continue;
        std::size_t farthest = 0;
        double worst = -1.0;
        for (std::size_t i = 0; i < n; ++i) {
          double best_dist = dissimilarity(i, 0);
          for (std::size_t t = 1; t < ku; ++t) {
            best_dist = std::min(best_dist, dissimilarity(i, t));
          }
          if (best_dist > worst) {
            worst = best_dist;
            farthest = i;
          }
        }
        for (std::size_t t = 0; t < ku; ++t) u[farthest][t] = 0.0;
        u[farthest][l] = 1.0;
      }
    }

    // --- modes: membership-weighted per-attribute majority ---
    for (std::size_t l = 0; l < ku; ++l) {
      for (std::size_t r = 0; r < d; ++r) {
        std::vector<double> mass(static_cast<std::size_t>(ds.cardinality(r)), 0.0);
        for (std::size_t i = 0; i < n; ++i) {
          const Value val = ds.at(i, r);
          if (val == data::kMissing) continue;
          mass[static_cast<std::size_t>(val)] += std::pow(u[i][l], config_.m);
        }
        // Exact mass ties break to the globally more frequent value, not
        // the smaller code: a bijective re-coding of the categories must
        // not be able to steer the mode (and through it the partition) —
        // frequencies survive any renaming, code order does not. (Two
        // values tying on BOTH keys still fall back to the smaller code;
        // no deterministic code-space choice can be recode-equivariant
        // there, and such values are near-interchangeable anyway.)
        double best_mass = -1.0;
        int best_freq = -1;
        Value best_value = 0;
        for (std::size_t t = 0; t < mass.size(); ++t) {
          const int freq = frequency[r][t];
          if (mass[t] > best_mass ||
              (mass[t] == best_mass && freq > best_freq)) {
            best_mass = mass[t];
            best_freq = freq;
            best_value = static_cast<Value>(t);
          }
        }
        modes[l][r] = best_value;
      }
    }
    // Duplicate modes make two clusters indistinguishable and eventually
    // collapse the partition; re-seed the later duplicate with the object
    // farthest from it (guaranteed distinct whenever the data has a second
    // distinct row), as k-modes does for empty clusters.
    for (std::size_t l = 1; l < ku; ++l) {
      bool duplicate = false;
      for (std::size_t t = 0; t < l && !duplicate; ++t) {
        duplicate = modes[l] == modes[t];
      }
      if (!duplicate) continue;
      std::size_t farthest = 0;
      int worst = -1;
      for (std::size_t i = 0; i < n; ++i) {
        int mismatches = 0;
        for (std::size_t r = 0; r < d; ++r) {
          const Value val = ds.at(i, r);
          if (val == data::kMissing || val != modes[l][r]) ++mismatches;
        }
        if (mismatches > worst) {
          worst = mismatches;
          farthest = i;
        }
      }
      modes[l] = ds.row_copy(farthest);
    }

    // --- attribute weights per cluster ---
    const double pexp = 1.0 / (config_.p - 1.0);
    for (std::size_t l = 0; l < ku; ++l) {
      std::vector<double> mismatch(d, 0.0);
      for (std::size_t i = 0; i < n; ++i) {
        const double um = std::pow(u[i][l], config_.m);
        for (std::size_t r = 0; r < d; ++r) {
          const Value val = ds.at(i, r);
          if (val == data::kMissing || val != modes[l][r]) {
            mismatch[r] += um;
          }
        }
      }
      for (std::size_t r = 0; r < d; ++r) {
        double denom = 0.0;
        for (std::size_t t = 0; t < d; ++t) {
          denom += std::pow((mismatch[r] + kEps) / (mismatch[t] + kEps), pexp);
        }
        v[l][r] = 1.0 / denom;
      }
    }

    // --- cluster weights ---
    const double qexp = 1.0 / (config_.q - 1.0);
    {
      std::vector<double> dispersion(ku, 0.0);
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t l = 0; l < ku; ++l) {
          double sum = 0.0;
          for (std::size_t r = 0; r < d; ++r) {
            const Value val = ds.at(i, r);
            if (val == data::kMissing || val != modes[l][r]) {
              sum += std::pow(v[l][r], config_.p);
            }
          }
          dispersion[l] += std::pow(u[i][l], config_.m) * sum;
        }
      }
      for (std::size_t l = 0; l < ku; ++l) {
        double denom = 0.0;
        for (std::size_t t = 0; t < ku; ++t) {
          denom += std::pow((dispersion[l] + kEps) / (dispersion[t] + kEps), qexp);
        }
        w[l] = 1.0 / denom;
      }
    }

    // --- objective & convergence ---
    double objective = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t l = 0; l < ku; ++l) {
        objective += std::pow(u[i][l], config_.m) * dissimilarity(i, l);
      }
    }
    if (std::abs(previous_objective - objective) < kObjectiveTolerance) break;
    previous_objective = objective;
  }

  ClusterResult result;
  result.labels.assign(n, 0);
  // Defuzzify by maximal membership. Exact ties (frequent with integer
  // Hamming distances) break to the cluster with the larger total
  // membership mass: the key is derived from cluster *content*, so the
  // choice commutes with row shuffling and category re-coding — an object
  // index or cluster id in the tie-break would leak the presentation into
  // the partition (it did; see test_metamorphic.cpp).
  std::vector<double> total_mass(ku, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t l = 0; l < ku; ++l) total_mass[l] += u[i][l];
  }
  for (std::size_t i = 0; i < n; ++i) {
    // The true maximum first, then the mass tie-break among clusters
    // within tolerance of *it* — comparing against a running best would
    // let a chain of pairwise near-ties drift below the real maximum.
    double best_u = u[i][0];
    for (std::size_t l = 1; l < ku; ++l) best_u = std::max(best_u, u[i][l]);
    std::size_t best_l = ku;
    for (std::size_t l = 0; l < ku; ++l) {
      if (u[i][l] < best_u - 1e-12) continue;
      if (best_l == ku || total_mass[l] > total_mass[best_l]) best_l = l;
    }
    result.labels[i] = static_cast<int>(best_l);
  }
  finalize_result(result, k);
  return result;
}

}  // namespace mcdc::baselines

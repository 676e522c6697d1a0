#include "baselines/kmodes.h"

#include <limits>
#include <stdexcept>
#include <utility>

#include "common/rng.h"
#include "core/profile_set.h"

namespace mcdc::baselines {

namespace {

using data::Dataset;
using data::Value;

// Hamming distance to a mode; a missing cell always counts as a mismatch,
// matching the treatment in Huang's formulation.
int distance(const data::DatasetView& ds, std::size_t i,
             const std::vector<Value>& z) {
  int dist = 0;
  for (std::size_t r = 0; r < z.size(); ++r) {
    const Value v = ds.at(i, r);
    if (v == data::kMissing || v != z[r]) ++dist;
  }
  return dist;
}

}  // namespace

ClusterResult KModes::cluster(const data::DatasetView& ds, int k,
                              std::uint64_t seed) const {
  const std::size_t n = ds.num_objects();
  if (n == 0) throw std::invalid_argument("KModes: empty dataset");
  if (k < 1 || static_cast<std::size_t>(k) > n) {
    throw std::invalid_argument("KModes: invalid k");
  }

  Rng rng(seed);
  std::vector<std::vector<Value>> modes;
  modes.reserve(static_cast<std::size_t>(k));
  for (std::size_t i :
       rng.sample_without_replacement(n, static_cast<std::size_t>(k))) {
    modes.push_back(ds.row_copy(i));
  }

  std::vector<int> labels(n, -1);
  auto assign = [&](std::vector<int>& out) {
    for (std::size_t i = 0; i < n; ++i) {
      int best = 0;
      int best_dist = std::numeric_limits<int>::max();
      for (int l = 0; l < k; ++l) {
        const int dist = distance(ds, i, modes[static_cast<std::size_t>(l)]);
        if (dist < best_dist) {
          best_dist = dist;
          best = l;
        }
      }
      out[i] = best;
    }
  };

  assign(labels);
  std::vector<int> next(n, -1);
  for (int iter = 0; iter < config_.max_iterations; ++iter) {
    // Recompute modes from the current partition.
    const core::ProfileSet bank =
        core::ProfileSet::from_assignment(ds, labels, k);
    for (int l = 0; l < k; ++l) {
      if (bank.empty(l)) {
        // Re-seed the empty cluster with the worst-fitting object.
        std::size_t farthest = 0;
        int worst = -1;
        for (std::size_t i = 0; i < n; ++i) {
          const int dist = distance(
              ds, i, modes[static_cast<std::size_t>(labels[i])]);
          if (dist > worst) {
            worst = dist;
            farthest = i;
          }
        }
        modes[static_cast<std::size_t>(l)] = ds.row_copy(farthest);
        continue;
      }
      // Huang's update takes the first most frequent value, and code 0
      // where the cluster observed no value of the feature.
      std::vector<Value> mode = bank.mode(l);
      for (Value& v : mode) {
        if (v == data::kMissing) v = 0;
      }
      modes[static_cast<std::size_t>(l)] = std::move(mode);
    }

    assign(next);
    if (next == labels) break;
    std::swap(labels, next);
  }

  ClusterResult result;
  result.labels = std::move(labels);
  finalize_result(result, k);
  return result;
}

}  // namespace mcdc::baselines

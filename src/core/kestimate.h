// Number-of-clusters estimation from MGCPL's granularity series.
//
// The paper reads k* off the staircase of Fig. 5: the coarsest converged
// granularity k_sigma is MGCPL's estimate. Real deployments often want the
// whole candidate list with evidence attached, so this module scores every
// recorded granularity with ground-truth-free criteria:
//
//   - persistence: the relative elimination gap around the stage
//     (a granularity that survives while many clusters die before and few
//     after is a natural plateau of the staircase);
//   - silhouette: the categorical silhouette of the stage's partition on
//     the original data (metrics/internal.h).
//
// The recommended k maximises the blended score (0.7 silhouette + 0.3
// persistence); the paper's own rule (always k_sigma) is available via
// KEstimateConfig::prefer_coarsest.
#pragma once

#include <vector>

#include "core/mgcpl.h"
#include "data/dataset.h"
#include "data/view.h"

namespace mcdc::core {

struct KCandidate {
  int k = 0;
  int stage = 0;           // index into Gamma (0 = finest)
  double persistence = 0;  // in [0, 1], higher = more prominent plateau
  double silhouette = 0;   // categorical silhouette of the partition
  double score = 0;        // blended ranking criterion
};

struct KEstimateConfig {
  // Reproduce the paper's rule: recommend k_sigma regardless of scores.
  bool prefer_coarsest = false;
};

struct KEstimate {
  int recommended_k = 0;
  int recommended_stage = 0;
  // All recorded granularities, finest first, with their evidence.
  std::vector<KCandidate> candidates;
};

// Scores every granularity of a completed MGCPL analysis against the data
// it was learned from.
KEstimate estimate_k(const data::DatasetView& ds, const MgcplResult& mgcpl,
                     const KEstimateConfig& config = {});

// Convenience: run MGCPL and estimate in one call.
KEstimate estimate_k(const data::DatasetView& ds, std::uint64_t seed,
                     const KEstimateConfig& config = {});

}  // namespace mcdc::core

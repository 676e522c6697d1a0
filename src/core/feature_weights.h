// Feature-to-cluster contribution weights (paper Eqs. 15-18).
//
// For each feature F_r and cluster C_l the weight w_rl combines:
//   alpha_rl (Eq. 15) — inter-cluster difference: Euclidean distance between
//     the value distribution of F_r inside C_l and outside it, normalised by
//     sqrt(2) so it lies in [0, 1];
//   beta_rl  (Eq. 16) — intra-cluster similarity: mean self-similarity of
//     members, i.e. how concentrated the cluster is along F_r;
//   H_rl = alpha_rl * beta_rl (Eq. 17), normalised per cluster into the
//   probabilistic weights w_rl = H_rl / sum_t H_tl (Eq. 18).
#pragma once

#include <cstddef>
#include <vector>

#include "core/profile_set.h"
#include "data/dataset.h"
#include "data/view.h"

namespace mcdc::core {

// Global per-feature value counts of the learning substrate (Psi over X —
// the viewed rows, not the backing dataset), used to derive the complement
// distribution X \ C_l without a second pass.
struct GlobalCounts {
  explicit GlobalCounts(const data::DatasetView& ds);

  std::vector<std::vector<int>> counts;  // [feature][value]
  std::vector<int> non_null;             // [feature]
};

// Eq. (15) for cluster l of the bank: separation of the cluster's value
// distribution along feature r from the rest of the data.
double inter_cluster_difference(const GlobalCounts& global,
                                const ProfileSet& set, int l, std::size_t r);
// Eq. (16): concentration of cluster l along feature r.
double intra_cluster_similarity(const ProfileSet& set, int l, std::size_t r);
// Eqs. (15)-(18) for cluster l: the length-d probability vector w_{.l}.
// Falls back to uniform weights when every H_rl is zero (e.g. a cluster of
// fully identical rows equal to the global distribution).
std::vector<double> feature_weights(const GlobalCounts& global,
                                    const ProfileSet& set, int l);

}  // namespace mcdc::core

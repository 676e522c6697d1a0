// External cluster validity indices used in the paper's evaluation:
// ACC (clustering accuracy via optimal label matching), ARI, AMI and the
// Fowlkes-Mallows score.
//
// All functions take (predicted labels, ground-truth labels) with dense
// non-negative ids and are symmetric where the underlying index is.
#pragma once

#include <vector>

namespace mcdc::metrics {

// Clustering accuracy: fraction of objects whose predicted cluster maps to
// their true class under the optimal one-to-one cluster<->class matching
// (Hungarian algorithm). Range [0, 1].
double accuracy(const std::vector<int>& predicted,
                const std::vector<int>& truth);

// Adjusted Rand Index (pair counting, chance-corrected). Range [-1, 1];
// 1 for identical partitions, ~0 for random ones.
double adjusted_rand_index(const std::vector<int>& a,
                           const std::vector<int>& b);

// Adjusted Mutual Information with arithmetic-mean normalisation
// (sklearn's default). Range (-1, 1]; 1 for identical partitions, ~0 for
// independent ones. Uses the exact hypergeometric expected-MI formula.
double adjusted_mutual_information(const std::vector<int>& a,
                                   const std::vector<int>& b);

struct Scores {
  double acc = 0.0;
  double ari = 0.0;
  double ami = 0.0;
  // Fowlkes-Mallows: geometric mean of pairwise precision and recall.
  // Range [0, 1].
  double fm = 0.0;
};

// Convenience bundle: the paper's four indices in Table III order.
Scores score_all(const std::vector<int>& predicted,
                 const std::vector<int>& truth);

}  // namespace mcdc::metrics

// Internal (ground-truth-free) cluster validity for categorical partitions.
//
// The paper evaluates with external indices because its benchmark datasets
// carry class labels; real deployments of MCDC (node grouping, data
// pre-partitioning, k selection) have no labels, so the library also ships
// internal indices defined directly on the categorical table:
//
//   - compactness: mean frequency-based object-to-own-cluster similarity
//     (the quantity MGCPL's objective Eq. (3) maximises);
//   - separation: mean Hamming distance between cluster modes;
//   - categorical silhouette: Hamming silhouette computed against cluster
//     value-histograms, O(n d k) instead of the naive O(n^2 d);
//   - category utility: the COBWEB/CLASSIT partition score
//     CU = (1/k) sum_l P(C_l) sum_{r,v} [P(v | C_l)^2 - P(v)^2];
//   - a Davies-Bouldin analogue on mode distances (lower is better).
//
// All functions take the data table plus dense labels in [0, k) and ignore
// missing cells the same NULL-aware way as the core similarity (Sec. II-A).
// Every index reads one statistic, each cluster's count of every feature
// value: the core::ProfileSet that from_assignment builds over the labels
// (k = max label + 1), the bank fitting and serving use too.
#pragma once

#include <cstddef>
#include <vector>

#include "core/profile_set.h"
#include "data/dataset.h"
#include "data/view.h"

namespace mcdc::metrics {

// Mean per-feature mismatch probability between object i and cluster l of
// `bank`:
//   (1/|R|) sum_{r in R} (1 - count(l, r, x_ir) / non_null(l, r)),
// over the features R compared: x_ir is present and the cluster has an
// observed value there (non_null > 0); 0 when R is empty. The histogram
// form of the mean Hamming distance from the object to the cluster's
// members. `exclude_self` makes the estimate leave-one-out (required by
// the silhouette's a(i) term): both counts drop by one, and a feature
// the object alone observes in the cluster is not compared. The bank must
// hold integral counts (a from_assignment bank), so every quotient is the
// exact ratio of member counts.
double mean_distance(const core::ProfileSet& bank, const data::DatasetView& ds,
                     std::size_t i, int l, bool exclude_self);

// Histogram-based categorical silhouette, averaged over objects. Range
// [-1, 1]; objects in singleton clusters contribute 0 (sklearn convention).
// a(i) = mean_distance(bank, ds, i, own, true); b(i) = the minimum of
// mean_distance(bank, ds, i, l, false) over the other non-empty clusters.
// The result is bit-identical to evaluating exactly that, at every SIMD
// dispatch level: each object sweeps its present cells once and the k
// lanes of core::simd::Kernels::acc_f64 repeat mean_distance's additions
// in its order, so the sweep costs O(d k) additions per object and only
// k divisions instead of d k.
double categorical_silhouette(const data::DatasetView& ds,
                              const std::vector<int>& labels);

struct InternalScores {
  // Mean over objects of the Sec. II-A similarity to their own cluster.
  // Range [0, 1], higher = tighter clusters.
  double compactness = 0.0;
  // Mean normalised Hamming distance between all pairs of cluster modes.
  // Range [0, 1], higher = better separated. 0 when k < 2.
  double separation = 0.0;
  // categorical_silhouette, bit for bit.
  double silhouette = 0.0;
  // Category utility of the partition. Higher is better; 0 for k = 1 and
  // for clusters that match the global value distribution.
  double category_utility = 0.0;
  // Davies-Bouldin analogue: mean over clusters of the worst
  // (scatter_l + scatter_t) / mode_distance(l, t) ratio, with scatter the
  // mean member-to-mode Hamming distance. Lower is better; +inf when two
  // cluster modes coincide; 0 when k < 2.
  double davies_bouldin = 0.0;
};

// All five internal indices from one label bank and one mode table. Both
// functions throw std::invalid_argument on a negative label or when the
// label count differs from the object count.
InternalScores internal_scores(const data::DatasetView& ds,
                               const std::vector<int>& labels);

}  // namespace mcdc::metrics

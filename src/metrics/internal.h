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
#pragma once

#include <cstddef>
#include <vector>

#include "data/dataset.h"
#include "data/view.h"

namespace mcdc::metrics {

// Per-cluster per-feature value-frequency histograms — the sufficient
// statistic every internal index here is computed from. Stored as one flat
// bank in core::ProfileSet's value-major layout,
// counts_[(offset[r] + v) * k + l], filled by stride-1 column sweeps over
// the dataset bank; the k counts of a fixed (feature, value) cell sit on
// one cache line for the per-object mean_distance sweeps.
class PartitionProfile {
 public:
  PartitionProfile(const data::DatasetView& ds, const std::vector<int>& labels);

  int num_clusters() const { return k_; }
  std::size_t cluster_size(int l) const { return sizes_[l]; }

  // |{i in C_l : x_ir = v}|.
  int count(int l, std::size_t r, data::Value v) const {
    return counts_[(offsets_[r] + static_cast<std::size_t>(v)) *
                       static_cast<std::size_t>(k_) +
                   static_cast<std::size_t>(l)];
  }
  // |{i in C_l : x_ir != NULL}|.
  int non_null(int l, std::size_t r) const {
    return non_null_[r * static_cast<std::size_t>(k_) +
                     static_cast<std::size_t>(l)];
  }

  // Mode (most frequent value, ties to the smaller code) of feature r in
  // cluster l; kMissing when the cluster has no observed value there.
  data::Value mode(int l, std::size_t r) const;

  // Mean per-feature mismatch probability between object row and cluster l:
  //   (1/|R|) sum_{r in R} (1 - count(l, r, x_ir) / non_null(l, r)),
  // over the features R compared: x_ir is present and the cluster has an
  // observed value there (non_null > 0); 0 when R is empty. The histogram
  // form of the mean Hamming distance from the object to the cluster's
  // members. `exclude_self` makes the estimate leave-one-out (required by
  // the silhouette's a(i) term): both counts drop by one, and a feature
  // the object alone observes in the cluster is not compared.
  double mean_distance(const data::DatasetView& ds, std::size_t i, int l,
                       bool exclude_self) const;

 private:
  int k_ = 0;
  std::vector<std::size_t> sizes_;
  std::vector<std::size_t> offsets_;  // offsets_[r] = sum of m_t, t < r
  std::vector<int> counts_;           // [(offset[r] + v) * k + l]
  std::vector<int> non_null_;         // [r * k + l]
};

// Histogram-based categorical silhouette, averaged over objects. Range
// [-1, 1]; objects in singleton clusters contribute 0 (sklearn convention).
// a(i) = mean_distance(i, own, true); b(i) = the minimum of
// mean_distance(i, l, false) over the other non-empty clusters. The
// result is bit-identical to evaluating exactly that, at every SIMD
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

// All five internal indices from one PartitionProfile and one mode table.
InternalScores internal_scores(const data::DatasetView& ds,
                               const std::vector<int>& labels);

}  // namespace mcdc::metrics

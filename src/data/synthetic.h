// Synthetic categorical dataset generators.
//
// Two families:
//  * well_separated(...) — the paper's Syn_n / Syn_d efficiency datasets:
//    k* clusters, each with one dominant value per feature, "generated with
//    well-separated clusters" (Sec. IV-A).
//  * nested(...) — hierarchical two-level structure (coarse clusters made of
//    fine sub-clusters) exercising exactly the multi-granular cluster effect
//    of Fig. 2; used by tests and the multigranular_explore example.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "data/dataset.h"

namespace mcdc::data {

struct WellSeparatedConfig {
  std::size_t num_objects = 1000;
  std::size_t num_features = 10;
  int num_clusters = 3;
  // Number of possible values per feature; must be >= num_clusters so each
  // cluster can own a distinct dominant value.
  int cardinality = 4;
  // Probability that a cell takes its cluster's dominant value.
  double purity = 0.9;
  std::uint64_t seed = 7;
};

// Generates a labelled dataset with one dominant value per (cluster,
// feature). Cluster sizes differ by at most one object.
Dataset well_separated(const WellSeparatedConfig& config);

struct NestedConfig {
  std::size_t num_objects = 1200;
  std::size_t num_features = 8;
  // How many of the features encode the coarse cluster; the remaining ones
  // carry the fine sub-cluster split. Nested structure in real categorical
  // data is dominated by the coarse concept (siblings agree on most
  // features and differ on a few), which is what makes the fine clusters
  // compact *and* mergeable; 0 = use 3/4 of the features.
  std::size_t coarse_features = 0;
  int num_coarse = 3;
  int fine_per_coarse = 2;
  int cardinality = 6;
  double purity = 0.95;
  std::uint64_t seed = 11;
};

struct NestedDataset {
  Dataset dataset;              // labels() = coarse cluster ids
  std::vector<int> fine_labels; // global fine cluster ids
};

// Two-level nested generator; dataset.labels() carries coarse ground truth.
NestedDataset nested(const NestedConfig& config);

// The paper's Syn_n: n x 10 features, k* = 3, well separated.
Dataset syn_n(std::size_t num_objects = 200000, std::uint64_t seed = 7);

}  // namespace mcdc::data

// Nested-cluster dendrogram built from MGCPL's multi-granular analysis.
//
// The paper positions MGCPL as an efficient alternative to hierarchical
// clustering (Secs. I and IV-F): the staged granularities kappa and their
// partitions Gamma already encode a coarse-to-fine nesting of clusters.
// This module materialises that nesting as an explicit tree so users can
// inspect it the way they would a linkage dendrogram — without the O(n^2)
// cost of actually running one.
//
// MGCPL's stages are not strictly nested (objects may migrate between
// sweeps), so a fine cluster is attached to the coarse cluster that holds
// the *majority* of its members; `containment` records how clean that
// attachment is (1.0 = the fine cluster sits wholly inside its parent).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/mgcpl.h"

namespace mcdc::core {

struct DendrogramNode {
  int id = -1;
  // Granularity this node lives at: 0 = finest recorded stage (kappa[0]),
  // sigma - 1 = coarsest.
  int stage = 0;
  // Cluster id within that stage's partition.
  int cluster = 0;
  int parent = -1;            // node id; -1 for roots (coarsest stage)
  std::vector<int> children;  // node ids at the next finer stage
  std::size_t size = 0;       // member objects
  // Fraction of this node's members that lie inside the parent cluster.
  // 1.0 for roots.
  double containment = 1.0;
};

class Dendrogram {
 public:
  const std::vector<DendrogramNode>& nodes() const { return nodes_; }
  // Coarsest-granularity nodes (the paper's k_sigma prominent clusters).
  const std::vector<int>& roots() const { return roots_; }
  int sigma() const { return sigma_; }

  // Mean containment of all nodes at the given stage — how strictly nested
  // that granularity is inside the next coarser one (1.0 = perfect).
  double nesting_consistency(int stage) const;

  // Newick serialisation (one tree per root, ';'-separated), with nodes
  // named s<stage>c<cluster> and branch comments carrying sizes. Suitable
  // for any phylogeny/dendrogram viewer.
  std::string to_newick() const;

  // Plain-text indented rendering for terminal inspection.
  std::string to_text() const;

 private:
  friend Dendrogram build_dendrogram(const MgcplResult& mgcpl);

  std::vector<DendrogramNode> nodes_;
  std::vector<int> roots_;
  int sigma_ = 0;
};

// Builds the tree from a completed MGCPL analysis (requires sigma >= 1).
Dendrogram build_dendrogram(const MgcplResult& mgcpl);

}  // namespace mcdc::core

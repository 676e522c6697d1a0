#include "core/dendrogram.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace mcdc::core {

double Dendrogram::nesting_consistency(int stage) const {
  if (stage < 0 || stage >= sigma_) {
    throw std::out_of_range("Dendrogram::nesting_consistency: out of range");
  }
  double weighted = 0.0;
  std::size_t total = 0;
  for (const auto& node : nodes_) {
    if (node.stage != stage) continue;
    weighted += node.containment * static_cast<double>(node.size);
    total += node.size;
  }
  return total == 0 ? 1.0 : weighted / static_cast<double>(total);
}

namespace {

void write_newick(const Dendrogram& tree, int id, std::ostringstream& out) {
  const auto& node = tree.nodes()[static_cast<std::size_t>(id)];
  if (!node.children.empty()) {
    out << '(';
    for (std::size_t c = 0; c < node.children.size(); ++c) {
      if (c > 0) out << ',';
      write_newick(tree, node.children[c], out);
    }
    out << ')';
  }
  out << 's' << node.stage << 'c' << node.cluster << "[&&size=" << node.size
      << ']';
}

void write_text(const Dendrogram& tree, int id, int depth,
                std::ostringstream& out) {
  const auto& node = tree.nodes()[static_cast<std::size_t>(id)];
  for (int i = 0; i < depth; ++i) out << "  ";
  out << "stage " << node.stage << " cluster " << node.cluster << "  (n="
      << node.size << ", containment=" << node.containment << ")\n";
  for (int child : node.children) write_text(tree, child, depth + 1, out);
}

}  // namespace

std::string Dendrogram::to_newick() const {
  std::ostringstream out;
  for (int root : roots_) {
    write_newick(*this, root, out);
    out << ";\n";
  }
  return out.str();
}

std::string Dendrogram::to_text() const {
  std::ostringstream out;
  for (int root : roots_) write_text(*this, root, 0, out);
  return out.str();
}

Dendrogram build_dendrogram(const MgcplResult& mgcpl) {
  if (mgcpl.kappa.empty()) {
    throw std::invalid_argument("build_dendrogram: empty MGCPL result");
  }
  const int sigma = mgcpl.sigma();
  const std::size_t n = mgcpl.partitions.front().size();

  Dendrogram tree;
  tree.sigma_ = sigma;
  // [stage][cluster] -> node id
  std::vector<std::vector<int>> id_of(static_cast<std::size_t>(sigma));

  // One node per (stage, cluster).
  for (int j = 0; j < sigma; ++j) {
    const int k = mgcpl.kappa[static_cast<std::size_t>(j)];
    auto& level = id_of[static_cast<std::size_t>(j)];
    level.resize(static_cast<std::size_t>(k));
    for (int c = 0; c < k; ++c) {
      DendrogramNode node;
      node.id = static_cast<int>(tree.nodes_.size());
      node.stage = j;
      node.cluster = c;
      level[static_cast<std::size_t>(c)] = node.id;
      tree.nodes_.push_back(node);
    }
  }

  // Sizes from each stage's partition.
  for (int j = 0; j < sigma; ++j) {
    const auto& labels = mgcpl.partitions[static_cast<std::size_t>(j)];
    for (std::size_t i = 0; i < n; ++i) {
      const int id = id_of[static_cast<std::size_t>(j)]
                          [static_cast<std::size_t>(labels[i])];
      ++tree.nodes_[static_cast<std::size_t>(id)].size;
    }
  }

  // Parent = majority cluster of the next coarser stage.
  for (int j = 0; j + 1 < sigma; ++j) {
    const auto& fine = mgcpl.partitions[static_cast<std::size_t>(j)];
    const auto& coarse = mgcpl.partitions[static_cast<std::size_t>(j + 1)];
    const int k_fine = mgcpl.kappa[static_cast<std::size_t>(j)];
    const int k_coarse = mgcpl.kappa[static_cast<std::size_t>(j + 1)];
    std::vector<std::vector<std::size_t>> overlap(
        static_cast<std::size_t>(k_fine),
        std::vector<std::size_t>(static_cast<std::size_t>(k_coarse), 0));
    for (std::size_t i = 0; i < n; ++i) {
      ++overlap[static_cast<std::size_t>(fine[i])]
               [static_cast<std::size_t>(coarse[i])];
    }
    for (int c = 0; c < k_fine; ++c) {
      const auto& row = overlap[static_cast<std::size_t>(c)];
      const std::size_t best = static_cast<std::size_t>(
          std::max_element(row.begin(), row.end()) - row.begin());
      const int child_id =
          id_of[static_cast<std::size_t>(j)][static_cast<std::size_t>(c)];
      const int parent_id = id_of[static_cast<std::size_t>(j + 1)][best];
      auto& child = tree.nodes_[static_cast<std::size_t>(child_id)];
      auto& parent = tree.nodes_[static_cast<std::size_t>(parent_id)];
      child.parent = parent_id;
      child.containment = child.size == 0
                              ? 1.0
                              : static_cast<double>(row[best]) /
                                    static_cast<double>(child.size);
      parent.children.push_back(child_id);
    }
  }

  for (int id : id_of[static_cast<std::size_t>(sigma - 1)]) {
    tree.roots_.push_back(id);
  }
  return tree;
}

}  // namespace mcdc::core

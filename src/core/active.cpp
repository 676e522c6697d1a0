#include "core/active.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "common/thread_pool.h"
#include "core/profile_set.h"

namespace mcdc::core {

namespace {

// Majority coarse-cluster per fine cluster between stages j and j+1.
std::vector<int> majority_parent(const std::vector<int>& fine, int k_fine,
                                 const std::vector<int>& coarse,
                                 int k_coarse) {
  std::vector<std::vector<std::size_t>> overlap(
      static_cast<std::size_t>(k_fine),
      std::vector<std::size_t>(static_cast<std::size_t>(k_coarse), 0));
  for (std::size_t i = 0; i < fine.size(); ++i) {
    ++overlap[static_cast<std::size_t>(fine[i])]
             [static_cast<std::size_t>(coarse[i])];
  }
  std::vector<int> parent(static_cast<std::size_t>(k_fine), 0);
  for (int c = 0; c < k_fine; ++c) {
    const auto& row = overlap[static_cast<std::size_t>(c)];
    parent[static_cast<std::size_t>(c)] = static_cast<int>(
        std::max_element(row.begin(), row.end()) - row.begin());
  }
  return parent;
}

}  // namespace

QuerySelection select_queries(const data::DatasetView& ds,
                              const MgcplResult& mgcpl,
                              const QuerySelectionConfig& config) {
  if (mgcpl.kappa.empty()) {
    throw std::invalid_argument("select_queries: empty MGCPL result");
  }
  const std::size_t n = ds.num_objects();
  const int sigma = mgcpl.sigma();
  const auto& fine = mgcpl.partitions.front();
  const int k_fine = mgcpl.kappa.front();

  // Margin at the finest granularity: every row batch-scored against all
  // fine clusters in one flat frozen sweep, rows fanned out over the pool
  // (disjoint writes, so margins match the serial scan exactly).
  std::vector<double> margin(n, 1.0);
  if (k_fine >= 2) {
    ProfileSet profiles = ProfileSet::from_assignment(ds, fine, k_fine);
    profiles.freeze();
    parallel_chunks(n, 1024, [&](std::size_t lo, std::size_t hi) {
      std::vector<double> scores(static_cast<std::size_t>(k_fine));
      for (std::size_t i = lo; i < hi; ++i) {
        profiles.score_all(ds.row(i), scores.data());
        double best = -1.0;
        double second = -1.0;
        for (int l = 0; l < k_fine; ++l) {
          const double s = scores[static_cast<std::size_t>(l)];
          if (s > best) {
            second = best;
            best = s;
          } else if (s > second) {
            second = s;
          }
        }
        margin[i] = std::max(0.0, best - second);
      }
    });
  }

  // Instability: fraction of stage transitions where the object leaves its
  // fine cluster's majority parent.
  std::vector<double> instability(n, 0.0);
  if (sigma >= 2) {
    for (int j = 0; j + 1 < sigma; ++j) {
      const auto& a = mgcpl.partitions[static_cast<std::size_t>(j)];
      const auto& b = mgcpl.partitions[static_cast<std::size_t>(j + 1)];
      const auto parent =
          majority_parent(a, mgcpl.kappa[static_cast<std::size_t>(j)], b,
                          mgcpl.kappa[static_cast<std::size_t>(j + 1)]);
      for (std::size_t i = 0; i < n; ++i) {
        if (b[i] != parent[static_cast<std::size_t>(a[i])]) {
          instability[i] += 1.0;
        }
      }
    }
    for (double& v : instability) v /= static_cast<double>(sigma - 1);
  }

  QuerySelection out;
  out.uncertainty.resize(n);
  // Blend weight on the margin signal (1 - weight goes to instability).
  constexpr double kMarginWeight = 0.5;
  for (std::size_t i = 0; i < n; ++i) {
    out.uncertainty[i] = kMarginWeight * (1.0 - margin[i]) +
                         (1.0 - kMarginWeight) * instability[i];
  }

  // Rank by uncertainty, then greedily take queries while capping how many
  // one micro-cluster may absorb.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return out.uncertainty[a] > out.uncertainty[b];
  });

  const std::size_t budget = std::min(config.budget, n);
  const std::size_t per_cluster_cap =
      budget / static_cast<std::size_t>(std::max(k_fine, 1)) + 1;
  std::vector<std::size_t> taken(static_cast<std::size_t>(k_fine), 0);
  for (std::size_t i : order) {
    if (out.queries.size() >= budget) break;
    auto& count = taken[static_cast<std::size_t>(fine[i])];
    if (count >= per_cluster_cap) continue;
    ++count;
    out.queries.push_back(i);
  }
  // Second pass without the cap in case the cap left budget unused.
  if (out.queries.size() < budget) {
    std::vector<bool> chosen(n, false);
    for (std::size_t q : out.queries) chosen[q] = true;
    for (std::size_t i : order) {
      if (out.queries.size() >= budget) break;
      if (!chosen[i]) out.queries.push_back(i);
    }
  }
  return out;
}

std::vector<int> propagate_labels(const MgcplResult& mgcpl,
                                  const std::vector<std::size_t>& queried,
                                  const std::vector<int>& expert_labels,
                                  int fallback_label) {
  if (queried.size() != expert_labels.size()) {
    throw std::invalid_argument("propagate_labels: size mismatch");
  }
  if (mgcpl.kappa.empty()) {
    throw std::invalid_argument("propagate_labels: empty MGCPL result");
  }
  const std::size_t n = mgcpl.partitions.front().size();
  const int sigma = mgcpl.sigma();

  int num_classes = 1;
  for (int l : expert_labels) {
    if (l < 0) throw std::invalid_argument("propagate_labels: negative label");
    num_classes = std::max(num_classes, l + 1);
  }

  // Stage-by-stage majority vote: a cluster's label is the majority expert
  // label among queried members; finer stages are tried first so the most
  // specific evidence wins, coarser stages fill the gaps.
  std::vector<int> labels(n, -1);
  for (int j = 0; j < sigma; ++j) {
    const auto& part = mgcpl.partitions[static_cast<std::size_t>(j)];
    const int k = mgcpl.kappa[static_cast<std::size_t>(j)];
    std::vector<std::vector<std::size_t>> votes(
        static_cast<std::size_t>(k),
        std::vector<std::size_t>(static_cast<std::size_t>(num_classes), 0));
    for (std::size_t q = 0; q < queried.size(); ++q) {
      ++votes[static_cast<std::size_t>(part[queried[q]])]
             [static_cast<std::size_t>(expert_labels[q])];
    }
    std::vector<int> cluster_label(static_cast<std::size_t>(k), -1);
    for (int c = 0; c < k; ++c) {
      const auto& row = votes[static_cast<std::size_t>(c)];
      const auto best = std::max_element(row.begin(), row.end());
      if (*best > 0) {
        cluster_label[static_cast<std::size_t>(c)] =
            static_cast<int>(best - row.begin());
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (labels[i] < 0) {
        labels[i] = cluster_label[static_cast<std::size_t>(part[i])];
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (labels[i] < 0) labels[i] = fallback_label;
  }
  // Queried objects keep their expert label verbatim.
  for (std::size_t q = 0; q < queried.size(); ++q) {
    labels[queried[q]] = expert_labels[q];
  }
  return labels;
}

}  // namespace mcdc::core

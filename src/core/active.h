// Active-learning hooks over the multi-granular analysis — the paper's
// future-work direction 3 ("leveraging the advantages of MGCPL to active
// learning for reducing the workload of human experts in manually labeling
// large-scale categorical data sets").
//
// The idea the paper sketches: micro-clusters are compact, so one expert
// label per micro-cluster goes a long way; the labels worth paying for
// first belong to the objects the analysis is least sure about. Two
// uncertainty signals come straight from MGCPL:
//
//   - margin: the gap between the best and second-best object-cluster
//     similarity at the finest granularity (small gap = boundary object);
//   - instability: across consecutive granularities, does the object stay
//     with its micro-cluster's majority when clusters merge? Objects that
//     split away from their peers sit between coarse clusters.
//
// select_queries() ranks objects by blended uncertainty (margin and
// instability weighted equally) and spreads the budget across
// micro-clusters (at most ceil(budget / k_fine) + 1 queries per
// micro-cluster) so a single noisy region cannot absorb it all.
// propagate_labels() then spreads the acquired labels: each micro-cluster
// takes the majority label of its queried members, unlabeled micro-clusters
// inherit from the nearest labeled ancestor granularity.
#pragma once

#include <cstddef>
#include <vector>

#include "core/mgcpl.h"
#include "data/dataset.h"
#include "data/view.h"

namespace mcdc::core {

struct QuerySelectionConfig {
  std::size_t budget = 32;
};

struct QuerySelection {
  // Object indices to label, most informative first, size <= budget.
  std::vector<std::size_t> queries;
  // Per-object uncertainty in [0, 1] (diagnostics; higher = less certain).
  std::vector<double> uncertainty;
};

QuerySelection select_queries(const data::DatasetView& ds,
                              const MgcplResult& mgcpl,
                              const QuerySelectionConfig& config = {});

// Spreads expert labels over the whole dataset through the micro-cluster
// structure. `queried` and `expert_labels` are parallel; labels must be
// dense non-negative ids. Objects in micro-clusters that no label reaches
// (directly or through coarser granularities) receive `fallback_label`.
std::vector<int> propagate_labels(const MgcplResult& mgcpl,
                                  const std::vector<std::size_t>& queried,
                                  const std::vector<int>& expert_labels,
                                  int fallback_label = 0);

}  // namespace mcdc::core

// Object-cluster similarity for categorical data (paper Sec. II-A), computed
// straight from its definition:
//
//   s(x_ir, C_l) = Psi_{Fr = x_ir}(C_l) / Psi_{Fr != NULL}(C_l)     (Eq. 2)
//   s(x_i,  C_l) = (1/d) * sum_r s(x_ir, C_l)                       (Eq. 1)
//   s_w(x_i, C_l) = sum_r w_rl * s(x_ir, C_l),   sum_r w_rl = 1     (Eq. 14)
//
// (The paper's Eq. (14) carries an extra global 1/d factor; because the
// weights already sum to one we fold it out so that uniform weights recover
// Eq. (1). Missing values contribute similarity zero and are excluded from
// the NULL-aware denominator, which is how the paper runs Mushroom at full
// size despite its '?' cells.)
//
// Cluster C_l is every object j of `ds` with labels[j] == l, and each call
// counts its members afresh — O(n * d) per score. This is the reference the
// tests pin core::ProfileSet (profile_set.h) against, bit for bit: the bank
// keeps the same counts as histograms and scores in O(d) per cluster, the
// linear time of the paper's Theorem 1.
#pragma once

#include <cstddef>
#include <vector>

#include "data/dataset.h"
#include "data/view.h"

namespace mcdc::core::reference {

// Eq. (2); zero for a missing or out-of-domain v and for a column that is
// NULL on every member of C_l.
inline double value_similarity(const data::DatasetView& ds,
                               const std::vector<int>& labels, int l,
                               std::size_t r, data::Value v) {
  const auto in_domain = [&](data::Value u) {
    return u >= 0 && u < ds.cardinality(r);
  };
  if (!in_domain(v)) return 0.0;
  int match = 0;
  int non_null = 0;
  for (std::size_t j = 0; j < ds.num_objects(); ++j) {
    if (labels[j] != l || !in_domain(ds.at(j, r))) continue;
    ++non_null;
    if (ds.at(j, r) == v) ++match;
  }
  if (non_null == 0) return 0.0;
  return static_cast<double>(match) / static_cast<double>(non_null);
}

// Eq. (1) of a row of d values.
inline double similarity(const data::DatasetView& ds,
                         const std::vector<int>& labels, int l,
                         const data::Value* row) {
  double sum = 0.0;
  for (std::size_t r = 0; r < ds.num_features(); ++r) {
    sum += value_similarity(ds, labels, l, r, row[r]);
  }
  return sum / static_cast<double>(ds.num_features());
}

// Eq. (14) with cluster l's weight vector w (length d).
inline double weighted_similarity(const data::DatasetView& ds,
                                  const std::vector<int>& labels, int l,
                                  const data::Value* row,
                                  const std::vector<double>& w) {
  double sum = 0.0;
  for (std::size_t r = 0; r < ds.num_features(); ++r) {
    sum += w[r] * value_similarity(ds, labels, l, r, row[r]);
  }
  return sum;
}

}  // namespace mcdc::core::reference

#include "core/feature_weights.h"

#include <cmath>

namespace mcdc::core {

GlobalCounts::GlobalCounts(const data::DatasetView& ds)
    : counts(ds.value_counts()), non_null(ds.num_features(), 0) {
  for (std::size_t r = 0; r < ds.num_features(); ++r) {
    for (int c : counts[r]) non_null[r] += c;
  }
}

double inter_cluster_difference(const GlobalCounts& global,
                                const ProfileSet& set, int l, std::size_t r) {
  const double in_denom = set.non_null(l, r);
  const double out_denom = static_cast<double>(global.non_null[r]) - in_denom;
  double sum_sq = 0.0;
  for (std::size_t v = 0; v < global.counts[r].size(); ++v) {
    const double in_count = set.count(l, r, static_cast<data::Value>(v));
    const double out_count =
        static_cast<double>(global.counts[r][v]) - in_count;
    const double p_in = in_denom > 0 ? in_count / in_denom : 0.0;
    const double p_out = out_denom > 0 ? out_count / out_denom : 0.0;
    const double diff = p_in - p_out;
    sum_sq += diff * diff;
  }
  return std::sqrt(sum_sq) / std::sqrt(2.0);
}

double intra_cluster_similarity(const ProfileSet& set, int l, std::size_t r) {
  // (1/n_l) * sum_{x in C_l} Psi_{Fr=x_r}/Psi_{Fr!=NULL}
  //   = sum_v count_v^2 / (n_l * Psi_{Fr!=NULL})  — members with a missing
  // value on F_r contribute zero, exactly as in the similarity measure.
  const double n_l = set.size(l);
  const double denom = set.non_null(l, r);
  if (n_l <= 0.0 || denom <= 0.0) return 0.0;
  double sum = 0.0;
  for (data::Value v = 0; v < set.cardinalities()[r]; ++v) {
    const double c = set.count(l, r, v);
    sum += c * c;
  }
  return sum / (n_l * denom);
}

std::vector<double> feature_weights(const GlobalCounts& global,
                                    const ProfileSet& set, int l) {
  const std::size_t d = global.counts.size();
  std::vector<double> h(d);
  double total = 0.0;
  for (std::size_t r = 0; r < d; ++r) {
    h[r] = inter_cluster_difference(global, set, l, r) *
           intra_cluster_similarity(set, l, r);
    total += h[r];
  }
  if (total <= 0.0) {
    return std::vector<double>(d, 1.0 / static_cast<double>(d));
  }
  for (double& w : h) w /= total;
  return h;
}

}  // namespace mcdc::core

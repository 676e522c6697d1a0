#include "metrics/internal.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/simd.h"

namespace mcdc::metrics {

namespace {

int label_count(const std::vector<int>& labels) {
  int k = 0;
  for (int l : labels) {
    if (l < 0) throw std::invalid_argument("internal: negative label");
    k = std::max(k, l + 1);
  }
  return k;
}

// Normalised Hamming distance between two value rows over the features
// observed in both; 0 when there is none.
double hamming(const data::Value* a, const data::Value* b, std::size_t d) {
  int mismatches = 0;
  int compared = 0;
  for (std::size_t r = 0; r < d; ++r) {
    if (a[r] == data::kMissing || b[r] == data::kMissing) continue;
    ++compared;
    if (a[r] != b[r]) ++mismatches;
  }
  if (compared == 0) return 0.0;
  return static_cast<double>(mismatches) / static_cast<double>(compared);
}

// Every cluster's mode vector, computed once: modes[l * d + r] is
// profile.mode(l, r) (kMissing where cluster l observed no value).
std::vector<data::Value> mode_table(const PartitionProfile& profile,
                                    std::size_t d) {
  const auto k = static_cast<std::size_t>(profile.num_clusters());
  std::vector<data::Value> modes(k * d);
  for (std::size_t l = 0; l < k; ++l) {
    for (std::size_t r = 0; r < d; ++r) {
      modes[l * d + r] = profile.mode(static_cast<int>(l), r);
    }
  }
  return modes;
}

// Normalised Hamming distance between the modes of clusters l and t;
// features where either cluster has no observed value are skipped.
double mode_distance(const std::vector<data::Value>& modes, std::size_t d,
                     int l, int t) {
  return hamming(modes.data() + static_cast<std::size_t>(l) * d,
                 modes.data() + static_cast<std::size_t>(t) * d, d);
}

}  // namespace

PartitionProfile::PartitionProfile(const data::DatasetView& ds,
                                   const std::vector<int>& labels) {
  if (labels.size() != ds.num_objects()) {
    throw std::invalid_argument("internal: labels/objects size mismatch");
  }
  k_ = label_count(labels);
  const auto ku = static_cast<std::size_t>(k_);
  const std::size_t n = ds.num_objects();
  const std::size_t d = ds.num_features();
  sizes_.assign(ku, 0);
  offsets_.assign(d + 1, 0);
  for (std::size_t r = 0; r < d; ++r) {
    offsets_[r + 1] = offsets_[r] + static_cast<std::size_t>(ds.cardinality(r));
  }
  counts_.assign(offsets_[d] * ku, 0);
  non_null_.assign(d * ku, 0);
  for (std::size_t i = 0; i < n; ++i) {
    ++sizes_[static_cast<std::size_t>(labels[i])];
  }
  // Feature-major fill: each column is swept stride-1 and writes only its
  // own cell block of the bank.
  for (std::size_t r = 0; r < d; ++r) {
    int* cell_block = counts_.data() + offsets_[r] * ku;
    int* nn = non_null_.data() + r * ku;
    for (std::size_t i = 0; i < n; ++i) {
      const data::Value v = ds.at(i, r);
      if (v == data::kMissing) continue;
      const auto l = static_cast<std::size_t>(labels[i]);
      ++cell_block[static_cast<std::size_t>(v) * ku + l];
      ++nn[l];
    }
  }
}

data::Value PartitionProfile::mode(int l, std::size_t r) const {
  data::Value best = data::kMissing;
  int best_count = 0;
  const std::size_t m_r = offsets_[r + 1] - offsets_[r];
  for (std::size_t v = 0; v < m_r; ++v) {
    const int c = count(l, r, static_cast<data::Value>(v));
    if (c > best_count) {
      best_count = c;
      best = static_cast<data::Value>(v);
    }
  }
  return best;
}

double PartitionProfile::mean_distance(const data::DatasetView& ds,
                                       std::size_t i, int l,
                                       bool exclude_self) const {
  const std::size_t d = ds.num_features();
  const bool self_member = exclude_self;
  double sum = 0.0;
  std::size_t compared = 0;
  for (std::size_t r = 0; r < d; ++r) {
    const data::Value v = ds.at(i, r);
    if (v == data::kMissing) continue;
    int denom = non_null(l, r);
    int same = count(l, r, v);
    if (self_member) {
      --denom;
      --same;
    }
    if (denom <= 0) continue;
    ++compared;
    sum += 1.0 - static_cast<double>(same) / static_cast<double>(denom);
  }
  if (compared == 0) return 0.0;
  return sum / static_cast<double>(compared);
}

namespace {

// The five indices over one shared profile (and mode table); internal_scores
// and categorical_silhouette end here.

double compactness(const data::DatasetView& ds, const std::vector<int>& labels,
                   const PartitionProfile& profile) {
  if (ds.num_objects() == 0) return 0.0;
  double sum = 0.0;
  for (std::size_t i = 0; i < ds.num_objects(); ++i) {
    // Similarity = 1 - mean mismatch, including the object itself in its
    // cluster histogram (the Eq. (1)-(2) convention).
    sum += 1.0 - profile.mean_distance(ds, i, labels[i], false);
  }
  return sum / static_cast<double>(ds.num_objects());
}

double mode_separation(const std::vector<data::Value>& modes, int k,
                       std::size_t d) {
  if (k < 2) return 0.0;
  double sum = 0.0;
  std::size_t pairs = 0;
  for (int l = 0; l < k; ++l) {
    for (int t = l + 1; t < k; ++t) {
      sum += mode_distance(modes, d, l, t);
      ++pairs;
    }
  }
  return sum / static_cast<double>(pairs);
}

double categorical_silhouette(const data::DatasetView& ds,
                              const std::vector<int>& labels,
                              const PartitionProfile& profile) {
  const std::size_t n = ds.num_objects();
  if (n == 0) return 0.0;
  const int k = profile.num_clusters();
  if (k < 2) return 0.0;
  const auto ku = static_cast<std::size_t>(k);
  const std::size_t d = ds.num_features();

  // mean_distance(i, l, false) for every l at once. Per (feature, value)
  // cell, the k terms it adds: 1 - count/non_null, the same division, or
  // 0 where the cluster has no observed value. Per (feature, cluster), 1
  // where it has one: the feature counts as compared.
  std::vector<std::size_t> offsets(d + 1, 0);
  for (std::size_t r = 0; r < d; ++r) {
    offsets[r + 1] = offsets[r] + static_cast<std::size_t>(ds.cardinality(r));
  }
  std::vector<double> mismatch(offsets[d] * ku, 0.0);
  std::vector<double> observed(d * ku, 0.0);
  for (std::size_t r = 0; r < d; ++r) {
    for (int l = 0; l < k; ++l) {
      const int denom = profile.non_null(l, r);
      if (denom <= 0) continue;
      const auto lu = static_cast<std::size_t>(l);
      observed[r * ku + lu] = 1.0;
      double* lane = mismatch.data() + offsets[r] * ku + lu;
      for (data::Value v = 0; v < ds.cardinality(r); ++v) {
        const double q = static_cast<double>(profile.count(l, r, v)) /
                         static_cast<double>(denom);
        lane[static_cast<std::size_t>(v) * ku] = 1.0 - q;
      }
    }
  }

  // Each object sweeps its present cells once into per-cluster sum and
  // compared lanes. Every lane adds mean_distance's terms in its order;
  // the +0.0 an unobserved feature adds leaves the (non-negative) sum
  // unchanged, so sum / compared is bit-identical to it.
  const core::simd::Kernels& kr = core::simd::kernels();
  std::vector<data::Value> row(d);
  std::vector<double> sum(ku);
  std::vector<double> compared(ku);
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const int own = labels[i];
    if (profile.cluster_size(own) <= 1) continue;  // contributes 0
    const double a = profile.mean_distance(ds, i, own, true);
    ds.gather_row(i, row.data());
    std::fill(sum.begin(), sum.end(), 0.0);
    std::fill(compared.begin(), compared.end(), 0.0);
    for (std::size_t r = 0; r < d; ++r) {
      if (row[r] == data::kMissing) continue;
      const auto v = static_cast<std::size_t>(row[r]);
      kr.acc_f64(sum.data(), mismatch.data() + (offsets[r] + v) * ku, ku);
      kr.acc_f64(compared.data(), observed.data() + r * ku, ku);
    }
    double b = std::numeric_limits<double>::infinity();
    for (int l = 0; l < k; ++l) {
      if (l == own || profile.cluster_size(l) == 0) continue;
      const auto lu = static_cast<std::size_t>(l);
      b = std::min(b, compared[lu] == 0.0 ? 0.0 : sum[lu] / compared[lu]);
    }
    if (!std::isfinite(b)) continue;
    const double denom = std::max(a, b);
    if (denom > 0.0) total += (b - a) / denom;
  }
  return total / static_cast<double>(n);
}

double category_utility(const data::DatasetView& ds,
                        const PartitionProfile& profile) {
  const std::size_t n = ds.num_objects();
  if (n == 0) return 0.0;
  const int k = profile.num_clusters();
  if (k == 0) return 0.0;
  const auto global = ds.value_counts();

  // Global sum of squared value probabilities, ignoring missing cells.
  double base = 0.0;
  for (std::size_t r = 0; r < ds.num_features(); ++r) {
    std::int64_t observed = 0;
    for (int c : global[r]) observed += c;
    if (observed == 0) continue;
    for (int c : global[r]) {
      const double p = static_cast<double>(c) / static_cast<double>(observed);
      base += p * p;
    }
  }

  double cu = 0.0;
  for (int l = 0; l < k; ++l) {
    const double p_cluster =
        static_cast<double>(profile.cluster_size(l)) / static_cast<double>(n);
    if (p_cluster == 0.0) continue;
    double inner = 0.0;
    for (std::size_t r = 0; r < ds.num_features(); ++r) {
      const int denom = profile.non_null(l, r);
      if (denom == 0) continue;
      for (data::Value v = 0; v < ds.cardinality(r); ++v) {
        const double p =
            static_cast<double>(profile.count(l, r, v)) / denom;
        inner += p * p;
      }
    }
    cu += p_cluster * (inner - base);
  }
  return cu / static_cast<double>(k);
}

double davies_bouldin_modes(const data::DatasetView& ds,
                            const std::vector<int>& labels,
                            const PartitionProfile& profile,
                            const std::vector<data::Value>& modes) {
  const int k = profile.num_clusters();
  if (k < 2) return 0.0;
  const std::size_t d = ds.num_features();
  // Scatter: mean member-to-own-mode Hamming distance, every cluster's in
  // one pass over the rows (each cluster still sums its members in
  // ascending row order).
  std::vector<double> scatter(static_cast<std::size_t>(k), 0.0);
  std::vector<data::Value> row(d);
  for (std::size_t i = 0; i < ds.num_objects(); ++i) {
    const auto l = static_cast<std::size_t>(labels[i]);
    ds.gather_row(i, row.data());
    scatter[l] += hamming(row.data(), modes.data() + l * d, d);
  }
  for (int l = 0; l < k; ++l) {
    const std::size_t members = profile.cluster_size(l);
    double& s = scatter[static_cast<std::size_t>(l)];
    s = members == 0 ? 0.0 : s / static_cast<double>(members);
  }
  double sum = 0.0;
  for (int l = 0; l < k; ++l) {
    double worst = 0.0;
    for (int t = 0; t < k; ++t) {
      if (t == l) continue;
      const double dist = mode_distance(modes, d, l, t);
      const double numer = scatter[static_cast<std::size_t>(l)] +
                           scatter[static_cast<std::size_t>(t)];
      const double ratio = dist > 0.0
                               ? numer / dist
                               : (numer > 0.0
                                      ? std::numeric_limits<double>::infinity()
                                      : 0.0);
      worst = std::max(worst, ratio);
    }
    sum += worst;
  }
  return sum / static_cast<double>(k);
}

}  // namespace

double categorical_silhouette(const data::DatasetView& ds,
                              const std::vector<int>& labels) {
  if (ds.num_objects() == 0) return 0.0;
  return categorical_silhouette(ds, labels, PartitionProfile(ds, labels));
}

InternalScores internal_scores(const data::DatasetView& ds,
                               const std::vector<int>& labels) {
  // One profile and one mode table serve all five indices.
  const PartitionProfile profile(ds, labels);
  const std::size_t d = ds.num_features();
  const std::vector<data::Value> modes = mode_table(profile, d);
  InternalScores out;
  out.compactness = compactness(ds, labels, profile);
  out.separation = mode_separation(modes, profile.num_clusters(), d);
  out.silhouette = categorical_silhouette(ds, labels, profile);
  out.category_utility = category_utility(ds, profile);
  out.davies_bouldin = davies_bouldin_modes(ds, labels, profile, modes);
  return out;
}

}  // namespace mcdc::metrics

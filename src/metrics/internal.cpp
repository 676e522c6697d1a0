#include "metrics/internal.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/simd.h"

namespace mcdc::metrics {

namespace {

// The per-cluster value counts every index reads, over k = max label + 1
// clusters. Checked here: from_assignment would skip a -1 label silently.
core::ProfileSet label_bank(const data::DatasetView& ds,
                            const std::vector<int>& labels) {
  if (labels.size() != ds.num_objects()) {
    throw std::invalid_argument("internal: labels/objects size mismatch");
  }
  int k = 0;
  for (int l : labels) {
    if (l < 0) throw std::invalid_argument("internal: negative label");
    k = std::max(k, l + 1);
  }
  return core::ProfileSet::from_assignment(ds, labels, k);
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
// bank.mode(l)[r] (kMissing where cluster l observed no value).
std::vector<data::Value> mode_table(const core::ProfileSet& bank) {
  std::vector<data::Value> modes;
  for (int l = 0; l < bank.num_clusters(); ++l) {
    const std::vector<data::Value> mode = bank.mode(l);
    modes.insert(modes.end(), mode.begin(), mode.end());
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

double mean_distance(const core::ProfileSet& bank, const data::DatasetView& ds,
                     std::size_t i, int l, bool exclude_self) {
  const std::size_t d = ds.num_features();
  double sum = 0.0;
  std::size_t compared = 0;
  for (std::size_t r = 0; r < d; ++r) {
    const data::Value v = ds.at(i, r);
    if (v == data::kMissing) continue;
    double denom = bank.non_null(l, r);
    double same = bank.count(l, r, v);
    if (exclude_self) {
      denom -= 1.0;
      same -= 1.0;
    }
    if (denom <= 0.0) continue;
    ++compared;
    sum += 1.0 - same / denom;
  }
  if (compared == 0) return 0.0;
  return sum / static_cast<double>(compared);
}

namespace {

// The five indices over one shared bank (and mode table); internal_scores
// and categorical_silhouette end here.

double compactness(const data::DatasetView& ds, const std::vector<int>& labels,
                   const core::ProfileSet& bank) {
  if (ds.num_objects() == 0) return 0.0;
  double sum = 0.0;
  for (std::size_t i = 0; i < ds.num_objects(); ++i) {
    // Similarity = 1 - mean mismatch, including the object itself in its
    // cluster histogram (the Eq. (1)-(2) convention).
    sum += 1.0 - mean_distance(bank, ds, i, labels[i], false);
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
                              const core::ProfileSet& bank) {
  const std::size_t n = ds.num_objects();
  if (n == 0) return 0.0;
  const int k = bank.num_clusters();
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
      const double denom = bank.non_null(l, r);
      if (denom <= 0.0) continue;
      const auto lu = static_cast<std::size_t>(l);
      observed[r * ku + lu] = 1.0;
      double* lane = mismatch.data() + offsets[r] * ku + lu;
      for (data::Value v = 0; v < ds.cardinality(r); ++v) {
        const double q = bank.count(l, r, v) / denom;
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
    if (bank.size(own) <= 1.0) continue;  // contributes 0
    const double a = mean_distance(bank, ds, i, own, true);
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
      if (l == own || bank.empty(l)) continue;
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
                        const core::ProfileSet& bank) {
  const std::size_t n = ds.num_objects();
  if (n == 0) return 0.0;
  const int k = bank.num_clusters();
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
    const double p_cluster = bank.size(l) / static_cast<double>(n);
    if (p_cluster == 0.0) continue;
    double inner = 0.0;
    for (std::size_t r = 0; r < ds.num_features(); ++r) {
      const double denom = bank.non_null(l, r);
      if (denom == 0.0) continue;
      for (data::Value v = 0; v < ds.cardinality(r); ++v) {
        const double p = bank.count(l, r, v) / denom;
        inner += p * p;
      }
    }
    cu += p_cluster * (inner - base);
  }
  return cu / static_cast<double>(k);
}

double davies_bouldin_modes(const data::DatasetView& ds,
                            const std::vector<int>& labels,
                            const core::ProfileSet& bank,
                            const std::vector<data::Value>& modes) {
  const int k = bank.num_clusters();
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
    double& s = scatter[static_cast<std::size_t>(l)];
    s = bank.empty(l) ? 0.0 : s / bank.size(l);
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
  return categorical_silhouette(ds, labels, label_bank(ds, labels));
}

InternalScores internal_scores(const data::DatasetView& ds,
                               const std::vector<int>& labels) {
  // One bank and one mode table serve all five indices.
  const core::ProfileSet bank = label_bank(ds, labels);
  const std::size_t d = ds.num_features();
  const std::vector<data::Value> modes = mode_table(bank);
  InternalScores out;
  out.compactness = compactness(ds, labels, bank);
  out.separation = mode_separation(modes, bank.num_clusters(), d);
  out.silhouette = categorical_silhouette(ds, labels, bank);
  out.category_utility = category_utility(ds, bank);
  out.davies_bouldin = davies_bouldin_modes(ds, labels, bank, modes);
  return out;
}

}  // namespace mcdc::metrics

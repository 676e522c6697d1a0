#include "core/kestimate.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "metrics/internal.h"

namespace mcdc::core {

KEstimate estimate_k(const data::DatasetView& ds, const MgcplResult& mgcpl,
                     const KEstimateConfig& config) {
  if (mgcpl.kappa.empty()) {
    throw std::invalid_argument("estimate_k: empty MGCPL result");
  }
  const int sigma = mgcpl.sigma();

  KEstimate out;
  out.candidates.reserve(static_cast<std::size_t>(sigma));

  for (int j = 0; j < sigma; ++j) {
    KCandidate cand;
    cand.stage = j;
    cand.k = mgcpl.kappa[static_cast<std::size_t>(j)];

    // Persistence: fraction of the elimination pressure this granularity
    // absorbed without dissolving. Clusters killed entering the stage
    // (k_prev -> k_j) indicate a real boundary; clusters killed right after
    // (k_j -> k_next) indicate the granularity was transient. The coarsest
    // stage survived a full relaunch, the strongest possible evidence.
    const int k_prev = j == 0 ? mgcpl.k0 : mgcpl.kappa[static_cast<std::size_t>(j - 1)];
    const int k_next = j + 1 < sigma ? mgcpl.kappa[static_cast<std::size_t>(j + 1)] : cand.k;
    const double killed_before = static_cast<double>(k_prev - cand.k);
    const double killed_after = static_cast<double>(cand.k - k_next);
    const double total = killed_before + killed_after;
    cand.persistence = total <= 0.0 ? 1.0 : killed_before / total;

    cand.silhouette = metrics::categorical_silhouette(
        ds, mgcpl.partitions[static_cast<std::size_t>(j)]);

    // Blend weight on silhouette (1 - weight goes to persistence).
    constexpr double kSilhouetteWeight = 0.7;
    cand.score = kSilhouetteWeight * cand.silhouette +
                 (1.0 - kSilhouetteWeight) * cand.persistence;
    out.candidates.push_back(cand);
  }

  if (config.prefer_coarsest) {
    out.recommended_stage = sigma - 1;
  } else {
    out.recommended_stage = static_cast<int>(
        std::max_element(out.candidates.begin(), out.candidates.end(),
                         [](const KCandidate& a, const KCandidate& b) {
                           return a.score < b.score;
                         }) -
        out.candidates.begin());
  }
  out.recommended_k =
      out.candidates[static_cast<std::size_t>(out.recommended_stage)].k;
  return out;
}

KEstimate estimate_k(const data::DatasetView& ds, std::uint64_t seed,
                     const KEstimateConfig& config) {
  return estimate_k(ds, Mgcpl().run(ds, seed), config);
}

}  // namespace mcdc::core

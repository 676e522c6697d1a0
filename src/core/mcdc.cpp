#include "core/mcdc.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "common/rng.h"
#include "core/profile_set.h"

namespace mcdc::core {

namespace {

// Runs MGCPL, enforcing the paper's Sec. II-B requirement that the initial
// number of clusters exceed the sought k: whenever the finest recorded
// granularity collapses below k (small-n / large-k corner, e.g. n = 101,
// k = 7 where k0 = sqrt(n) = 11 barely exceeds k), the learning is
// re-launched with a doubled k0 so the embedding can support k clusters.
MgcplResult run_mgcpl_for_k(const MgcplConfig& config,
                            const data::DatasetView& ds, int k,
                            std::uint64_t seed) {
  MgcplConfig working = config;
  if (working.k0 <= 0) {
    working.k0 = std::max(default_k0(ds.num_objects()),
                          std::min<int>(2 * k, static_cast<int>(ds.num_objects())));
  }
  MgcplResult result;
  for (int attempt = 0; attempt < 4; ++attempt) {
    result = Mgcpl(working).run(ds, seed + static_cast<std::uint64_t>(attempt));
    if (result.kappa.front() >= k) return result;
    if (working.k0 >= static_cast<int>(ds.num_objects())) break;
    working.k0 = std::min<int>(2 * working.k0, static_cast<int>(ds.num_objects()));
  }
  return result;
}

}  // namespace

McdcOutput Mcdc::cluster(const data::DatasetView& ds, int k,
                         std::uint64_t seed) const {
  McdcOutput out;
  out.mgcpl = analyze(ds, k, seed);
  out.came = aggregate(out.mgcpl, k, seed);
  out.labels = out.came.labels;
  return out;
}

MgcplResult Mcdc::analyze(const data::DatasetView& ds, int k,
                          std::uint64_t seed) const {
  return run_mgcpl_for_k(config_.mgcpl, ds, k, seed);
}

CameResult Mcdc::aggregate(const MgcplResult& analysis, int k,
                           std::uint64_t seed) const {
  const data::Dataset embedding = encode_gamma(analysis);
  return Came(config_.came).run(embedding, k, seed ^ 0x5bd1e995ULL);
}

baselines::ClusterResult Mcdc::cluster_with(const baselines::Clusterer& inner,
                                            const data::DatasetView& ds, int k,
                                            std::uint64_t seed) const {
  const MgcplResult analysis = run_mgcpl_for_k(config_.mgcpl, ds, k, seed);
  const data::Dataset embedding = encode_gamma(analysis, ds);
  // Degenerate inner runs (the inner method collapsing below k on the
  // low-dimensional embedding) are restarted with derived seeds, the
  // standard remedy for fuzzy/partitional methods. Bounded and
  // deterministic given `seed`; if every restart collapses the failure is
  // reported as-is.
  baselines::ClusterResult result;
  for (int attempt = 0; attempt < kInnerRestarts; ++attempt) {
    const std::uint64_t derived =
        seed ^ (0x5bd1e995ULL + 0x9e3779b9ULL * static_cast<std::uint64_t>(attempt));
    result = inner.cluster(embedding, k, derived);
    if (!result.failed) return result;
  }
  return result;
}

baselines::ClusterResult McdcClusterer::cluster(const data::DatasetView& ds, int k,
                                                std::uint64_t seed) const {
  baselines::ClusterResult result;
  result.labels = mcdc_.cluster(ds, k, seed).labels;
  baselines::finalize_result(result, k);
  return result;
}

BoostedClusterer::BoostedClusterer(
    std::shared_ptr<const baselines::Clusterer> inner, std::string display_name,
    const McdcConfig& config)
    : inner_(std::move(inner)),
      display_name_(std::move(display_name)),
      mcdc_(config) {
  if (!inner_) throw std::invalid_argument("BoostedClusterer: null inner");
}

baselines::ClusterResult BoostedClusterer::cluster(const data::DatasetView& ds,
                                                   int k,
                                                   std::uint64_t seed) const {
  return mcdc_.cluster_with(*inner_, ds, k, seed);
}

baselines::ClusterResult mcdc_v4(const data::DatasetView& ds, int k,
                                 std::uint64_t seed,
                                 const McdcConfig& config) {
  McdcConfig ablated = config;
  ablated.came.weight_update = CameConfig::WeightUpdate::fixed;
  Mcdc mcdc(ablated);
  baselines::ClusterResult result;
  result.labels = mcdc.cluster(ds, k, seed).labels;
  baselines::finalize_result(result, k);
  return result;
}

baselines::ClusterResult mcdc_v3(const data::DatasetView& ds, int k,
                                 std::uint64_t seed,
                                 const McdcConfig& config) {
  Mgcpl mgcpl(config.mgcpl);
  const MgcplResult analysis = mgcpl.run(ds, seed);
  baselines::ClusterResult result;
  result.labels = analysis.final_partition();
  baselines::finalize_result(result, k);
  return result;
}

baselines::ClusterResult mcdc_v2(const data::DatasetView& ds, int k,
                                 std::uint64_t seed, double eta) {
  const std::size_t n = ds.num_objects();
  const auto k_init = static_cast<std::size_t>(
      std::min<std::size_t>(n, static_cast<std::size_t>(k) + 2));

  StageConfig config;
  config.eta = eta;
  config.update = WeightUpdate::additive_winner;
  config.feature_weighting = false;  // Sec. II-B uses the plain Eq. (1)

  Rng rng(seed);
  CompetitiveStage stage(ds, rng.sample_without_replacement(n, k_init), config);
  stage.run();

  baselines::ClusterResult result;
  result.labels = stage.assignment();
  baselines::finalize_result(result, k);
  return result;
}

baselines::ClusterResult mcdc_v1(const data::DatasetView& ds, int k,
                                 std::uint64_t seed, int max_passes) {
  const std::size_t n = ds.num_objects();
  if (k < 1 || static_cast<std::size_t>(k) > n) {
    throw std::invalid_argument("mcdc_v1: invalid k");
  }

  Rng rng(seed);
  std::vector<int> assignment(n, -1);
  ProfileSet profiles(ds.cardinalities(), k);
  const auto seeds =
      rng.sample_without_replacement(n, static_cast<std::size_t>(k));
  for (std::size_t l = 0; l < seeds.size(); ++l) {
    profiles.add(static_cast<int>(l), ds.row(seeds[l]));
    assignment[seeds[l]] = static_cast<int>(l);
  }

  // Alternating maximisation of the overall intra-cluster similarity with
  // the Sec. II-A object-cluster measure: each object is batch-scored
  // against all k clusters in one flat sweep and moves to its most similar
  // one (the lowest id on ties); histograms update online (so the sweep
  // stays sequential).
  std::vector<double> scores(static_cast<std::size_t>(k));
  for (int pass = 0; pass < max_passes; ++pass) {
    bool changed = false;
    for (std::size_t i = 0; i < n; ++i) {
      const data::RowRef row = ds.row(i);
      const int best = profiles.best_cluster(row, scores);
      if (assignment[i] != best) {
        if (assignment[i] >= 0) {
          profiles.move(assignment[i], best, row);
        } else {
          profiles.add(best, row);
        }
        assignment[i] = best;
        changed = true;
      }
    }
    if (!changed) break;
  }

  baselines::ClusterResult result;
  result.labels = std::move(assignment);
  baselines::finalize_result(result, k);
  return result;
}

}  // namespace mcdc::core

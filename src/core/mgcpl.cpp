#include "core/mgcpl.h"

#include <cmath>
#include <memory>
#include <stdexcept>

#include "common/rng.h"

namespace mcdc::core {

int default_k0(std::size_t n) {
  const int k0 = static_cast<int>(std::ceil(std::sqrt(static_cast<double>(n))));
  // At least 2 so competition is possible, but never more than n objects.
  return std::min<int>(static_cast<int>(n), std::max(2, k0));
}

MgcplResult Mgcpl::run(const data::DatasetView& ds, std::uint64_t seed) const {
  if (ds.num_objects() == 0) {
    throw std::invalid_argument("Mgcpl::run: empty dataset");
  }
  const std::size_t n = ds.num_objects();

  int k_initial = config_.k0 > 0 ? config_.k0 : default_k0(n);
  k_initial = std::min<int>(k_initial, static_cast<int>(n));
  if (k_initial < 1) k_initial = 1;

  StageConfig stage_config;
  stage_config.eta = config_.eta;
  stage_config.update = WeightUpdate::sigmoid_rival;
  stage_config.feature_weighting = config_.feature_weighting;
  stage_config.initial_delta = config_.initial_delta;
  stage_config.penalty_uses_winner_similarity =
      config_.penalty_uses_winner_similarity;
  stage_config.cumulative_rho = config_.cumulative_rho;
  stage_config.max_passes = config_.max_passes_per_stage;
  stage_config.stage_drop_fraction = config_.stage_drop_fraction;

  Rng rng(seed);
  MgcplResult result;
  result.k0 = k_initial;

  auto stage = std::make_unique<CompetitiveStage>(
      ds, rng.sample_without_replacement(n, static_cast<std::size_t>(k_initial)),
      stage_config);

  // Upper bound on stages recorded (safety only).
  constexpr int kMaxStages = 64;
  int k_old = k_initial;
  for (int epoch = 0; epoch < kMaxStages; ++epoch) {
    const int passes = stage->run();
    const int k_new = stage->num_clusters();
    result.stages.push_back({k_old, k_new, passes});

    if (!result.kappa.empty() && k_new == k_old) {
      // Alg. 1 line 14: a re-launch that eliminates nothing ends the
      // learning; the duplicate partition is not recorded again.
      break;
    }
    result.kappa.push_back(k_new);
    result.partitions.push_back(stage->assignment());
    if (k_new <= 1) break;  // nothing left to compete

    // Inherit the k_new survivors and clear the convergence-guiding state
    // (Alg. 1 line 13) — or re-seed afresh under the literal reading.
    if (config_.reseed_each_stage) {
      stage = std::make_unique<CompetitiveStage>(
          ds, rng.sample_without_replacement(n, static_cast<std::size_t>(k_new)),
          stage_config);
    } else {
      stage->reset_learning_state();
    }
    k_old = k_new;
  }

  if (result.kappa.empty()) {
    // Degenerate single-cluster data: report the trivial partition.
    result.kappa.push_back(stage->num_clusters());
    result.partitions.push_back(stage->assignment());
  }
  return result;
}

}  // namespace mcdc::core

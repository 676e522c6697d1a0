// MGCPL — Multi-Granular Competitive Penalization Learning (paper Alg. 1).
//
// Starting from k0 (default sqrt(n)) randomly seeded clusters, competitive
// penalization learning (see competitive.h) runs until the partition
// stabilises; the surviving k_1 clusters are recorded as the finest
// granularity. Learning state (g, u, delta) is then cleared and the
// competition re-launched on the inherited clusters, yielding successively
// coarser granularities k_1 > k_2 > ... > k_sigma until a re-launch
// eliminates nothing (k_new == k_old, Alg. 1 line 14). The recorded label
// vectors Gamma = {Y_1..Y_sigma} are the nested multi-granular cluster
// analysis — consumed by CAME, by the distributed pre-partitioner, and
// directly by users exploring cluster structure.
#pragma once

#include <cstdint>
#include <vector>

#include "core/competitive.h"
#include "data/dataset.h"
#include "data/view.h"

namespace mcdc::core {

struct MgcplConfig {
  // Learning rate eta of Eqs. (12)-(13); the paper uses 0.03.
  double eta = 0.03;
  // Initial number of clusters; 0 = ceil(sqrt(n)) (the paper's setting).
  int k0 = 0;
  // Eqs. (15)-(18) feature-cluster weighting; disable to fall back to the
  // plain similarity of Eq. (1).
  bool feature_weighting = true;
  // Literal reading of Alg. 1 line 3: draw fresh random seeds each stage
  // instead of inheriting the surviving clusters (DESIGN.md §5.1).
  bool reseed_each_stage = false;
  // delta at stage start (see StageConfig::initial_delta).
  double initial_delta = 0.5;
  // Eq. (13) penalty similarity source (see StageConfig).
  bool penalty_uses_winner_similarity = false;
  // Eq. (7) winning-count accumulation mode (see StageConfig).
  bool cumulative_rho = true;
  // Sweeps one granularity may absorb before its partition is recorded and
  // the learning state resets; bounds per-stage elimination so the staged
  // descent of Fig. 5 emerges (a stage still ends early once stable).
  int max_passes_per_stage = 6;
  // A stage ends once it has eliminated this fraction of the clusters it
  // started with (see StageConfig::stage_drop_fraction): each elimination
  // quantum registers as its own temporary convergence, producing the
  // geometric staircase of Fig. 5 — each recorded k is roughly
  // (1 - fraction) of the previous one, matching the paper's 4-6
  // convergences per dataset — and a richer (larger sigma) Gamma for CAME.
  // <= 0 disables the quota; then only the max_passes_per_stage cap spreads
  // the descent and most competition is absorbed by the first stage.
  double stage_drop_fraction = 0.3;
};

struct MgcplStageStats {
  int k_before = 0;
  int k_after = 0;
  int passes = 0;
};

struct MgcplResult {
  int k0 = 0;
  // kappa = {k_1, ..., k_sigma}, non-increasing.
  std::vector<int> kappa;
  // Gamma = {Y_1, ..., Y_sigma}; partitions[j][i] in [0, kappa[j]).
  std::vector<std::vector<int>> partitions;
  std::vector<MgcplStageStats> stages;

  int sigma() const { return static_cast<int>(kappa.size()); }
  // k_sigma — the coarsest (and final) number of clusters, the paper's
  // estimate of k*.
  int final_k() const { return kappa.empty() ? 0 : kappa.back(); }
  const std::vector<int>& final_partition() const { return partitions.back(); }
};

class Mgcpl {
 public:
  explicit Mgcpl(const MgcplConfig& config = {}) : config_(config) {}

  // Runs the full multi-granular learning over the viewed rows (a plain
  // Dataset converts to the identity view; distributed shards and
  // streaming windows pass row-index views — labels come back in view
  // positions). Deterministic given the seed.
  MgcplResult run(const data::DatasetView& ds, std::uint64_t seed) const;

  const MgcplConfig& config() const { return config_; }

 private:
  MgcplConfig config_;
};

// The paper's default k0 = sqrt(n), at least 2, at most n.
int default_k0(std::size_t n);

}  // namespace mcdc::core

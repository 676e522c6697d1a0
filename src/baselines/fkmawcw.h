// FKMAWCW (Oskouei, Balafar & Motamed, 2021) — categorical fuzzy k-modes
// with automated attribute-weight and cluster-weight learning.
//
// Minimises
//   J = sum_l w_l^q  sum_i u_il^m  sum_r v_rl^p  delta(x_ir, z_lr)
// subject to sum_l u_il = 1, sum_r v_rl = 1, sum_l w_l = 1, by the usual
// closed-form alternations:
//   memberships u_il  — inverse-distance fuzzification (exponent m),
//   modes z_l         — membership-weighted per-attribute majority,
//   attribute weights v_rl — inverse mismatch mass per (attribute, cluster),
//   cluster weights  w_l   — inverse aggregate dispersion per cluster.
// Defuzzified labels are argmax_l u_il. As in the source (and as the paper
// observed on Mushroom), the fuzzy competition can collapse clusters; such
// runs report failed = true.
#pragma once

#include "baselines/clusterer.h"

namespace mcdc::baselines {

struct FkmawcwConfig {
  enum class Init {
    // Distinct random rows, the source paper's initialisation.
    random,
    // Deterministic density-spread seeding (data::density_seed_modes).
    // The MCDC+F. harness uses this on Gamma embeddings: the embedding's
    // few features make random fuzzy seeding collapse-prone, and the
    // deterministic spread is what reproduces the paper's +/-0.00
    // stability for the boosted variant.
    density,
  };

  // Membership fuzzifier (> 1). Fuzzy k-modes needs a much crisper setting
  // than numeric fuzzy c-means because Hamming distances are small
  // integers; 1.1 follows the fuzzy-k-modes literature (m = 2 smears
  // memberships until clusters collapse).
  double m = 1.1;
  double p = 2.0;  // attribute-weight exponent (> 1)
  double q = 2.0;  // cluster-weight exponent (> 1)
  int max_iterations = 100;
  Init init = Init::random;
  // Retry collapsed runs (fewer than k distinct labels after
  // defuzzification) with seeded random restarts before reporting failure.
  // Off by default: the plain Table III baseline must report its collapses
  // (the paper scores FKMAWCW 0.000 on Mushroom for exactly this reason).
  // The MCDC+F. harness enables it on the Gamma embedding.
  bool restart_on_collapse = false;
  int max_restarts = 5;
};

class Fkmawcw : public Clusterer {
 public:
  explicit Fkmawcw(const FkmawcwConfig& config = {}) : config_(config) {}

  std::string name() const override { return "FKMAWCW"; }
  ClusterResult cluster(const data::DatasetView& ds, int k,
                        std::uint64_t seed) const override;

 private:
  // One full alternating optimisation from one seeding.
  ClusterResult run_once(const data::DatasetView& ds, int k, std::uint64_t seed,
                         bool density_init) const;

  FkmawcwConfig config_;
};

}  // namespace mcdc::baselines

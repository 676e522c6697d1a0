// Competitive (penalization) learning over categorical clusters — the stage
// engine shared by MGCPL (Alg. 1 inner loop, Eqs. 6-13) and by the
// conventional competitive-learning baseline of Sec. II-B (Eqs. 3-8) used in
// the MCDC2 ablation.
//
// One "stage" repeatedly sweeps the data. Per object x_i:
//   winner  v = argmax_l (1 - rho_l) * u_l * s_w(x_i, C_l)         (Eq. 6)
//   rival   h = argmax_{l != v} (1 - rho_l) * u_l * s_w(x_i, C_l)  (Eq. 9)
//   x_i moves to C_v; g_v += 1 (Eq. 10); rho_l = g_l / sum g (Eq. 7)
//   winner reward   delta_v += eta                                 (Eq. 12)
//   rival penalty   delta_h -= eta * s_w(x_i, C_h)                 (Eq. 13)
//   u_l = sigmoid(10 * delta_l - 5)                                (Eq. 11)
// After each sweep the per-cluster feature weights w_rl are refreshed
// (Eqs. 15-18) and clusters that lost every member are eliminated — this is
// the competition that shrinks k. The stage converges when a full sweep
// leaves the partition unchanged (Q_new == Q_old).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/feature_weights.h"
#include "core/profile_set.h"
#include "data/dataset.h"
#include "data/view.h"

namespace mcdc::core {

enum class WeightUpdate {
  // Eq. (11)-(13): u derived from delta through the sigmoid, rivals
  // penalised. This is MGCPL's update.
  sigmoid_rival,
  // Sec. II-B conventional competitive learning: additive winner-only
  // reward u_new = u_old + eta (Eq. 8), no rival penalisation.
  additive_winner,
};

struct StageConfig {
  double eta = 0.03;
  WeightUpdate update = WeightUpdate::sigmoid_rival;
  // Learn w_rl per Eqs. (15)-(18); with false, weights stay uniform and the
  // similarity reduces to Eq. (1).
  bool feature_weighting = true;
  // delta at stage start / reset. The paper's Alg. 1 writes delta_l = 1,
  // which parks every u at sigmoid(5) ~ 0.993 — deep in the saturated zone
  // where penalties cannot differentiate clusters before the partition
  // stabilises. We default to 0.5 (u = 0.5, the sigmoid's maximum
  // sensitivity — the "more sensitive updating" Eq. (11) is motivated by),
  // which reproduces the paper's staged elimination; see DESIGN.md §5.
  double initial_delta = 0.5;
  // Eq. (13) penalises with s(x_i, C_l); read as the rival's own similarity
  // (false) or the winner's (true).
  bool penalty_uses_winner_similarity = false;
  // Eq. (7)'s g_l: accumulate winning counts over the whole stage,
  // recomputing rho after every input (true — the Alg. 1 line 6 reading,
  // default), or freeze rho per sweep at the previous sweep's counts
  // (false — the literal "last learning iteration" reading). Cumulative
  // counts rotate wins within a sweep and avoid winner-take-all cascades.
  bool cumulative_rho = true;
  // Sweeps per stage. The stage also ends as soon as the partition repeats;
  // this cap bounds how much competition a single granularity absorbs, so
  // elimination spreads over several stages as in the paper's Fig. 5.
  int max_passes = 100;
  // End the stage as soon as the sweeps since stage start have eliminated
  // at least ceil(stage_drop_fraction * k_at_stage_start) clusters. Each
  // elimination quantum then registers as its own temporary convergence,
  // which yields the geometric multi-granular staircase of Fig. 5 (and a
  // richer Gamma for CAME) instead of one stage absorbing most of the
  // competition. <= 0 disables the quota (stages end only on stability or
  // the max_passes cap); values near 0 break on every kill.
  double stage_drop_fraction = 0.0;
};

// Mutable state of one competitive stage. The object also serves as the
// carrier between MGCPL stages: reset_learning_state() clears g/u/delta
// (Alg. 1 line 13) while keeping cluster memberships — the inheritance that
// seeds the next, coarser granularity.
class CompetitiveStage {
 public:
  // Starts with every object unassigned and the given rows as singleton
  // seed clusters (Alg. 1 line 3). The view (and any row-index buffer
  // behind it) must outlive the stage; seeds are view positions.
  CompetitiveStage(const data::DatasetView& ds,
                   const std::vector<std::size_t>& seeds,
                   const StageConfig& config);

  // Runs sweeps until the partition stabilises; returns the number of
  // sweeps executed. Empty clusters are pruned between sweeps.
  int run();

  // Alg. 1 line 13: g_l = 0, delta_l = 1 (so u_l = sigmoid(5)), keeping
  // memberships and (learned) feature weights of surviving clusters.
  void reset_learning_state();

  int num_clusters() const { return set_.num_clusters(); }
  // Dense labels in [0, num_clusters()); every object is assigned after the
  // first run().
  const std::vector<int>& assignment() const { return assignment_; }
  // Flat histogram bank of the live clusters (the scoring hot path).
  const ProfileSet& profile_set() const { return set_; }
  const std::vector<std::vector<double>>& omega() const { return omega_; }
  const std::vector<double>& cluster_weights() const { return u_; }

 private:
  void refresh_feature_weights();
  // Drops empty clusters, remapping assignment/ids densely.
  void prune_empty_clusters();
  // Mirrors omega_ into the feature-major wt_ buffer score sweeps consume.
  void rebuild_weight_bank();

  data::DatasetView ds_;
  StageConfig config_;
  GlobalCounts global_;

  ProfileSet set_;  // all k clusters' histograms, one flat bank
  std::vector<std::vector<double>> omega_;  // [cluster][feature]
  std::vector<double> wt_;                  // omega_ transposed: [r * k + l]
  std::vector<double> scores_;              // per-object batched scores
  std::vector<int> assignment_;             // -1 while unassigned
  // Winning counts (Eq. 10): g_prev_ holds the previous sweep's counts —
  // Eq. (7)'s "winning times in the last learning iteration" — and stays
  // fixed while g_cur_ accumulates during the current sweep.
  std::vector<double> g_prev_;
  std::vector<double> g_cur_;
  std::vector<double> delta_;               // sigmoid input (Eqs. 12-13)
  std::vector<double> u_;                   // cluster weights (Eq. 11)
};

// Convenience: u = sigmoid(10 * delta - 5) (Eq. 11).
double cluster_weight_sigmoid(double delta);

}  // namespace mcdc::core

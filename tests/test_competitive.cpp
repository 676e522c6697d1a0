// Tests for the competitive (penalization) learning stage engine.
#include "core/competitive.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <set>
#include <string>

#include "common/rng.h"
#include "core/simd.h"
#include "data/noise.h"
#include "data/synthetic.h"

namespace mcdc::core {
namespace {

// The competitive stage as it was before its sweeps scored only non-zero
// lanes (the seeding sweep) or read a quotient cache (every later sweep):
// every row is scored against all k clusters by the dense
// ProfileSet::weighted_score_all kernel, winner and rival come from two
// argmax scans, and g_total is re-summed before every visit. The sweep
// harness below holds CompetitiveStage to it bit for bit.
class ReferenceStage {
 public:
  ReferenceStage(const data::DatasetView& ds,
                 const std::vector<std::size_t>& seeds,
                 const StageConfig& config)
      : ds_(ds), config_(config), global_(ds) {
    const std::size_t k = seeds.size();
    set_ = ProfileSet(ds.cardinalities(), static_cast<int>(k));
    assignment_.assign(ds.num_objects(), -1);
    for (std::size_t l = 0; l < k; ++l) {
      set_.add(static_cast<int>(l), ds.row(seeds[l]));
      assignment_[seeds[l]] = static_cast<int>(l);
    }
    omega_.assign(k, std::vector<double>(
                         ds.num_features(),
                         1.0 / static_cast<double>(ds.num_features())));
    g_prev_.assign(k, 0.0);
    g_cur_.assign(k, 0.0);
    delta_.assign(k, config.initial_delta);
    u_.assign(k, config.update == WeightUpdate::sigmoid_rival
                     ? cluster_weight_sigmoid(config.initial_delta)
                     : 1.0);
    rebuild_weight_bank();
  }

  int run() {
    const std::size_t n = ds_.num_objects();
    int passes = 0;
    const auto k_start = static_cast<std::size_t>(set_.num_clusters());
    std::size_t quota = 0;
    if (config_.stage_drop_fraction > 0.0) {
      quota = static_cast<std::size_t>(std::ceil(
          config_.stage_drop_fraction * static_cast<double>(k_start)));
      quota = std::max<std::size_t>(quota, 1);
    }
    while (passes < config_.max_passes) {
      ++passes;
      bool changed = false;
      for (std::size_t i = 0; i < n; ++i) {
        const data::RowRef row = ds_.row(i);
        const auto k = static_cast<std::size_t>(set_.num_clusters());
        if (k == 1) {
          if (assignment_[i] != 0) {
            if (assignment_[i] >= 0) {
              set_.move(assignment_[i], 0, row);
            } else {
              set_.add(0, row);
            }
            assignment_[i] = 0;
            changed = true;
          }
          g_cur_[0] += 1.0;
          if (config_.cumulative_rho) g_prev_[0] += 1.0;
          continue;
        }
        double g_total = 0.0;
        for (double g : g_prev_) g_total += g;
        scores_.resize(k);
        set_.weighted_score_all(row, wt_.data(), scores_.data());
        for (std::size_t l = 0; l < k; ++l) {
          const double rho = g_total > 0.0 ? g_prev_[l] / g_total : 0.0;
          scores_[l] = (1.0 - rho) * u_[l] * scores_[l];
        }
        const simd::Kernels& kr = simd::kernels();
        const auto v = static_cast<std::size_t>(kr.argmax(scores_.data(), k));
        scores_[v] = -1.0;
        const auto h = static_cast<std::size_t>(kr.argmax(scores_.data(), k));
        const int old = assignment_[i];
        if (old != static_cast<int>(v)) {
          if (old >= 0) {
            set_.move(old, static_cast<int>(v), row);
          } else {
            set_.add(static_cast<int>(v), row);
          }
          assignment_[i] = static_cast<int>(v);
          changed = true;
        }
        g_cur_[v] += 1.0;
        if (config_.cumulative_rho) g_prev_[v] += 1.0;
        if (config_.update == WeightUpdate::sigmoid_rival) {
          delta_[v] += config_.eta;
          const auto p = static_cast<int>(
              config_.penalty_uses_winner_similarity ? v : h);
          const double penalty_sim = set_.weighted_score_one(
              p, row, omega_[static_cast<std::size_t>(p)]);
          delta_[h] -= config_.eta * penalty_sim;
          u_[v] = cluster_weight_sigmoid(delta_[v]);
          u_[h] = cluster_weight_sigmoid(delta_[h]);
        } else {
          u_[v] += config_.eta;
        }
      }
      prune_empty_clusters();
      if (config_.feature_weighting) refresh_feature_weights();
      if (!config_.cumulative_rho) {
        g_prev_ = g_cur_;
        std::fill(g_cur_.begin(), g_cur_.end(), 0.0);
      }
      if (!changed) break;
      if (quota > 0 &&
          k_start - static_cast<std::size_t>(set_.num_clusters()) >= quota) {
        break;
      }
    }
    return passes;
  }

  void reset_learning_state() {
    const auto k = static_cast<std::size_t>(set_.num_clusters());
    g_prev_.assign(k, 0.0);
    g_cur_.assign(k, 0.0);
    delta_.assign(k, config_.initial_delta);
    u_.assign(k, config_.update == WeightUpdate::sigmoid_rival
                     ? cluster_weight_sigmoid(config_.initial_delta)
                     : 1.0);
  }

  int num_clusters() const { return set_.num_clusters(); }

  std::vector<int> assignment_;
  std::vector<std::vector<double>> omega_;
  std::vector<double> g_prev_;
  std::vector<double> delta_;
  std::vector<double> u_;

 private:
  void refresh_feature_weights() {
    for (int l = 0; l < set_.num_clusters(); ++l) {
      omega_[static_cast<std::size_t>(l)] = feature_weights(global_, set_, l);
    }
    rebuild_weight_bank();
  }

  void rebuild_weight_bank() {
    const auto k = static_cast<std::size_t>(set_.num_clusters());
    const std::size_t d = ds_.num_features();
    wt_.resize(d * k);
    for (std::size_t r = 0; r < d; ++r) {
      for (std::size_t l = 0; l < k; ++l) wt_[r * k + l] = omega_[l][r];
    }
  }

  void prune_empty_clusters() {
    const auto k = static_cast<std::size_t>(set_.num_clusters());
    std::vector<char> dead(k, 0);
    bool any = false;
    for (std::size_t l = 0; l < k; ++l) {
      if (set_.empty(static_cast<int>(l))) {
        dead[l] = 1;
        any = true;
      }
    }
    if (!any) return;
    const std::vector<int> remap = set_.remove_clusters(dead);
    const auto live = static_cast<std::size_t>(set_.num_clusters());
    for (std::size_t l = 0; l < k; ++l) {
      if (remap[l] < 0) continue;
      const auto nl = static_cast<std::size_t>(remap[l]);
      if (nl != l) {
        omega_[nl] = std::move(omega_[l]);
        g_prev_[nl] = g_prev_[l];
        g_cur_[nl] = g_cur_[l];
        delta_[nl] = delta_[l];
        u_[nl] = u_[l];
      }
    }
    omega_.resize(live);
    g_prev_.resize(live);
    g_cur_.resize(live);
    delta_.resize(live);
    u_.resize(live);
    for (auto& a : assignment_) {
      if (a >= 0) a = remap[static_cast<std::size_t>(a)];
    }
    rebuild_weight_bank();
  }

  data::DatasetView ds_;
  StageConfig config_;
  GlobalCounts global_;
  ProfileSet set_;
  std::vector<double> wt_;
  std::vector<double> scores_;
  std::vector<double> g_cur_;
};

// IEEE-754 bit patterns, so +0.0 and -0.0 (or two NaNs) never compare
// equal by accident.
std::vector<std::uint64_t> bits(const std::vector<double>& values) {
  std::vector<std::uint64_t> out(values.size());
  std::memcpy(out.data(), values.data(), values.size() * sizeof(double));
  return out;
}

std::vector<std::uint64_t> bits(const std::vector<std::vector<double>>& rows) {
  std::vector<std::uint64_t> out;
  for (const std::vector<double>& row : rows) {
    const std::vector<std::uint64_t> b = bits(row);
    out.insert(out.end(), b.begin(), b.end());
  }
  return out;
}

// A nested table with about one cell in ten missing, every 29th row
// all-missing and every 17th row a copy of the row before it.
data::Dataset gapped_table(std::size_t n, std::size_t d, int cardinality,
                           std::uint64_t seed) {
  data::NestedConfig config;
  config.num_objects = n;
  config.num_features = d;
  config.num_coarse = 4;
  config.fine_per_coarse = 3;
  config.cardinality = cardinality;
  config.purity = 0.8;
  config.seed = seed;
  const data::Dataset holed =
      data::with_missing_cells(data::nested(config).dataset, 0.1, seed + 1);
  std::vector<data::Value> cells(n * d);
  for (std::size_t i = 0; i < n; ++i) {
    if (i % 29 == 5) {
      std::fill_n(&cells[i * d], d, data::kMissing);
    } else if (i % 17 == 9) {
      std::copy_n(&cells[(i - 1) * d], d, &cells[i * d]);
    } else {
      holed.gather_row(i, &cells[i * d]);
    }
  }
  return data::Dataset(n, d, std::move(cells), holed.cardinalities());
}

// Runs CompetitiveStage and ReferenceStage from the same seeds one sweep
// at a time (run() with max_passes = 1), resetting the learning state of
// both every `reset_every` sweeps, and compares after every sweep the
// assignment, u, omega, g and delta bit for bit.
void expect_reference_sweeps(const std::string& what, const data::Dataset& ds,
                             std::size_t k0, StageConfig config, int sweeps,
                             int reset_every) {
  config.max_passes = 1;
  const std::vector<std::size_t> seeds =
      Rng(k0 * 7919 + ds.num_objects()).sample_without_replacement(
          ds.num_objects(), k0);
  ReferenceStage reference(ds, seeds, config);
  CompetitiveStage stage(ds, seeds, config);
  for (int sweep = 1; sweep <= sweeps; ++sweep) {
    SCOPED_TRACE(what + ", sweep " + std::to_string(sweep));
    ASSERT_EQ(stage.run(), reference.run());
    ASSERT_EQ(stage.num_clusters(), reference.num_clusters());
    ASSERT_EQ(stage.assignment(), reference.assignment_);
    ASSERT_EQ(bits(stage.cluster_weights()), bits(reference.u_));
    ASSERT_EQ(bits(stage.omega()), bits(reference.omega_));
    ASSERT_EQ(bits(stage.winning_counts()), bits(reference.g_prev_));
    ASSERT_EQ(bits(stage.deltas()), bits(reference.delta_));
    if (reset_every > 0 && sweep % reset_every == 0) {
      stage.reset_learning_state();
      reference.reset_learning_state();
    }
  }
}

TEST(CompetitiveStage, SweepsMatchTheDenseReferenceBitForBit) {
  const data::Dataset gapped = gapped_table(600, 8, 12, 41);
  const data::Dataset small = gapped_table(150, 6, 12, 43);
  const data::Dataset wide = gapped_table(1000, 16, 32, 47);
  ASSERT_TRUE(gapped.has_missing());
  StageConfig frozen_rho;
  frozen_rho.cumulative_rho = false;
  StageConfig winner_penalty;
  winner_penalty.penalty_uses_winner_similarity = true;
  StageConfig additive;  // mcdc_v2's stage
  additive.update = WeightUpdate::additive_winner;
  additive.feature_weighting = false;
  const simd::Level entry = simd::level();
  for (const simd::Level level : {simd::Level::kScalar, simd::Level::kAvx2}) {
    simd::set_level(level);
    const std::string at = std::string(" at ") + simd::level_name(level);
    expect_reference_sweeps("default" + at, gapped, 30, {}, 9, 3);
    expect_reference_sweeps("frozen rho" + at, gapped, 30, frozen_rho, 9, 4);
    expect_reference_sweeps("winner penalty" + at, gapped, 30, winner_penalty,
                            9, 3);
    expect_reference_sweeps("additive" + at, gapped, 12, additive, 6, 0);
    // k0 near n (a three-word lane bitmap), and k0 = n, where no row is
    // left unassigned for a seeding sweep.
    expect_reference_sweeps("k0 near n" + at, small, 140, {}, 6, 2);
    expect_reference_sweeps("k0 = n, frozen rho" + at, small, 150, frozen_rho,
                            4, 2);
    expect_reference_sweeps("k0 = 224" + at, wide, 224, {}, 6, 3);
  }
  simd::set_level(entry);
}

TEST(SigmoidWeight, MatchesEq11) {
  // u = 1 / (1 + e^(-10*delta + 5))
  EXPECT_NEAR(cluster_weight_sigmoid(0.5), 0.5, 1e-12);
  EXPECT_NEAR(cluster_weight_sigmoid(1.0), 1.0 / (1.0 + std::exp(-5.0)), 1e-12);
  EXPECT_NEAR(cluster_weight_sigmoid(0.0), 1.0 / (1.0 + std::exp(5.0)), 1e-12);
  EXPECT_GT(cluster_weight_sigmoid(2.0), 0.999);
  EXPECT_LT(cluster_weight_sigmoid(-1.0), 0.001);
}

TEST(CompetitiveStage, SeedsBecomeSingletonClusters) {
  const auto ds = data::well_separated({});
  CompetitiveStage stage(ds, {0, 1, 2}, {});
  EXPECT_EQ(stage.num_clusters(), 3);
  EXPECT_EQ(stage.assignment()[0], 0);
  EXPECT_EQ(stage.assignment()[1], 1);
  EXPECT_EQ(stage.assignment()[2], 2);
  EXPECT_EQ(stage.assignment()[3], -1);
  for (int l = 0; l < stage.num_clusters(); ++l) {
    EXPECT_EQ(stage.profile_set().size(l), 1.0);
  }
}

TEST(CompetitiveStage, Validation) {
  const auto ds = data::well_separated({});
  EXPECT_THROW(CompetitiveStage(ds, {}, {}), std::invalid_argument);
  EXPECT_THROW(CompetitiveStage(ds, {0, 0}, {}), std::invalid_argument);
  EXPECT_THROW(CompetitiveStage(ds, {ds.num_objects()}, {}),
               std::invalid_argument);
}

TEST(CompetitiveStage, RunAssignsEveryObject) {
  const auto ds = data::well_separated({});
  CompetitiveStage stage(ds, {0, 1, 2, 3, 4, 5, 6, 7}, {});
  const int passes = stage.run();
  EXPECT_GE(passes, 1);
  for (int a : stage.assignment()) {
    EXPECT_GE(a, 0);
    EXPECT_LT(a, stage.num_clusters());
  }
}

TEST(CompetitiveStage, LabelsStayDenseAfterPruning) {
  data::WellSeparatedConfig config;
  config.num_objects = 300;
  const auto ds = data::well_separated(config);
  CompetitiveStage stage(ds, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, {});
  stage.run();
  const int k = stage.num_clusters();
  std::set<int> seen(stage.assignment().begin(), stage.assignment().end());
  EXPECT_EQ(static_cast<int>(seen.size()), k);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), k - 1);
  // Profile sizes agree with assignment counts.
  std::vector<int> counts(static_cast<std::size_t>(k), 0);
  for (int a : stage.assignment()) ++counts[static_cast<std::size_t>(a)];
  for (int l = 0; l < k; ++l) {
    EXPECT_EQ(stage.profile_set().size(l), counts[static_cast<std::size_t>(l)]);
  }
}

TEST(CompetitiveStage, RedundantSeedsGetEliminated) {
  // 3 well-separated clusters, 12 seeds: competition must prune most of the
  // redundancy.
  data::WellSeparatedConfig config;
  config.num_objects = 600;
  config.purity = 0.95;
  const auto ds = data::well_separated(config);
  std::vector<std::size_t> seeds;
  for (std::size_t i = 0; i < 12; ++i) seeds.push_back(i);
  StageConfig sc;
  sc.max_passes = 50;
  CompetitiveStage stage(ds, seeds, sc);
  stage.run();
  EXPECT_LT(stage.num_clusters(), 12);
  EXPECT_GE(stage.num_clusters(), 3);
}

TEST(CompetitiveStage, SingleClusterAbsorbsEverything) {
  const auto ds = data::well_separated({});
  CompetitiveStage stage(ds, {5}, {});
  stage.run();
  EXPECT_EQ(stage.num_clusters(), 1);
  for (int a : stage.assignment()) EXPECT_EQ(a, 0);
}

TEST(CompetitiveStage, OmegaRowsAreDistributions) {
  const auto ds = data::well_separated({});
  CompetitiveStage stage(ds, {0, 1, 2, 3, 4}, {});
  stage.run();
  for (const auto& row : stage.omega()) {
    double sum = 0.0;
    for (double w : row) {
      EXPECT_GE(w, 0.0);
      sum += w;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(CompetitiveStage, ClusterWeightsStayInUnitInterval) {
  const auto ds = data::well_separated({});
  CompetitiveStage stage(ds, {0, 1, 2, 3, 4, 5}, {});
  stage.run();
  for (double u : stage.cluster_weights()) {
    EXPECT_GE(u, 0.0);
    EXPECT_LE(u, 1.0);
  }
}

TEST(CompetitiveStage, ResetLearningStateKeepsMembership) {
  const auto ds = data::well_separated({});
  StageConfig sc;
  sc.initial_delta = 0.5;
  CompetitiveStage stage(ds, {0, 1, 2, 3}, sc);
  stage.run();
  const auto before = stage.assignment();
  const int k = stage.num_clusters();
  stage.reset_learning_state();
  EXPECT_EQ(stage.assignment(), before);
  EXPECT_EQ(stage.num_clusters(), k);
  for (double u : stage.cluster_weights()) {
    EXPECT_NEAR(u, cluster_weight_sigmoid(0.5), 1e-12);
  }
}

TEST(CompetitiveStage, AdditiveModeRunsAndGrowsWinnerWeights) {
  const auto ds = data::well_separated({});
  StageConfig sc;
  sc.update = WeightUpdate::additive_winner;
  sc.feature_weighting = false;
  CompetitiveStage stage(ds, {0, 1, 2, 3, 4}, sc);
  stage.run();
  // At least one winner accumulated weight above the initial 1.0.
  bool grew = false;
  for (double u : stage.cluster_weights()) {
    if (u > 1.0) grew = true;
  }
  EXPECT_TRUE(grew);
}

TEST(CompetitiveStage, DeterministicGivenSameSeeds) {
  const auto ds = data::well_separated({});
  CompetitiveStage a(ds, {0, 10, 20, 30}, {});
  CompetitiveStage b(ds, {0, 10, 20, 30}, {});
  a.run();
  b.run();
  EXPECT_EQ(a.assignment(), b.assignment());
  EXPECT_EQ(a.num_clusters(), b.num_clusters());
}

TEST(CompetitiveStage, MaxPassesBoundsWork) {
  const auto ds = data::well_separated({});
  StageConfig sc;
  sc.max_passes = 1;
  CompetitiveStage stage(ds, {0, 1, 2, 3}, sc);
  EXPECT_EQ(stage.run(), 1);
}

}  // namespace
}  // namespace mcdc::core

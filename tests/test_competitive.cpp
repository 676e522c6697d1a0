// Tests for the competitive (penalization) learning stage engine.
#include "core/competitive.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "data/synthetic.h"

namespace mcdc::core {
namespace {

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

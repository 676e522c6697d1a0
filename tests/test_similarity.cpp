// Tests for the object-cluster similarity (Eqs. 1-2, 14) and the
// feature-contribution weights (Eqs. 15-18): the histogram bank
// (core::ProfileSet) against hand-computed values and against the
// definition-level reference of similarity.h.
#include "core/similarity.h"

#include <gtest/gtest.h>

#include <numeric>

#include "core/feature_weights.h"
#include "core/profile_set.h"
#include "data/dataset.h"

namespace mcdc::core {
namespace {

using data::Dataset;
using data::kMissing;

// 4 objects, 2 features; feature 0 has 3 values, feature 1 has 2.
Dataset tiny() {
  return Dataset(4, 2,
                 {0, 0,   //
                  0, 1,   //
                  1, 0,   //
                  2, 1},
                 {3, 2});
}

TEST(Similarity, AddRemoveRoundTrip) {
  const Dataset ds = tiny();
  ProfileSet p(ds.cardinalities(), 1);
  EXPECT_TRUE(p.empty(0));
  p.add(0, ds.row(0));
  p.add(0, ds.row(1));
  EXPECT_EQ(p.size(0), 2.0);
  EXPECT_EQ(p.count(0, 0, 0), 2.0);
  EXPECT_EQ(p.count(0, 1, 0), 1.0);
  EXPECT_EQ(p.non_null(0, 0), 2.0);
  p.remove(0, ds.row(0));
  EXPECT_EQ(p.size(0), 1.0);
  EXPECT_EQ(p.count(0, 0, 0), 1.0);
  p.remove(0, ds.row(1));
  EXPECT_TRUE(p.empty(0));
  for (std::size_t r = 0; r < 2; ++r) EXPECT_EQ(p.non_null(0, r), 0.0);
}

TEST(Similarity, ValueSimilarityIsFrequencyRatio) {
  const Dataset ds = tiny();
  const std::vector<int> labels = {0, 0, 0, -1};
  const ProfileSet p = ProfileSet::from_assignment(ds, labels, 1);
  // Psi_{F0=0} = 2 of 3.
  EXPECT_DOUBLE_EQ(p.value_similarity(0, 0, 0), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(p.value_similarity(0, 0, 1), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(p.value_similarity(0, 0, 2), 0.0);
  for (data::Value v = 0; v < 3; ++v) {
    EXPECT_EQ(p.value_similarity(0, 0, v),
              reference::value_similarity(ds, labels, 0, 0, v));
  }
}

TEST(Similarity, SimilarityAveragesOverFeatures) {
  const Dataset ds = tiny();
  const ProfileSet p = ProfileSet::from_assignment(ds, {0, 0, -1, -1}, 1);
  // Object 0 = (0,0): s = 1/2 * (2/2 + 1/2) = 0.75.
  EXPECT_DOUBLE_EQ(p.score_one(0, ds.row(0)), 0.75);
  // Object 3 = (2,1): s = 1/2 * (0 + 1/2) = 0.25.
  EXPECT_DOUBLE_EQ(p.score_one(0, ds.row(3)), 0.25);
}

TEST(Similarity, SelfSimilarityOfSingletonIsOne) {
  const Dataset ds = tiny();
  const ProfileSet p = ProfileSet::from_assignment(ds, {-1, -1, 0, -1}, 1);
  EXPECT_DOUBLE_EQ(p.score_one(0, ds.row(2)), 1.0);
}

TEST(Similarity, WeightedSimilarityUniformMatchesEq1) {
  const Dataset ds = tiny();
  const ProfileSet p = ProfileSet::from_assignment(ds, {0, 0, -1, 0}, 1);
  const std::vector<double> uniform(2, 0.5);
  for (std::size_t i = 0; i < ds.num_objects(); ++i) {
    EXPECT_NEAR(p.weighted_score_one(0, ds.row(i), uniform),
                p.score_one(0, ds.row(i)),
                1e-12);
  }
}

TEST(Similarity, WeightedSimilaritySkewsTowardHeavyFeature) {
  const Dataset ds = tiny();
  const ProfileSet p = ProfileSet::from_assignment(ds, {0, -1, -1, -1}, 1);
  // Object 1 = (0,1): matches feature 0 only.
  EXPECT_DOUBLE_EQ(p.weighted_score_one(0, ds.row(1), {1.0, 0.0}), 1.0);
  EXPECT_DOUBLE_EQ(p.weighted_score_one(0, ds.row(1), {0.0, 1.0}), 0.0);
}

TEST(Similarity, MissingValuesAreNeutral) {
  // One feature, one object missing.
  const Dataset ds(3, 1, {0, kMissing, 0}, {2});
  const ProfileSet p = ProfileSet::from_assignment(ds, {0, 0, -1}, 1);
  // Psi_{F0 != NULL} = 1 although the cluster has two members.
  EXPECT_EQ(p.size(0), 2.0);
  EXPECT_EQ(p.non_null(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(p.value_similarity(0, 0, 0), 1.0);
  // The missing value itself has similarity zero.
  EXPECT_DOUBLE_EQ(p.score_one(0, ds.row(1)), 0.0);
}

TEST(Similarity, AllNullColumnYieldsZero) {
  const Dataset ds(2, 1, {kMissing, kMissing}, {2});
  const std::vector<int> labels = {0, -1};
  const ProfileSet p = ProfileSet::from_assignment(ds, labels, 1);
  EXPECT_DOUBLE_EQ(p.value_similarity(0, 0, 0), 0.0);
  EXPECT_DOUBLE_EQ(reference::value_similarity(ds, labels, 0, 0, 0), 0.0);
}

TEST(Similarity, ModePicksMostFrequentValue) {
  const Dataset ds = tiny();
  const ProfileSet p = ProfileSet::from_assignment(ds, {0, 0, 0, -1}, 1);
  const auto mode = p.mode(0);
  EXPECT_EQ(mode[0], 0);  // value 0 appears twice
  EXPECT_EQ(mode[1], 0);  // feature 1 -> 0:2, 1:1
}

TEST(Similarity, ModeOfEmptyClusterIsMissing) {
  const ProfileSet p(tiny().cardinalities(), 1);
  const auto mode = p.mode(0);
  EXPECT_EQ(mode[0], kMissing);
  EXPECT_EQ(mode[1], kMissing);
}

TEST(Similarity, FromAssignmentGroupsByLabel) {
  const Dataset ds = tiny();
  const ProfileSet p = ProfileSet::from_assignment(ds, {0, 0, 1, -1}, 2);
  ASSERT_EQ(p.num_clusters(), 2);
  EXPECT_EQ(p.size(0), 2.0);
  EXPECT_EQ(p.size(1), 1.0);
  EXPECT_THROW(ProfileSet::from_assignment(ds, {0, 0}, 2),
               std::invalid_argument);
  EXPECT_THROW(ProfileSet::from_assignment(ds, {0, 0, 5, 0}, 2),
               std::invalid_argument);
}

TEST(Similarity, ReferenceMatchesHandComputedEquations) {
  const Dataset ds = tiny();
  const std::vector<int> labels = {0, 0, 1, 1};
  const std::vector<data::Value> row = {0, 0};
  // Cluster 0 = {(0,0), (0,1)}: s = 1/2 * (2/2 + 1/2).
  EXPECT_DOUBLE_EQ(reference::similarity(ds, labels, 0, row.data()), 0.75);
  EXPECT_DOUBLE_EQ(
      reference::weighted_similarity(ds, labels, 0, row.data(), {0.25, 0.75}),
      0.25 * 1.0 + 0.75 * 0.5);
  // Out-of-domain and missing codes score zero.
  const std::vector<data::Value> unseen = {17, kMissing};
  EXPECT_DOUBLE_EQ(reference::similarity(ds, labels, 0, unseen.data()), 0.0);
}

// --- Feature weights (Eqs. 15-18) ---------------------------------------------

TEST(FeatureWeights, SumToOne) {
  const Dataset ds = tiny();
  const GlobalCounts global(ds);
  const ProfileSet set = ProfileSet::from_assignment(ds, {0, 0, 1, 1}, 2);
  for (int l = 0; l < 2; ++l) {
    const auto w = feature_weights(global, set, l);
    EXPECT_NEAR(std::accumulate(w.begin(), w.end(), 0.0), 1.0, 1e-12);
    for (double x : w) EXPECT_GE(x, 0.0);
  }
}

TEST(FeatureWeights, DiscriminativeFeatureDominates) {
  // Feature 0 perfectly separates clusters {0,1} vs {2,3}; feature 1 is
  // identical everywhere and separates nothing.
  const Dataset ds(4, 2,
                   {0, 0,  //
                    0, 0,  //
                    1, 0,  //
                    1, 0},
                   {2, 1});
  const GlobalCounts global(ds);
  const ProfileSet set = ProfileSet::from_assignment(ds, {0, 0, 1, 1}, 2);
  const auto w = feature_weights(global, set, 0);
  EXPECT_GT(w[0], 0.99);
  EXPECT_LT(w[1], 0.01);
}

TEST(FeatureWeights, AlphaIsZeroWhenDistributionsMatch) {
  // Cluster's value distribution equals the complement's -> alpha = 0.
  const Dataset ds(4, 1, {0, 1, 0, 1}, {2});
  const GlobalCounts global(ds);
  const ProfileSet set = ProfileSet::from_assignment(ds, {0, 0, 1, 1}, 2);
  EXPECT_NEAR(inter_cluster_difference(global, set, 0, 0), 0.0, 1e-12);
}

TEST(FeatureWeights, AlphaIsOneForDisjointValues) {
  const Dataset ds(4, 1, {0, 0, 1, 1}, {2});
  const GlobalCounts global(ds);
  const ProfileSet set = ProfileSet::from_assignment(ds, {0, 0, 1, 1}, 2);
  // Distributions (1,0) vs (0,1): Euclidean distance sqrt(2), normalised.
  EXPECT_NEAR(inter_cluster_difference(global, set, 0, 0), 1.0, 1e-12);
}

TEST(FeatureWeights, BetaIsOneForPureCluster) {
  const Dataset ds(4, 1, {0, 0, 1, 1}, {2});
  const ProfileSet set = ProfileSet::from_assignment(ds, {0, 0, 1, 1}, 2);
  EXPECT_NEAR(intra_cluster_similarity(set, 0, 0), 1.0, 1e-12);
}

TEST(FeatureWeights, BetaOfMixedCluster) {
  const Dataset ds(4, 1, {0, 0, 1, 1}, {2});
  const ProfileSet set = ProfileSet::from_assignment(ds, {0, 0, 0, 0}, 1);
  // Two values, two members each: sum counts^2 / (n * nonnull) = 8/16.
  EXPECT_NEAR(intra_cluster_similarity(set, 0, 0), 0.5, 1e-12);
}

TEST(FeatureWeights, DegenerateClusterFallsBackToUniform) {
  // Cluster distribution identical to complement on every feature: all
  // H_rl = 0 -> uniform weights.
  const Dataset ds(4, 2, {0, 0, 1, 1, 0, 0, 1, 1}, {2, 2});
  const GlobalCounts global(ds);
  const ProfileSet set = ProfileSet::from_assignment(ds, {0, 1, 0, 1}, 2);
  const auto w = feature_weights(global, set, 0);
  EXPECT_DOUBLE_EQ(w[0], 0.5);
  EXPECT_DOUBLE_EQ(w[1], 0.5);
}

}  // namespace
}  // namespace mcdc::core

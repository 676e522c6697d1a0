// Tests for the extension modules: streaming MGCPL (paper future work 2),
// the distributed MCDC protocol (Sec. III-D deployment), and the classic
// linkage baselines.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "baselines/linkage.h"
#include "common/rng.h"
#include "core/rgcl.h"
#include "core/streaming.h"
#include "data/synthetic.h"
#include "dist/distributed_mcdc.h"
#include "metrics/indices.h"

namespace mcdc {
namespace {

// --- StreamingMgcpl --------------------------------------------------------------

data::Dataset stream_chunk(std::size_t n, std::uint64_t seed) {
  data::WellSeparatedConfig config;
  config.num_objects = n;
  config.num_clusters = 3;
  config.cardinality = 5;
  config.purity = 0.95;
  config.seed = seed;
  return data::well_separated(config);
}

TEST(StreamingMgcpl, Validation) {
  EXPECT_THROW(core::StreamingMgcpl({}), std::invalid_argument);
  core::StreamingConfig bad;
  bad.decay = 0.0;
  EXPECT_THROW(core::StreamingMgcpl({2, 2}, bad), std::invalid_argument);
  bad.decay = 0.9;
  bad.max_clusters = 0;
  EXPECT_THROW(core::StreamingMgcpl({2, 2}, bad), std::invalid_argument);
}

TEST(StreamingMgcpl, StationaryStreamSettlesNearTrueK) {
  const auto chunk0 = stream_chunk(400, 1);
  core::StreamingMgcpl learner(chunk0.cardinalities());
  for (std::uint64_t c = 0; c < 5; ++c) {
    learner.observe_chunk(stream_chunk(400, c + 1));
  }
  // Three planted clusters; allow slight over-segmentation.
  EXPECT_GE(learner.num_clusters(), 3u);
  EXPECT_LE(learner.num_clusters(), 6u);
  // The classifier view recovers the planted structure.
  const auto probe = stream_chunk(300, 99);
  const auto labels = learner.classify(probe);
  EXPECT_GT(metrics::adjusted_mutual_information(labels, probe.labels()), 0.8);
}

TEST(StreamingMgcpl, ChunkAssignmentsAreValid) {
  const auto chunk = stream_chunk(200, 7);
  core::StreamingMgcpl learner(chunk.cardinalities());
  const auto assigned = learner.observe_chunk(chunk);
  ASSERT_EQ(assigned.size(), chunk.num_objects());
  for (int a : assigned) EXPECT_GE(a, 0);
}

TEST(StreamingMgcpl, SchemaMismatchThrows) {
  core::StreamingMgcpl learner({4, 4});
  const auto chunk = stream_chunk(50, 1);  // 10 features
  EXPECT_THROW(learner.observe_chunk(chunk), std::invalid_argument);
  EXPECT_THROW(learner.classify(chunk), std::invalid_argument);
}

TEST(StreamingMgcpl, DecayForgetsMass) {
  const auto chunk = stream_chunk(200, 3);
  core::StreamingConfig config;
  config.decay = 0.5;
  core::StreamingMgcpl learner(chunk.cardinalities(), config);
  learner.observe_chunk(chunk);
  const double mass_after_one = learner.total_mass();
  // Decay applies at consolidation: mass is half the observed objects.
  EXPECT_LE(mass_after_one, 0.55 * 200.0);
}

TEST(StreamingMgcpl, TracksConceptDrift) {
  // Phase 1: clusters dominated by values {0,1,2}; phase 2 shifts the
  // dominant values. With decay, the learner must follow the new regime.
  data::WellSeparatedConfig phase2_config;
  phase2_config.num_objects = 400;
  phase2_config.num_clusters = 2;
  phase2_config.cardinality = 5;
  phase2_config.purity = 0.95;
  phase2_config.seed = 11;
  const auto phase2 = data::well_separated(phase2_config);

  core::StreamingConfig config;
  config.decay = 0.4;
  core::StreamingMgcpl learner(phase2.cardinalities(), config);
  for (std::uint64_t c = 0; c < 3; ++c) {
    learner.observe_chunk(stream_chunk(400, c + 21));  // 3-cluster regime
  }
  for (int c = 0; c < 4; ++c) {
    learner.observe_chunk(phase2);  // 2-cluster regime
  }
  const auto labels = learner.classify(phase2);
  EXPECT_GT(metrics::adjusted_mutual_information(labels, phase2.labels()),
            0.8);
}

TEST(StreamingMgcpl, MaxClustersBudgetHolds) {
  const auto chunk = stream_chunk(300, 5);
  core::StreamingConfig config;
  config.max_clusters = 4;
  config.novelty_threshold = 0.9;  // spawn aggressively
  core::StreamingMgcpl learner(chunk.cardinalities(), config);
  learner.observe_chunk(chunk);
  EXPECT_LE(learner.num_clusters(), 4u);
}

// Regression (ISSUE 3): evicting the weakest cluster at the max_clusters
// budget used to erase() out of the dense cluster vector, shifting every
// later index — labels already returned by observe()/observe_chunk() then
// silently pointed at the wrong cluster. Labels are stable ids now: after
// the budget forces an eviction, earlier-row labels still resolve to the
// same cluster contents, and only the evicted id retires.
TEST(StreamingMgcpl, EvictionKeepsEarlierLabelsStable) {
  // One feature of cardinality 8; rows with disjoint values never overlap,
  // so a high novelty threshold spawns one cluster per distinct value.
  core::StreamingConfig config;
  config.max_clusters = 3;
  config.novelty_threshold = 0.5;
  core::StreamingMgcpl learner({8}, config);

  const data::Value row_a[] = {0};
  const data::Value row_b[] = {1};
  const data::Value row_c[] = {2};
  const data::Value row_d[] = {3};

  const int id_a1 = learner.observe(row_a);
  const int id_a2 = learner.observe(row_a);  // joins A's cluster (mass 2)
  const int id_b = learner.observe(row_b);
  const int id_c = learner.observe(row_c);
  EXPECT_EQ(id_a1, id_a2);
  EXPECT_EQ(learner.num_clusters(), 3u);
  ASSERT_NE(id_b, id_a1);
  ASSERT_NE(id_c, id_b);

  // The budget is full: observing D must evict the weakest cluster (B or C,
  // mass 1; B spawned first and wins the tie).
  const int id_d = learner.observe(row_d);
  EXPECT_EQ(learner.num_clusters(), 3u);
  EXPECT_NE(id_d, id_b);

  // A's and C's labels still resolve to the same cluster contents...
  ASSERT_TRUE(learner.has_cluster(id_a1));
  ASSERT_TRUE(learner.has_cluster(id_c));
  EXPECT_DOUBLE_EQ(learner.cluster_mass(id_a1), 2.0);
  const auto hist_a = learner.cluster_histogram(id_a1, 0);
  EXPECT_DOUBLE_EQ(hist_a[0], 2.0);  // both A rows, value 0
  const auto hist_c = learner.cluster_histogram(id_c, 0);
  EXPECT_DOUBLE_EQ(hist_c[2], 1.0);
  // ...while the evicted id reports as retired instead of aliasing D.
  EXPECT_FALSE(learner.has_cluster(id_b));
  EXPECT_TRUE(learner.cluster_histogram(id_b, 0).empty());
  ASSERT_TRUE(learner.has_cluster(id_d));
  EXPECT_DOUBLE_EQ(learner.cluster_histogram(id_d, 0)[3], 1.0);
}

// Regression (ISSUE 3): classify() on a model with no live clusters used to
// return label 0 for every row — indistinguishable from "assigned to the
// first cluster". It now reports -1 (no cluster to assign to).
TEST(StreamingMgcpl, ClassifyOnEmptyModelReturnsMinusOne) {
  const auto chunk = stream_chunk(50, 1);
  core::StreamingMgcpl learner(chunk.cardinalities());
  EXPECT_EQ(learner.num_clusters(), 0u);
  const auto labels = learner.classify(chunk);
  ASSERT_EQ(labels.size(), chunk.num_objects());
  for (int l : labels) EXPECT_EQ(l, -1);
}

TEST(StreamingMgcpl, ClassifyReturnsLiveStableIds) {
  const auto chunk = stream_chunk(200, 7);
  core::StreamingMgcpl learner(chunk.cardinalities());
  learner.observe_chunk(chunk);
  ASSERT_GT(learner.num_clusters(), 0u);
  const auto labels = learner.classify(chunk);
  const auto& ids = learner.cluster_ids();
  const std::set<int> live(ids.begin(), ids.end());
  for (int l : labels) EXPECT_TRUE(live.count(l) > 0);
}

// --- Both online learners: the max_clusters budget ---------------------------

TEST(OnlineLearners, BudgetBelowTwoIsRejected) {
  for (const std::size_t budget : {0u, 1u}) {
    core::StreamingConfig streaming;
    streaming.max_clusters = budget;
    EXPECT_THROW(core::StreamingMgcpl({6, 6}, streaming),
                 std::invalid_argument);
    core::RgclConfig rgcl;
    rgcl.max_clusters = budget;
    EXPECT_THROW(core::RgclLearner({6, 6}, 1, rgcl), std::invalid_argument);
  }
}

// Rows near 70 prototypes over 8 features of cardinality 6: each cell
// keeps its prototype's value with probability 0.8.
std::vector<data::Value> prototype_stream(std::size_t n, std::uint64_t seed) {
  constexpr std::size_t kFeatures = 8;
  constexpr std::uint64_t kPrototypes = 70;
  constexpr std::uint64_t kCardinality = 6;
  Rng rng(seed);
  const auto value = [&] {
    return static_cast<data::Value>(rng.below(kCardinality));
  };
  std::vector<data::Value> prototypes(kPrototypes * kFeatures);
  for (data::Value& v : prototypes) v = value();
  std::vector<data::Value> rows(n * kFeatures);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t p = rng.below(kPrototypes);
    for (std::size_t r = 0; r < kFeatures; ++r) {
      rows[i * kFeatures + r] =
          rng.bernoulli(0.8) ? prototypes[p * kFeatures + r] : value();
    }
  }
  return rows;
}

// Regression: a budget of 1 used to be accepted, and on this stream both
// learners then exported k = 0 — every novel row evicted the only
// cluster, whose newcomer's mass of 1 fell under the 1.5 prune bar. At the
// smallest budget now accepted, a cluster survives every consolidation.
TEST(OnlineLearners, SmallestBudgetKeepsALiveCluster) {
  const std::vector<int> cards(8, 6);
  const std::vector<data::Value> rows = prototype_stream(2000, 5);
  for (const double novelty : {0.2, 0.3, 0.4, 0.5}) {
    SCOPED_TRACE(testing::Message() << "novelty " << novelty);
    core::StreamingConfig streaming;
    streaming.max_clusters = 2;
    streaming.decay = 0.85;
    streaming.novelty_threshold = novelty;
    core::StreamingMgcpl mgcpl(cards, streaming);
    core::RgclConfig rgcl_config;
    rgcl_config.max_clusters = 2;
    rgcl_config.decay = 0.85;
    rgcl_config.novelty_threshold = novelty;
    core::RgclLearner rgcl(cards, 1, rgcl_config);
    const std::vector<core::OnlineLearner*> learners = {&mgcpl, &rgcl};
    for (core::OnlineLearner* learner : learners) {
      for (std::size_t i = 0; i < 2000; ++i) {
        learner->observe(&rows[i * cards.size()]);
        if ((i + 1) % 200 == 0) learner->end_chunk();
      }
      EXPECT_GE(learner->to_model().k(), 1) << learner->to_model().method();
    }
  }
}

// --- DistributedMcdc ---------------------------------------------------------------

TEST(DistributedMcdc, MatchesCentralizedOnSeparableData) {
  data::WellSeparatedConfig config;
  config.num_objects = 1200;
  config.num_clusters = 4;
  config.cardinality = 5;
  config.purity = 0.93;
  const auto ds = data::well_separated(config);

  dist::DistributedConfig dc;
  dc.num_workers = 4;
  const auto result = dist::DistributedMcdc(dc).cluster(ds, 4, 1);
  EXPECT_EQ(result.labels.size(), ds.num_objects());
  EXPECT_EQ(result.global_clusters, 4);
  EXPECT_GT(metrics::adjusted_rand_index(result.labels, ds.labels()), 0.9);
}

TEST(DistributedMcdc, SketchTrafficIsFarBelowRawTraffic) {
  const auto nd = data::nested({});
  dist::DistributedConfig dc;
  dc.num_workers = 4;
  const auto result = dist::DistributedMcdc(dc).cluster(nd.dataset, 3, 1);
  EXPECT_LT(result.sketch_cells, result.raw_cells / 2);
  EXPECT_GT(result.sketch_cells, 0u);
}

TEST(DistributedMcdc, ParallelTimeBeatsSequentialModel) {
  data::WellSeparatedConfig config;
  config.num_objects = 2000;
  const auto ds = data::well_separated(config);
  dist::DistributedConfig dc;
  dc.num_workers = 8;
  const auto result = dist::DistributedMcdc(dc).cluster(ds, 3, 1);
  EXPECT_LT(result.parallel_time, result.sequential_time);
}

TEST(DistributedMcdc, EveryWorkerContributesLocalClusters) {
  const auto ds = stream_chunk(600, 2);
  dist::DistributedConfig dc;
  dc.num_workers = 3;
  const auto result = dist::DistributedMcdc(dc).cluster(ds, 3, 5);
  ASSERT_EQ(result.local_clusters.size(), 3u);
  for (int k : result.local_clusters) EXPECT_GE(k, 1);
}

TEST(DistributedMcdc, SingleWorkerDegeneratesGracefully) {
  const auto ds = stream_chunk(300, 9);
  dist::DistributedConfig dc;
  dc.num_workers = 1;
  const auto result = dist::DistributedMcdc(dc).cluster(ds, 3, 1);
  EXPECT_GT(metrics::adjusted_rand_index(result.labels, ds.labels()), 0.8);
}

TEST(DistributedMcdc, Validation) {
  dist::DistributedMcdc dmcdc;
  EXPECT_THROW(dmcdc.cluster(data::Dataset(), 2, 1), std::invalid_argument);
  const auto ds = stream_chunk(50, 1);
  EXPECT_THROW(dmcdc.cluster(ds, 0, 1), std::invalid_argument);
}

// --- Linkage baselines ---------------------------------------------------------------

TEST(Linkage, NamesFollowKind) {
  EXPECT_EQ(baselines::Linkage({baselines::LinkageKind::single, 100}).name(),
            "SINGLE-LINK");
  EXPECT_EQ(baselines::Linkage({baselines::LinkageKind::complete, 100}).name(),
            "COMPLETE-LINK");
  EXPECT_EQ(baselines::Linkage().name(), "AVERAGE-LINK");
}

TEST(Linkage, AllKindsRecoverSeparableClusters) {
  data::WellSeparatedConfig config;
  config.num_objects = 240;
  config.num_clusters = 3;
  config.purity = 0.95;
  const auto ds = data::well_separated(config);
  for (auto kind : {baselines::LinkageKind::single,
                    baselines::LinkageKind::complete,
                    baselines::LinkageKind::average}) {
    SCOPED_TRACE(static_cast<int>(kind));
    baselines::LinkageConfig lc;
    lc.kind = kind;
    const auto result = baselines::Linkage(lc).cluster(ds, 3, 1);
    EXPECT_FALSE(result.failed);
    EXPECT_GT(metrics::adjusted_rand_index(result.labels, ds.labels()), 0.8);
  }
}

TEST(Linkage, ExactMergeOrderOnTinyInstance) {
  // Objects: two identical pairs plus one outlier; the first two merges
  // must join the identical pairs regardless of linkage kind.
  const data::Dataset ds(5, 3,
                         {0, 0, 0,   //
                          0, 0, 0,   //
                          1, 1, 1,   //
                          1, 1, 1,   //
                          2, 2, 0},
                         {3, 3, 2});
  for (auto kind : {baselines::LinkageKind::single,
                    baselines::LinkageKind::complete,
                    baselines::LinkageKind::average}) {
    baselines::LinkageConfig lc;
    lc.kind = kind;
    const auto result = baselines::Linkage(lc).cluster(ds, 3, 1);
    EXPECT_EQ(result.labels[0], result.labels[1]);
    EXPECT_EQ(result.labels[2], result.labels[3]);
    EXPECT_NE(result.labels[0], result.labels[2]);
    EXPECT_NE(result.labels[4], result.labels[0]);
    EXPECT_NE(result.labels[4], result.labels[2]);
  }
}

TEST(Linkage, SamplingPathLabelsEverything) {
  data::WellSeparatedConfig config;
  config.num_objects = 900;
  config.purity = 0.95;
  const auto ds = data::well_separated(config);
  baselines::LinkageConfig lc;
  lc.max_sample = 150;
  const auto result = baselines::Linkage(lc).cluster(ds, 3, 3);
  for (int l : result.labels) EXPECT_GE(l, 0);
  EXPECT_GT(metrics::adjusted_rand_index(result.labels, ds.labels()), 0.7);
}

TEST(Linkage, Validation) {
  EXPECT_THROW(baselines::Linkage().cluster(data::Dataset(), 2, 1),
               std::invalid_argument);
  const auto ds = stream_chunk(20, 1);
  EXPECT_THROW(baselines::Linkage().cluster(ds, 0, 1), std::invalid_argument);
}

}  // namespace
}  // namespace mcdc

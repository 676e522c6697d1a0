// Integration tests: the full method roster on benchmark-style data — a
// miniature of the paper's evaluation loop — plus cross-module pipelines
// (encoding boost, distributed pre-partitioning on real generated data).
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "baselines/adc.h"
#include "baselines/fkmawcw.h"
#include "baselines/gudmm.h"
#include "baselines/kmodes.h"
#include "baselines/rock.h"
#include "baselines/wocil.h"
#include "core/mcdc.h"
#include "data/registry.h"
#include "data/synthetic.h"
#include "dist/prepartition.h"
#include "dist/sim_cluster.h"
#include "metrics/indices.h"
#include "stats/summary.h"
#include "stats/wilcoxon.h"

namespace mcdc {
namespace {

using baselines::ClusterResult;
using baselines::Clusterer;

std::vector<std::shared_ptr<Clusterer>> roster() {
  std::vector<std::shared_ptr<Clusterer>> methods;
  methods.push_back(std::make_shared<baselines::KModes>());
  methods.push_back(std::make_shared<baselines::Wocil>());
  methods.push_back(std::make_shared<baselines::Fkmawcw>());
  methods.push_back(std::make_shared<baselines::Gudmm>());
  methods.push_back(std::make_shared<baselines::Adc>());
  methods.push_back(std::make_shared<core::McdcClusterer>());
  methods.push_back(std::make_shared<core::BoostedClusterer>(
      std::make_shared<baselines::Fkmawcw>(), "MCDC+F."));
  return methods;
}

TEST(Integration, FullRosterRunsOnSmallBenchmarks) {
  // Vote and Balance: one simulated, one exact dataset; every method must
  // produce a valid labeling (or an honest failure flag).
  for (const std::string abbrev : {"Vot.", "Bal."}) {
    const auto ds = data::load(abbrev);
    const int k = ds.num_classes();
    for (const auto& method : roster()) {
      SCOPED_TRACE(abbrev + " / " + method->name());
      const ClusterResult result = method->cluster(ds, k, 1);
      ASSERT_EQ(result.labels.size(), ds.num_objects());
      for (int l : result.labels) EXPECT_GE(l, 0);
      if (!result.failed) {
        EXPECT_EQ(result.clusters_found, k);
        const auto scores = metrics::score_all(result.labels, ds.labels());
        EXPECT_GE(scores.acc, 0.0);
        EXPECT_LE(scores.acc, 1.0);
      }
    }
  }
}

TEST(Integration, McdcIsStrongOnVote) {
  // Table III: MCDC is among the top performers on Vote (paper: 0.905 ACC).
  const auto ds = data::load("Vot.");
  core::McdcClusterer mcdc;
  stats::RunningStats acc;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    acc.add(metrics::accuracy(mcdc.cluster(ds, 2, seed).labels, ds.labels()));
  }
  EXPECT_GT(acc.mean(), 0.85);
}

TEST(Integration, GammaEncodingBoostsFkmawcw) {
  // The paper's boost claim (MCDC+F. vs FKMAWCW): running the fuzzy
  // clusterer on the Gamma embedding improves its accuracy on Vote.
  const auto ds = data::load("Vot.");
  auto inner = std::make_shared<baselines::Fkmawcw>();
  core::BoostedClusterer boosted(inner, "MCDC+F.");
  stats::RunningStats plain;
  stats::RunningStats with_boost;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    plain.add(metrics::accuracy(inner->cluster(ds, 2, seed).labels,
                                ds.labels()));
    with_boost.add(metrics::accuracy(boosted.cluster(ds, 2, seed).labels,
                                     ds.labels()));
  }
  EXPECT_GT(with_boost.mean(), plain.mean());
}

TEST(Integration, McdcStabilityAcrossSeeds) {
  // Table III shows MCDC with +/-0.00 deviations: the deterministic CAME
  // seeding makes runs nearly seed-independent. Verify low spread on Vote.
  const auto ds = data::load("Vot.");
  core::McdcClusterer mcdc;
  stats::RunningStats acc;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    acc.add(metrics::accuracy(mcdc.cluster(ds, 2, seed).labels, ds.labels()));
  }
  EXPECT_LT(acc.stddev(), 0.05);
}

TEST(Integration, WilcoxonPipelineOnPairedScores) {
  // Recreate the Table IV mechanics: paired per-dataset scores, two-tailed
  // test at alpha = 0.1. A method dominated on every dataset must reject.
  const std::vector<double> strong = {0.9, 0.8, 0.85, 0.7, 0.95, 0.6, 0.75, 0.88};
  const std::vector<double> weak = {0.5, 0.4, 0.45, 0.3, 0.55, 0.2, 0.35, 0.48};
  EXPECT_LT(stats::wilcoxon_signed_rank(strong, weak).p_value, 0.1);
  EXPECT_GE(stats::wilcoxon_signed_rank(strong, strong).p_value, 0.1);
}

TEST(Integration, PrepartitionFeedsSimClusterEndToEnd) {
  // Sec. III-D deployment: MGCPL analysis -> micro-cluster shards ->
  // heterogeneous simulated cluster. Locality-preserving shards must incur
  // zero cross-shard communication at the micro level and keep nodes busy.
  const auto nd = data::nested({});
  const auto analysis = core::Mgcpl().run(nd.dataset, 1);
  dist::PrepartitionConfig pc;
  pc.num_shards = 4;
  const auto shards = dist::MicroClusterPartitioner(pc).partition(analysis);
  EXPECT_EQ(
      dist::communication_volume(shards.shard, analysis.partitions.front()),
      0u);

  dist::SimCluster cluster(
      {{"a", 1.0}, {"b", 1.0}, {"c", 2.0}, {"d", 0.5}});
  const auto schedule = cluster.schedule(shards.shard_sizes);
  EXPECT_GT(schedule.makespan, 0.0);
  EXPECT_GT(schedule.utilization, 0.5);
}

TEST(Integration, RegistryDatasetsAreStableAcrossCalls) {
  // load() must be pure: two calls yield identical encodings (experiments
  // depend on it for reproducibility).
  for (const auto& info : data::benchmark_roster()) {
    if (info.n > 2000) continue;  // keep the test fast
    const auto a = data::load(info.abbrev);
    const auto b = data::load(info.abbrev);
    ASSERT_EQ(a.num_objects(), b.num_objects());
    bool identical = true;
    for (std::size_t i = 0; i < a.num_objects() && identical; ++i) {
      for (std::size_t r = 0; r < a.num_features(); ++r) {
        if (a.at(i, r) != b.at(i, r)) {
          identical = false;
          break;
        }
      }
    }
    EXPECT_TRUE(identical) << info.abbrev;
    EXPECT_EQ(a.labels(), b.labels()) << info.abbrev;
  }
}

TEST(Integration, Fig5StyleTrajectoryEndsNearTrueK) {
  // The Fig. 5 claim on the best-behaved real datasets: final k_sigma lands
  // on (or immediately next to) k*.
  for (const std::string abbrev : {"Vot.", "Con."}) {
    const auto ds = data::load(abbrev);
    const auto result = core::Mgcpl().run(ds, 1);
    SCOPED_TRACE(abbrev);
    EXPECT_LE(std::abs(result.final_k() - ds.num_classes()), 1);
  }
}

}  // namespace
}  // namespace mcdc

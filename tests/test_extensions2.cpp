// Tests for the analysis extensions built on MGCPL: dendrogram export,
// k estimation, anomaly scoring, noise injection and the extension
// datasets.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "common/rng.h"
#include "core/anomaly.h"
#include "core/dendrogram.h"
#include "core/kestimate.h"
#include "core/mgcpl.h"
#include "data/noise.h"
#include "data/synthetic.h"
#include "data/uci_extra.h"
#include "metrics/indices.h"

namespace mcdc {
namespace {

// A hand-built MGCPL result with known nesting: 4 fine clusters merging
// pairwise into 2 coarse ones; object 7 defects to the other coarse
// cluster (imperfect containment).
core::MgcplResult toy_mgcpl() {
  core::MgcplResult result;
  result.k0 = 6;
  result.kappa = {4, 2};
  result.partitions = {
      {0, 0, 1, 1, 2, 2, 3, 3},
      {0, 0, 0, 0, 1, 1, 1, 0},
  };
  return result;
}

// --- Dendrogram ------------------------------------------------------------------

// Id of the node at (stage, cluster); -1 when the tree has none.
int node_id(const core::Dendrogram& tree, int stage, int cluster) {
  for (const auto& node : tree.nodes()) {
    if (node.stage == stage && node.cluster == cluster) return node.id;
  }
  return -1;
}

TEST(Dendrogram, StructureOfToyNesting) {
  const auto tree = core::build_dendrogram(toy_mgcpl());
  EXPECT_EQ(tree.sigma(), 2);
  ASSERT_EQ(tree.roots().size(), 2u);
  // 4 fine + 2 coarse nodes.
  EXPECT_EQ(tree.nodes().size(), 6u);
  // Fine clusters 0, 1 attach to coarse 0; 2 to coarse 1; 3 (3 of its 2
  // members... objects 6, 7 -> coarse {1, 0}) splits evenly — majority is
  // implementation-tie-broken to the first maximum (coarse 0).
  ASSERT_GE(node_id(tree, 0, 0), 0);
  ASSERT_GE(node_id(tree, 0, 3), 0);
  const auto& n0 = tree.nodes()[static_cast<std::size_t>(node_id(tree, 0, 0))];
  EXPECT_EQ(n0.parent, node_id(tree, 1, 0));
  EXPECT_DOUBLE_EQ(n0.containment, 1.0);
  const auto& n3 = tree.nodes()[static_cast<std::size_t>(node_id(tree, 0, 3))];
  EXPECT_DOUBLE_EQ(n3.containment, 0.5);
  EXPECT_EQ(n3.size, 2u);
}

TEST(Dendrogram, NestingConsistency) {
  const auto tree = core::build_dendrogram(toy_mgcpl());
  // Coarsest stage is perfectly contained by definition.
  EXPECT_DOUBLE_EQ(tree.nesting_consistency(1), 1.0);
  // Finest: clusters 0-2 perfect (6 objects), cluster 3 half (2 objects)
  // -> weighted (6*1 + 2*0.5)/8 = 0.875.
  EXPECT_DOUBLE_EQ(tree.nesting_consistency(0), 0.875);
}

TEST(Dendrogram, NewickContainsEveryNodeOnce) {
  const auto tree = core::build_dendrogram(toy_mgcpl());
  const std::string newick = tree.to_newick();
  for (const auto& node : tree.nodes()) {
    const std::string name =
        "s" + std::to_string(node.stage) + "c" + std::to_string(node.cluster) + "[";
    std::size_t count = 0;
    for (std::size_t pos = newick.find(name); pos != std::string::npos;
         pos = newick.find(name, pos + 1)) {
      ++count;
    }
    EXPECT_EQ(count, 1u) << name;
  }
  // One ';' terminated tree per root.
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(newick.begin(), newick.end(), ';')),
            tree.roots().size());
}

TEST(Dendrogram, RealAnalysisRoundTrip) {
  const auto nd = data::nested({});
  const auto mgcpl = core::Mgcpl().run(nd.dataset, 1);
  const auto tree = core::build_dendrogram(mgcpl);
  EXPECT_EQ(tree.sigma(), mgcpl.sigma());
  // Every non-root node's parent lives one stage coarser.
  for (const auto& node : tree.nodes()) {
    if (node.parent < 0) {
      EXPECT_EQ(node.stage, tree.sigma() - 1);
      continue;
    }
    EXPECT_EQ(tree.nodes()[static_cast<std::size_t>(node.parent)].stage,
              node.stage + 1);
    EXPECT_GE(node.containment, 0.0);
    EXPECT_LE(node.containment, 1.0);
  }
  // Sizes at each stage sum to n.
  for (int j = 0; j < tree.sigma(); ++j) {
    std::size_t total = 0;
    for (const auto& node : tree.nodes()) {
      if (node.stage == j) total += node.size;
    }
    EXPECT_EQ(total, nd.dataset.num_objects());
  }
  EXPECT_THROW(core::build_dendrogram(core::MgcplResult{}),
               std::invalid_argument);
}

// --- K estimation ------------------------------------------------------------------

TEST(KEstimate, RecoversPlantedKOnSeparatedData) {
  data::WellSeparatedConfig config;
  config.num_objects = 600;
  config.num_clusters = 3;
  config.purity = 0.9;
  const auto ds = data::well_separated(config);
  const auto estimate = core::estimate_k(ds, 5);
  EXPECT_EQ(estimate.recommended_k, 3);
  EXPECT_EQ(estimate.candidates.size(),
            static_cast<std::size_t>(core::Mgcpl().run(ds, 5).sigma()));
}

TEST(KEstimate, PreferCoarsestReproducesPaperRule) {
  const auto nd = data::nested({});
  const auto mgcpl = core::Mgcpl().run(nd.dataset, 1);
  core::KEstimateConfig config;
  config.prefer_coarsest = true;
  const auto estimate = core::estimate_k(nd.dataset, mgcpl, config);
  EXPECT_EQ(estimate.recommended_k, mgcpl.final_k());
  EXPECT_EQ(estimate.recommended_stage, mgcpl.sigma() - 1);
}

TEST(KEstimate, CandidatesCarryBoundedScores) {
  const auto nd = data::nested({});
  const auto estimate = core::estimate_k(nd.dataset, 2);
  for (const auto& cand : estimate.candidates) {
    EXPECT_GE(cand.persistence, 0.0);
    EXPECT_LE(cand.persistence, 1.0);
    EXPECT_GE(cand.silhouette, -1.0);
    EXPECT_LE(cand.silhouette, 1.0);
    EXPECT_GT(cand.k, 0);
  }
  EXPECT_THROW(core::estimate_k(nd.dataset, core::MgcplResult{}),
               std::invalid_argument);
}

// --- Anomaly scoring ----------------------------------------------------------------

data::Dataset with_planted_outliers(std::size_t* first_outlier) {
  data::WellSeparatedConfig config;
  config.num_objects = 400;
  config.num_clusters = 3;
  config.purity = 0.95;
  config.cardinality = 6;
  config.seed = 11;
  auto ds = data::well_separated(config);
  // Append 4 rows of uniform garbage: structurally isolated objects.
  const std::size_t n = ds.num_objects();
  const std::size_t d = ds.num_features();
  std::vector<data::Value> cells;
  cells.reserve((n + 4) * d);
  for (std::size_t i = 0; i < n; ++i) {
    const std::vector<data::Value> row = ds.row_copy(i);
    cells.insert(cells.end(), row.begin(), row.end());
  }
  Rng rng(99);
  for (int o = 0; o < 4; ++o) {
    for (std::size_t r = 0; r < d; ++r) {
      cells.push_back(static_cast<data::Value>(
          rng.below(static_cast<std::uint64_t>(ds.cardinality(r)))));
    }
  }
  auto labels = ds.labels();
  labels.insert(labels.end(), 4, 0);
  *first_outlier = n;
  return data::Dataset(n + 4, d, std::move(cells), ds.cardinalities(),
                       std::move(labels));
}

TEST(Anomaly, PlantedOutliersRankHigh) {
  std::size_t first_outlier = 0;
  const auto ds = with_planted_outliers(&first_outlier);
  const auto mgcpl = core::Mgcpl().run(ds, 3);
  const auto result = core::score_anomalies(ds, mgcpl);
  // All four planted outliers inside the top 5% of the ranking.
  const auto top = result.top_fraction(0.05);
  const std::set<std::size_t> top_set(top.begin(), top.end());
  int found = 0;
  for (std::size_t o = first_outlier; o < first_outlier + 4; ++o) {
    found += top_set.count(o) > 0 ? 1 : 0;
  }
  EXPECT_GE(found, 3);
}

TEST(Anomaly, ScoresBoundedAndRankingSorted) {
  const auto nd = data::nested({});
  const auto mgcpl = core::Mgcpl().run(nd.dataset, 1);
  const auto result = core::score_anomalies(nd.dataset, mgcpl);
  ASSERT_EQ(result.scores.size(), nd.dataset.num_objects());
  for (double s : result.scores) {
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
  for (std::size_t i = 1; i < result.ranking.size(); ++i) {
    EXPECT_GE(result.scores[result.ranking[i - 1]],
              result.scores[result.ranking[i]]);
  }
  EXPECT_TRUE(result.top_fraction(0.0).empty());
  EXPECT_EQ(result.top_fraction(1.0).size(), nd.dataset.num_objects());
}

TEST(Anomaly, StageSelectionAndValidation) {
  const auto nd = data::nested({});
  const auto mgcpl = core::Mgcpl().run(nd.dataset, 1);
  core::AnomalyConfig config;
  config.stage = -1;  // coarsest
  const auto coarse = core::score_anomalies(nd.dataset, mgcpl, config);
  EXPECT_EQ(coarse.scores.size(), nd.dataset.num_objects());
  config.stage = mgcpl.sigma();  // out of range
  EXPECT_THROW(core::score_anomalies(nd.dataset, mgcpl, config),
               std::invalid_argument);
  config.stage = 0;
  config.rarity_weight = 1.5;
  EXPECT_THROW(core::score_anomalies(nd.dataset, mgcpl, config),
               std::invalid_argument);
}

// --- Noise injection ------------------------------------------------------------------

TEST(Noise, ValueNoiseRateMatches) {
  data::WellSeparatedConfig config;
  config.num_objects = 2000;
  config.cardinality = 8;
  const auto ds = data::well_separated(config);
  const auto noisy = data::with_value_noise(ds, 0.25, 3);
  std::size_t changed = 0;
  std::size_t total = 0;
  for (std::size_t i = 0; i < ds.num_objects(); ++i) {
    for (std::size_t r = 0; r < ds.num_features(); ++r) {
      ++total;
      if (noisy.at(i, r) != ds.at(i, r)) ++changed;
    }
  }
  // Effective flip rate p * (m-1)/m = 0.25 * 7/8 ~ 0.219.
  const double rate = static_cast<double>(changed) / static_cast<double>(total);
  EXPECT_NEAR(rate, 0.25 * 7.0 / 8.0, 0.02);
  EXPECT_EQ(noisy.labels(), ds.labels());
}

TEST(Noise, MissingInjectionRateMatches) {
  data::WellSeparatedConfig config;
  config.num_objects = 2000;
  const auto ds = data::well_separated(config);
  const auto holey = data::with_missing_cells(ds, 0.15, 5);
  std::size_t missing = 0;
  for (std::size_t i = 0; i < holey.num_objects(); ++i) {
    for (std::size_t r = 0; r < holey.num_features(); ++r) {
      if (holey.is_missing(i, r)) ++missing;
    }
  }
  const double rate =
      static_cast<double>(missing) /
      static_cast<double>(holey.num_objects() * holey.num_features());
  EXPECT_NEAR(rate, 0.15, 0.02);
}

TEST(Noise, DistractorFeaturesAppended) {
  data::WellSeparatedConfig config;
  config.num_objects = 100;
  config.num_features = 6;
  const auto ds = data::well_separated(config);
  const auto wide = data::with_distractor_features(ds, 4, 5, 9);
  EXPECT_EQ(wide.num_features(), 10u);
  EXPECT_EQ(wide.cardinality(9), 5);
  // Original cells untouched.
  for (std::size_t i = 0; i < ds.num_objects(); ++i) {
    for (std::size_t r = 0; r < 6; ++r) {
      EXPECT_EQ(wide.at(i, r), ds.at(i, r));
    }
  }
}

TEST(Noise, DeterministicAndValidated) {
  data::WellSeparatedConfig config;
  config.num_objects = 50;
  const auto ds = data::well_separated(config);
  const auto a = data::with_value_noise(ds, 0.3, 7);
  const auto b = data::with_value_noise(ds, 0.3, 7);
  for (std::size_t i = 0; i < ds.num_objects(); ++i) {
    for (std::size_t r = 0; r < ds.num_features(); ++r) {
      EXPECT_EQ(a.at(i, r), b.at(i, r));
    }
  }
  EXPECT_THROW(data::with_value_noise(ds, -0.1, 1), std::invalid_argument);
  EXPECT_THROW(data::with_missing_cells(ds, 1.1, 1), std::invalid_argument);
  EXPECT_THROW(data::with_distractor_features(ds, 2, 0, 1),
               std::invalid_argument);
}

// --- Extension datasets ---------------------------------------------------------------

TEST(UciExtra, RosterShapesMatchPublishedStatistics) {
  for (const auto& info : data::extra_roster()) {
    const auto ds = data::load_extra(info.abbrev);
    EXPECT_EQ(ds.num_objects(), info.n) << info.name;
    EXPECT_EQ(ds.num_features(), info.d) << info.name;
    EXPECT_EQ(ds.num_classes(), info.k_star) << info.name;
    EXPECT_TRUE(ds.has_labels());
  }
  EXPECT_THROW(data::load_extra("Nope."), std::invalid_argument);
}

TEST(UciExtra, ZooClassSizesExact) {
  const auto ds = data::zoo();
  std::vector<int> sizes(7, 0);
  for (int l : ds.labels()) ++sizes[static_cast<std::size_t>(l)];
  EXPECT_EQ(sizes, (std::vector<int>{41, 20, 5, 13, 4, 8, 10}));
}

TEST(UciExtra, LymphographyHasRareClasses) {
  const auto ds = data::lymphography();
  std::vector<int> sizes(4, 0);
  for (int l : ds.labels()) ++sizes[static_cast<std::size_t>(l)];
  std::sort(sizes.begin(), sizes.end());
  EXPECT_EQ(sizes[0], 2);
  EXPECT_EQ(sizes[1], 4);
}

TEST(UciExtra, DeterministicGivenSeed) {
  const auto a = data::soybean_small(3);
  const auto b = data::soybean_small(3);
  ASSERT_EQ(a.num_objects(), b.num_objects());
  for (std::size_t i = 0; i < a.num_objects(); ++i) {
    for (std::size_t r = 0; r < a.num_features(); ++r) {
      ASSERT_EQ(a.at(i, r), b.at(i, r));
    }
  }
}

TEST(UciExtra, SoybeanSignaturesAreRecoverable) {
  // The real soybean-small clusters near-perfectly; the regeneration should
  // keep classes well separated under MGCPL's own similarity.
  const auto ds = data::soybean_small();
  const auto mgcpl = core::Mgcpl().run(ds, 1);
  const double ari = metrics::adjusted_rand_index(
      mgcpl.final_partition(), ds.labels());
  EXPECT_GT(ari, 0.55);
}

}  // namespace
}  // namespace mcdc

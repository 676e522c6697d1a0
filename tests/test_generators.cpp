// Tests for the benchmark dataset generators — including the exactness
// guarantees of the rule-regenerated UCI datasets (DESIGN.md §4).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "data/registry.h"
#include "data/synthetic.h"
#include "data/uci_like.h"

namespace mcdc::data {
namespace {

std::map<int, int> class_histogram(const Dataset& ds) {
  std::map<int, int> hist;
  for (int y : ds.labels()) ++hist[y];
  return hist;
}

int count_label(const Dataset& ds, const std::string& name) {
  for (std::size_t c = 0; c < ds.label_names().size(); ++c) {
    if (ds.label_names()[c] == name) {
      int count = 0;
      for (int y : ds.labels()) {
        if (y == static_cast<int>(c)) ++count;
      }
      return count;
    }
  }
  return 0;
}

// --- Balance: exact UCI regeneration ---------------------------------------

TEST(Balance, ExactShapeAndClassCounts) {
  const Dataset ds = balance();
  EXPECT_EQ(ds.num_objects(), 625u);
  EXPECT_EQ(ds.num_features(), 4u);
  EXPECT_EQ(ds.num_classes(), 3);
  // The rule system yields exactly 288 L, 49 B, 288 R.
  EXPECT_EQ(count_label(ds, "L"), 288);
  EXPECT_EQ(count_label(ds, "B"), 49);
  EXPECT_EQ(count_label(ds, "R"), 288);
}

TEST(Balance, EveryFeatureHasFiveValues) {
  const Dataset ds = balance();
  for (std::size_t r = 0; r < 4; ++r) {
    EXPECT_EQ(ds.cardinality(r), 5);
  }
  EXPECT_FALSE(ds.has_missing());
}

TEST(Balance, LabelsFollowTorqueRule) {
  const Dataset ds = balance();
  for (std::size_t i = 0; i < ds.num_objects(); ++i) {
    // Value codes are 0..4 for forces 1..5 (first-seen order of the loops).
    const int lw = ds.at(i, 0) + 1;
    const int ld = ds.at(i, 1) + 1;
    const int rw = ds.at(i, 2) + 1;
    const int rd = ds.at(i, 3) + 1;
    const std::string expected =
        lw * ld > rw * rd ? "L" : (lw * ld < rw * rd ? "R" : "B");
    EXPECT_EQ(ds.label_names()[static_cast<std::size_t>(ds.labels()[i])], expected);
  }
}

// --- Tic-Tac-Toe: exact UCI regeneration ------------------------------------

TEST(TicTacToe, ExactShapeAndClassCounts) {
  const Dataset ds = tic_tac_toe();
  EXPECT_EQ(ds.num_objects(), 958u);
  EXPECT_EQ(ds.num_features(), 9u);
  EXPECT_EQ(ds.num_classes(), 2);
  // Known composition: 626 X-wins (positive), 332 negative.
  EXPECT_EQ(count_label(ds, "positive"), 626);
  EXPECT_EQ(count_label(ds, "negative"), 332);
}

TEST(TicTacToe, BoardsAreDistinct) {
  const Dataset ds = tic_tac_toe();
  std::set<std::vector<Value>> boards;
  for (std::size_t i = 0; i < ds.num_objects(); ++i) {
    boards.insert(ds.row_copy(i));
  }
  EXPECT_EQ(boards.size(), 958u);
}

TEST(TicTacToe, PieceCountsLegal) {
  const Dataset ds = tic_tac_toe();
  for (std::size_t i = 0; i < ds.num_objects(); ++i) {
    int nx = 0;
    int no = 0;
    for (std::size_t r = 0; r < 9; ++r) {
      const std::string v = ds.value_name(r, ds.at(i, r));
      if (v == "x") ++nx;
      if (v == "o") ++no;
    }
    // X moved first: x count is o count or o count + 1.
    EXPECT_TRUE(nx == no || nx == no + 1) << "row " << i;
  }
}

// --- Car: exact grid, reconstructed DEX rules -------------------------------

TEST(Car, GridShape) {
  const Dataset ds = car();
  EXPECT_EQ(ds.num_objects(), 1728u);
  EXPECT_EQ(ds.num_features(), 6u);
  EXPECT_EQ(ds.num_classes(), 4);
  // 4*4*4*3*3*3 distinct rows.
  std::set<std::vector<Value>> rows;
  for (std::size_t i = 0; i < ds.num_objects(); ++i) {
    rows.insert(ds.row_copy(i));
  }
  EXPECT_EQ(rows.size(), 1728u);
}

TEST(Car, HardConstraintsOfTheDexModel) {
  const Dataset ds = car();
  for (std::size_t i = 0; i < ds.num_objects(); ++i) {
    const std::string persons = ds.value_name(3, ds.at(i, 3));
    const std::string safety = ds.value_name(5, ds.at(i, 5));
    const std::string label =
        ds.label_names()[static_cast<std::size_t>(ds.labels()[i])];
    if (persons == "2" || safety == "low") {
      EXPECT_EQ(label, "unacc");
    }
    if (label == "vgood") {
      EXPECT_EQ(safety, "high");
    }
  }
}

TEST(Car, ClassDistributionShape) {
  const Dataset ds = car();
  const int unacc = count_label(ds, "unacc");
  const int acc = count_label(ds, "acc");
  const int good = count_label(ds, "good");
  const int vgood = count_label(ds, "vgood");
  EXPECT_EQ(unacc + acc + good + vgood, 1728);
  // UCI: ~70% unacc, acc next, good/vgood rare. Wide bands: the rule tables
  // are a reconstruction, not the original DEX file.
  EXPECT_GT(unacc, 1000);
  EXPECT_GT(acc, good);
  EXPECT_GT(acc, vgood);
  EXPECT_GT(good, 0);
  EXPECT_GT(vgood, 0);
}

// --- Nursery: exact grid, reconstructed DEX rules ---------------------------

TEST(Nursery, GridShape) {
  const Dataset ds = nursery();
  EXPECT_EQ(ds.num_objects(), 12960u);
  EXPECT_EQ(ds.num_features(), 8u);
  EXPECT_EQ(ds.num_classes(), 5);
}

TEST(Nursery, HealthNotRecomRule) {
  const Dataset ds = nursery();
  int not_recom = 0;
  for (std::size_t i = 0; i < ds.num_objects(); ++i) {
    const std::string health = ds.value_name(7, ds.at(i, 7));
    const std::string label =
        ds.label_names()[static_cast<std::size_t>(ds.labels()[i])];
    if (health == "not_recom") {
      EXPECT_EQ(label, "not_recom");
      ++not_recom;
    } else {
      EXPECT_NE(label, "not_recom");
    }
  }
  EXPECT_EQ(not_recom, 4320);  // exactly one third of the grid
}

TEST(Nursery, RecommendIsRare) {
  const Dataset ds = nursery();
  const int recommend = count_label(ds, "recommend");
  EXPECT_GT(recommend, 0);
  EXPECT_LE(recommend, 10);  // UCI has exactly 2
  // priority and spec_prior are the two large non-trivial classes
  // (UCI: 4266 and 4044); very_recom is small (UCI: 328).
  EXPECT_GT(count_label(ds, "priority"), 2000);
  EXPECT_GT(count_label(ds, "spec_prior"), 2000);
  EXPECT_GT(count_label(ds, "very_recom"), 100);
  EXPECT_LT(count_label(ds, "very_recom"), 700);
}

// --- Congressional / Vote ----------------------------------------------------

TEST(Congressional, ShapeAndParties) {
  const Dataset ds = congressional();
  EXPECT_EQ(ds.num_objects(), 435u);
  EXPECT_EQ(ds.num_features(), 16u);
  EXPECT_EQ(ds.num_classes(), 2);
  EXPECT_EQ(count_label(ds, "democrat"), 267);
  EXPECT_EQ(count_label(ds, "republican"), 168);
  EXPECT_TRUE(ds.has_missing());
}

TEST(Vote, ExactlyTheCompleteCases) {
  const Dataset ds = vote();
  EXPECT_EQ(ds.num_objects(), 232u);  // the paper's Table II row
  EXPECT_FALSE(ds.has_missing());
  EXPECT_EQ(ds.num_features(), 16u);
}

TEST(Congressional, DeterministicPerSeed) {
  const Dataset a = congressional(7);
  const Dataset b = congressional(7);
  const Dataset c = congressional(8);
  ASSERT_EQ(a.num_objects(), b.num_objects());
  bool all_equal_ab = true;
  bool all_equal_ac = true;
  for (std::size_t i = 0; i < a.num_objects(); ++i) {
    for (std::size_t r = 0; r < a.num_features(); ++r) {
      if (a.at(i, r) != b.at(i, r)) all_equal_ab = false;
      if (a.at(i, r) != c.at(i, r)) all_equal_ac = false;
    }
  }
  EXPECT_TRUE(all_equal_ab);
  EXPECT_FALSE(all_equal_ac);
}

// --- Chess -------------------------------------------------------------------

TEST(Chess, ShapeAndBalance) {
  const Dataset ds = chess();
  EXPECT_EQ(ds.num_objects(), 3196u);
  EXPECT_EQ(ds.num_features(), 36u);
  EXPECT_EQ(ds.num_classes(), 2);
  EXPECT_EQ(count_label(ds, "won"), 1669);
  EXPECT_EQ(count_label(ds, "nowin"), 1527);
  EXPECT_FALSE(ds.has_missing());
}

TEST(Chess, MostlyBinaryFeatures) {
  const Dataset ds = chess();
  int binary = 0;
  for (std::size_t r = 0; r < ds.num_features(); ++r) {
    if (ds.cardinality(r) == 2) ++binary;
  }
  EXPECT_GE(binary, 34);          // 35 binary + 1 ternary in the real schema
  EXPECT_EQ(*std::max_element(ds.cardinalities().begin(),
                              ds.cardinalities().end()),
            3);
}

// --- Mushroom ----------------------------------------------------------------

TEST(Mushroom, ShapeAndSchema) {
  const Dataset ds = mushroom();
  EXPECT_EQ(ds.num_objects(), 8124u);
  EXPECT_EQ(ds.num_features(), 22u);
  EXPECT_EQ(ds.num_classes(), 2);
  EXPECT_TRUE(ds.has_missing());  // stalk-root '?' as in the UCI file
}

TEST(Mushroom, VeilTypeIsDegenerate) {
  const Dataset ds = mushroom();
  // Feature 15 is veil-type: single-valued in the real data, kept that way
  // as a deliberate degenerate-feature stressor.
  EXPECT_EQ(ds.cardinality(15), 1);
}

TEST(Mushroom, StalkRootMissingRate) {
  const Dataset ds = mushroom();
  int missing = 0;
  for (std::size_t i = 0; i < ds.num_objects(); ++i) {
    if (ds.is_missing(i, 10)) ++missing;
  }
  // Real rate is 2480/8124 ~ 30.5%; generator is stochastic.
  EXPECT_NEAR(static_cast<double>(missing) / 8124.0, 0.305, 0.03);
}

TEST(Mushroom, RoughClassBalance) {
  const Dataset ds = mushroom();
  const int edible = count_label(ds, "edible");
  EXPECT_GT(edible, 2500);
  EXPECT_LT(edible, 5600);
}

// --- Synthetic ----------------------------------------------------------------

TEST(WellSeparated, ShapeLabelsAndDeterminism) {
  WellSeparatedConfig config;
  config.num_objects = 300;
  config.num_features = 5;
  config.num_clusters = 3;
  const Dataset a = well_separated(config);
  const Dataset b = well_separated(config);
  EXPECT_EQ(a.num_objects(), 300u);
  EXPECT_EQ(a.num_classes(), 3);
  for (std::size_t i = 0; i < a.num_objects(); ++i) {
    for (std::size_t r = 0; r < a.num_features(); ++r) {
      EXPECT_EQ(a.at(i, r), b.at(i, r));
    }
  }
}

TEST(WellSeparated, PurityIsRespected) {
  WellSeparatedConfig config;
  config.num_objects = 3000;
  config.purity = 0.9;
  const Dataset ds = well_separated(config);
  std::size_t dominant = 0;
  std::size_t total = 0;
  for (std::size_t i = 0; i < ds.num_objects(); ++i) {
    for (std::size_t r = 0; r < ds.num_features(); ++r) {
      if (ds.at(i, r) == ds.labels()[i]) ++dominant;
      ++total;
    }
  }
  EXPECT_NEAR(static_cast<double>(dominant) / static_cast<double>(total), 0.9,
              0.02);
}

TEST(WellSeparated, InvalidConfigThrows) {
  WellSeparatedConfig config;
  config.num_clusters = 5;
  config.cardinality = 3;
  EXPECT_THROW(well_separated(config), std::invalid_argument);
  config.num_clusters = 0;
  EXPECT_THROW(well_separated(config), std::invalid_argument);
}

TEST(Nested, TwoLevelStructure) {
  NestedConfig config;
  const NestedDataset nd = nested(config);
  EXPECT_EQ(nd.dataset.num_objects(), config.num_objects);
  EXPECT_EQ(nd.fine_labels.size(), config.num_objects);
  EXPECT_EQ(nd.dataset.num_classes(), config.num_coarse);
  // Every fine cluster sits wholly inside one coarse cluster.
  std::map<int, std::set<int>> parents;
  for (std::size_t i = 0; i < nd.fine_labels.size(); ++i) {
    parents[nd.fine_labels[i]].insert(nd.dataset.labels()[i]);
  }
  EXPECT_EQ(parents.size(),
            static_cast<std::size_t>(config.num_coarse * config.fine_per_coarse));
  for (const auto& [fine, coarse_set] : parents) {
    EXPECT_EQ(coarse_set.size(), 1u);
  }
}

TEST(Nested, InvalidConfigThrows) {
  NestedConfig config;
  config.cardinality = 2;  // cannot encode 6 fine clusters
  EXPECT_THROW(nested(config), std::invalid_argument);
}

TEST(SynPaper, SynNShape) {
  const Dataset ds = syn_n(5000);
  EXPECT_EQ(ds.num_objects(), 5000u);
  EXPECT_EQ(ds.num_features(), 10u);
  EXPECT_EQ(ds.num_classes(), 3);
}

// --- Registry -----------------------------------------------------------------

TEST(Registry, RosterMatchesTableII) {
  const auto& roster = benchmark_roster();
  ASSERT_EQ(roster.size(), 8u);
  for (const auto& info : roster) {
    SCOPED_TRACE(info.abbrev);
    const Dataset ds = load(info.abbrev);
    EXPECT_EQ(ds.num_objects(), info.n);
    EXPECT_EQ(ds.num_features(), info.d);
    EXPECT_EQ(ds.num_classes(), info.k_star);
  }
}

TEST(Registry, UnknownAbbrevThrows) {
  EXPECT_THROW(load("Nope."), std::invalid_argument);
}

TEST(Registry, FidelityToString) {
  EXPECT_EQ(to_string(Fidelity::exact), "exact");
  EXPECT_EQ(to_string(Fidelity::rule_model), "rule-model");
  EXPECT_EQ(to_string(Fidelity::simulated), "simulated");
  EXPECT_EQ(to_string(Fidelity::synthetic), "synthetic");
}

}  // namespace
}  // namespace mcdc::data

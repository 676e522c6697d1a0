// Tests for the internal (label-free) categorical validity indices,
// including a seeded sweep that holds the silhouette, Davies-Bouldin and
// separation bit for bit to the per-cluster scans they replace.
#include "metrics/internal.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "core/profile_set.h"
#include "core/simd.h"
#include "data/dataset.h"
#include "data/synthetic.h"
#include "data/view.h"

namespace mcdc::metrics {
namespace {

// Two perfectly separated blocks: rows 0-2 all 'a', rows 3-5 all 'b'.
data::Dataset two_blocks() {
  data::DatasetBuilder builder({"f1", "f2", "f3"});
  for (int i = 0; i < 3; ++i) builder.add_row({"a", "a", "a"});
  for (int i = 0; i < 3; ++i) builder.add_row({"b", "b", "b"});
  return std::move(builder).build();
}

const std::vector<int> kBlockLabels = {0, 0, 0, 1, 1, 1};

// --- The label bank ------------------------------------------------------------

// The bank every index reads: core::ProfileSet over the labels, with
// k = max label + 1.
core::ProfileSet label_bank(const data::DatasetView& ds,
                            const std::vector<int>& labels) {
  int k = 0;
  for (const int l : labels) k = std::max(k, l + 1);
  return core::ProfileSet::from_assignment(ds, labels, k);
}

TEST(LabelBank, CountsAndModes) {
  const auto ds = two_blocks();
  const core::ProfileSet bank = label_bank(ds, kBlockLabels);
  EXPECT_EQ(bank.num_clusters(), 2);
  EXPECT_EQ(bank.size(0), 3.0);
  EXPECT_EQ(bank.size(1), 3.0);
  EXPECT_EQ(bank.count(0, 0, 0), 3.0);  // cluster 0, feature 0, value 'a'
  EXPECT_EQ(bank.count(0, 0, 1), 0.0);
  EXPECT_EQ(bank.mode(0)[0], 0);
  EXPECT_EQ(bank.mode(1)[0], 1);
}

TEST(LabelBank, MeanDistanceZeroInsidePureCluster) {
  const auto ds = two_blocks();
  const core::ProfileSet bank = label_bank(ds, kBlockLabels);
  EXPECT_DOUBLE_EQ(mean_distance(bank, ds, 0, 0, false), 0.0);
  EXPECT_DOUBLE_EQ(mean_distance(bank, ds, 0, 0, true), 0.0);
  // Distance from a block-0 row to the pure block-1 cluster is maximal.
  EXPECT_DOUBLE_EQ(mean_distance(bank, ds, 0, 1, false), 1.0);
}

TEST(LabelBank, MalformedLabelsThrow) {
  const auto ds = two_blocks();
  EXPECT_THROW(internal_scores(ds, {0, 1}), std::invalid_argument);
  EXPECT_THROW(categorical_silhouette(ds, {0, 1}), std::invalid_argument);
  // from_assignment alone would skip a -1 label.
  EXPECT_THROW(internal_scores(ds, {0, 0, 0, 1, 1, -1}),
               std::invalid_argument);
}

TEST(LabelBank, MissingCellsExcluded) {
  data::DatasetBuilder builder({"f1", "f2"});
  builder.add_row({"a", "?"});
  builder.add_row({"a", "x"});
  const auto ds = std::move(builder).build();
  const core::ProfileSet bank = label_bank(ds, {0, 0});
  EXPECT_EQ(bank.non_null(0, 0), 2.0);
  EXPECT_EQ(bank.non_null(0, 1), 1.0);
}

// --- Compactness / separation ---------------------------------------------------

TEST(Compactness, PerfectBlocksScoreOne) {
  const auto ds = two_blocks();
  EXPECT_DOUBLE_EQ(internal_scores(ds, kBlockLabels).compactness, 1.0);
}

TEST(Compactness, MergedBlocksScoreHalf) {
  // One cluster holding both pure blocks: every feature matches half the
  // members -> similarity 0.5.
  const auto ds = two_blocks();
  EXPECT_DOUBLE_EQ(internal_scores(ds, {0, 0, 0, 0, 0, 0}).compactness, 0.5);
}

TEST(ModeSeparation, DisjointBlocksFullySeparated) {
  const auto ds = two_blocks();
  EXPECT_DOUBLE_EQ(internal_scores(ds, kBlockLabels).separation, 1.0);
}

TEST(ModeSeparation, SingleClusterIsZero) {
  const auto ds = two_blocks();
  EXPECT_DOUBLE_EQ(internal_scores(ds, {0, 0, 0, 0, 0, 0}).separation, 0.0);
}

// --- Silhouette -----------------------------------------------------------------

TEST(Silhouette, PerfectBlocksScoreOne) {
  const auto ds = two_blocks();
  EXPECT_DOUBLE_EQ(categorical_silhouette(ds, kBlockLabels), 1.0);
}

TEST(Silhouette, RandomSplitOfUniformDataNearZeroOrNegative) {
  data::DatasetBuilder builder({"f1"});
  for (int i = 0; i < 8; ++i) builder.add_row({"a"});
  const auto ds = std::move(builder).build();
  // Identical objects split arbitrarily: a = 0 = b is degenerate; the
  // silhouette must not report good structure.
  const std::vector<int> labels = {0, 1, 0, 1, 0, 1, 0, 1};
  EXPECT_LE(categorical_silhouette(ds, labels), 0.0 + 1e-12);
}

TEST(Silhouette, SingleClusterIsZero) {
  const auto ds = two_blocks();
  EXPECT_DOUBLE_EQ(categorical_silhouette(ds, {0, 0, 0, 0, 0, 0}), 0.0);
}

TEST(Silhouette, PlantedClustersBeatShuffledLabels) {
  data::WellSeparatedConfig config;
  config.num_objects = 300;
  config.num_clusters = 3;
  config.purity = 0.9;
  const auto ds = data::well_separated(config);
  const double planted = categorical_silhouette(ds, ds.labels());
  std::vector<int> shuffled = ds.labels();
  Rng rng(3);
  rng.shuffle(shuffled);
  EXPECT_GT(planted, categorical_silhouette(ds, shuffled) + 0.2);
}

// --- Category utility -------------------------------------------------------------

TEST(CategoryUtility, PerfectBlocks) {
  // Hand computation: P(C)=0.5 each; within clusters all P(v|C)^2 sum to 1
  // per feature (3 features); globally each value has P 0.5 -> sum 0.5 per
  // feature. CU = (1/2) * [0.5*3*(1-0.5) + 0.5*3*(1-0.5)] = 0.75.
  const auto ds = two_blocks();
  EXPECT_NEAR(internal_scores(ds, kBlockLabels).category_utility, 0.75,
              1e-12);
}

TEST(CategoryUtility, SingleClusterIsZero) {
  const auto ds = two_blocks();
  EXPECT_NEAR(internal_scores(ds, {0, 0, 0, 0, 0, 0}).category_utility, 0.0,
              1e-12);
}

TEST(CategoryUtility, PlantedBeatsShuffled) {
  data::WellSeparatedConfig config;
  config.num_objects = 200;
  config.num_clusters = 4;
  const auto ds = data::well_separated(config);
  std::vector<int> shuffled = ds.labels();
  Rng rng(5);
  rng.shuffle(shuffled);
  EXPECT_GT(internal_scores(ds, ds.labels()).category_utility,
            internal_scores(ds, shuffled).category_utility);
}

// --- Davies-Bouldin ---------------------------------------------------------------

TEST(DaviesBouldin, PerfectBlocksScoreZero) {
  // Zero scatter, positive mode distance -> ratio 0.
  const auto ds = two_blocks();
  EXPECT_DOUBLE_EQ(internal_scores(ds, kBlockLabels).davies_bouldin, 0.0);
}

TEST(DaviesBouldin, CoincidentModesAreInfinite) {
  data::DatasetBuilder builder({"f1", "f2"});
  builder.add_row({"a", "a"});
  builder.add_row({"a", "b"});
  builder.add_row({"a", "a"});
  builder.add_row({"a", "b"});
  const auto ds = std::move(builder).build();
  // Both clusters have mode (a, a|b) -> identical modes, positive scatter.
  const double db = internal_scores(ds, {0, 0, 1, 1}).davies_bouldin;
  EXPECT_TRUE(std::isinf(db));
}

TEST(DaviesBouldin, PlantedBeatsShuffled) {
  data::WellSeparatedConfig config;
  config.num_objects = 200;
  config.num_clusters = 3;
  const auto ds = data::well_separated(config);
  std::vector<int> shuffled = ds.labels();
  Rng rng(7);
  rng.shuffle(shuffled);
  EXPECT_LT(internal_scores(ds, ds.labels()).davies_bouldin,
            internal_scores(ds, shuffled).davies_bouldin);
}

// --- Property sweep ----------------------------------------------------------------

class InternalSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(InternalSweep, BoundsAndSanity) {
  Rng rng(GetParam());
  data::WellSeparatedConfig config;
  config.num_objects = 60 + rng.below(100);
  config.num_clusters = 2 + static_cast<int>(rng.below(4));
  config.cardinality = 6;  // >= any num_clusters drawn above
  config.seed = GetParam();
  const auto ds = data::well_separated(config);
  const auto& labels = ds.labels();
  const InternalScores scores = internal_scores(ds, labels);
  EXPECT_GE(scores.compactness, 0.0);
  EXPECT_LE(scores.compactness, 1.0);
  EXPECT_GE(scores.silhouette, -1.0);
  EXPECT_LE(scores.silhouette, 1.0);
  EXPECT_GE(scores.separation, 0.0);
  EXPECT_LE(scores.separation, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, InternalSweep,
                         ::testing::Range<std::uint64_t>(1, 9));

// --- Against the per-cluster scans, bit for bit ------------------------------

// Silhouette from the definition: every object against every cluster
// through mean_distance.
double reference_silhouette(const data::DatasetView& ds,
                            const std::vector<int>& labels) {
  if (ds.num_objects() == 0) return 0.0;
  const core::ProfileSet bank = label_bank(ds, labels);
  const int k = bank.num_clusters();
  if (k < 2) return 0.0;
  double sum = 0.0;
  for (std::size_t i = 0; i < ds.num_objects(); ++i) {
    const int own = labels[i];
    if (bank.size(own) <= 1.0) continue;
    const double a = mean_distance(bank, ds, i, own, true);
    double b = std::numeric_limits<double>::infinity();
    for (int l = 0; l < k; ++l) {
      if (l == own || bank.empty(l)) continue;
      b = std::min(b, mean_distance(bank, ds, i, l, false));
    }
    if (!std::isfinite(b)) continue;
    const double denom = std::max(a, b);
    if (denom > 0.0) sum += (b - a) / denom;
  }
  return sum / static_cast<double>(ds.num_objects());
}

double reference_mode_distance(const core::ProfileSet& bank, std::size_t d,
                               int l, int t) {
  int mismatches = 0;
  int compared = 0;
  for (std::size_t r = 0; r < d; ++r) {
    const data::Value a = bank.mode(l)[r];
    const data::Value b = bank.mode(t)[r];
    if (a == data::kMissing || b == data::kMissing) continue;
    ++compared;
    if (a != b) ++mismatches;
  }
  if (compared == 0) return 0.0;
  return static_cast<double>(mismatches) / static_cast<double>(compared);
}

// Scatter of cluster l by a full rescan of the table, recomputing the
// mode for every member cell.
double reference_mode_scatter(const data::DatasetView& ds,
                              const std::vector<int>& labels,
                              const core::ProfileSet& bank, int l) {
  double sum = 0.0;
  std::size_t members = 0;
  for (std::size_t i = 0; i < ds.num_objects(); ++i) {
    if (labels[i] != l) continue;
    ++members;
    int mismatches = 0;
    int compared = 0;
    for (std::size_t r = 0; r < ds.num_features(); ++r) {
      const data::Value v = ds.at(i, r);
      const data::Value m = bank.mode(l)[r];
      if (v == data::kMissing || m == data::kMissing) continue;
      ++compared;
      if (v != m) ++mismatches;
    }
    if (compared > 0) {
      sum += static_cast<double>(mismatches) / static_cast<double>(compared);
    }
  }
  return members == 0 ? 0.0 : sum / static_cast<double>(members);
}

double reference_davies_bouldin(const data::DatasetView& ds,
                                const std::vector<int>& labels) {
  const core::ProfileSet bank = label_bank(ds, labels);
  const int k = bank.num_clusters();
  if (k < 2) return 0.0;
  std::vector<double> scatter(static_cast<std::size_t>(k));
  for (int l = 0; l < k; ++l) {
    scatter[static_cast<std::size_t>(l)] =
        reference_mode_scatter(ds, labels, bank, l);
  }
  double sum = 0.0;
  for (int l = 0; l < k; ++l) {
    double worst = 0.0;
    for (int t = 0; t < k; ++t) {
      if (t == l) continue;
      const double dist =
          reference_mode_distance(bank, ds.num_features(), l, t);
      const double numer = scatter[static_cast<std::size_t>(l)] +
                           scatter[static_cast<std::size_t>(t)];
      const double ratio = dist > 0.0
                               ? numer / dist
                               : (numer > 0.0
                                      ? std::numeric_limits<double>::infinity()
                                      : 0.0);
      worst = std::max(worst, ratio);
    }
    sum += worst;
  }
  return sum / static_cast<double>(k);
}

double reference_separation(const data::DatasetView& ds,
                            const std::vector<int>& labels) {
  const core::ProfileSet bank = label_bank(ds, labels);
  const int k = bank.num_clusters();
  if (k < 2) return 0.0;
  double sum = 0.0;
  int pairs = 0;
  for (int l = 0; l < k; ++l) {
    for (int t = l + 1; t < k; ++t) {
      sum += reference_mode_distance(bank, ds.num_features(), l, t);
      ++pairs;
    }
  }
  return sum / static_cast<double>(pairs);
}

TEST(InternalReference, SeededSweepIsBitIdentical) {
  Rng rng(77);
  const core::simd::Level entry = core::simd::level();
  // Edge cases the sweep must reach, counted over the cases.
  int tiny = 0;        // n = 1 or 2
  int single = 0;      // k = 1
  int empty_id = 0;    // an id in [0, k) with no member
  int singleton = 0;   // a cluster of one
  int unobserved = 0;  // a cluster with non_null = 0 in some feature
  int view = 0;        // a shuffled row-index view
  for (int c = 0; c < 300; ++c) {
    std::size_t n = 3 + rng.below(c % 5 == 0 ? 200 : 40);
    if (c % 25 < 2) n = static_cast<std::size_t>(1 + c % 25);  // n = 1, 2
    const std::size_t d = 1 + rng.below(6);
    std::vector<int> cards(d);
    for (int& m : cards) m = 1 + static_cast<int>(rng.below(5));
    const int k = 1 + static_cast<int>(rng.below(6));
    std::vector<int> labels(n);
    for (int& l : labels) {
      l = static_cast<int>(rng.below(static_cast<std::uint64_t>(k)));
      if (c % 3 == 0) l *= 2;  // odd ids stay empty
    }
    if (c % 5 == 1) labels[n - 1] = 2 * k;  // a singleton past a gap
    // About 20 % missing cells; every fourth table also hides feature 0
    // from cluster 0 entirely.
    std::vector<data::Value> cells(n * d, data::kMissing);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t r = 0; r < d; ++r) {
        const bool hidden = c % 4 == 0 && r == 0 && labels[i] == 0;
        if (hidden || rng.bernoulli(0.2)) continue;
        const auto m = static_cast<std::uint64_t>(cards[r]);
        cells[i * d + r] = static_cast<data::Value>(rng.below(m));
      }
    }
    const data::Dataset table(n, d, std::move(cells), cards);
    std::vector<std::size_t> rows(n);
    for (std::size_t i = 0; i < n; ++i) rows[i] = i;
    if (c % 2 == 1) rng.shuffle(rows);
    const data::DatasetView ds =
        c % 2 == 1 ? data::DatasetView(table, rows) : data::DatasetView(table);

    const core::ProfileSet bank = label_bank(ds, labels);
    tiny += n <= 2 ? 1 : 0;
    single += bank.num_clusters() == 1 ? 1 : 0;
    view += ds.is_identity() ? 0 : 1;
    bool has_empty = false;
    bool has_singleton = false;
    bool has_unobserved = false;
    for (int l = 0; l < bank.num_clusters(); ++l) {
      const double size = bank.size(l);
      has_empty = has_empty || size == 0.0;
      has_singleton = has_singleton || size == 1.0;
      for (std::size_t r = 0; r < d; ++r) {
        has_unobserved =
            has_unobserved || (size > 0.0 && bank.non_null(l, r) == 0.0);
      }
    }
    empty_id += has_empty ? 1 : 0;
    singleton += has_singleton ? 1 : 0;
    unobserved += has_unobserved ? 1 : 0;

    const double silhouette = reference_silhouette(ds, labels);
    const double db = reference_davies_bouldin(ds, labels);
    const double separation = reference_separation(ds, labels);
    // The silhouette sweep runs through the kernel table: both tables.
    for (const core::simd::Level level :
         {core::simd::Level::kScalar, core::simd::Level::kAvx2}) {
      core::simd::set_level(level);
      EXPECT_EQ(categorical_silhouette(ds, labels), silhouette)
          << "case " << c << " at "
          << core::simd::level_name(core::simd::level());
    }
    core::simd::set_level(entry);
    const InternalScores bundle = internal_scores(ds, labels);
    EXPECT_EQ(bundle.separation, separation) << "case " << c;
    EXPECT_EQ(bundle.silhouette, silhouette) << "case " << c;
    EXPECT_EQ(bundle.davies_bouldin, db) << "case " << c;
  }
  EXPECT_GT(tiny, 10);
  EXPECT_GT(single, 10);
  EXPECT_GT(empty_id, 30);
  EXPECT_GT(singleton, 30);
  EXPECT_GT(unobserved, 30);
  EXPECT_GT(view, 100);
}

}  // namespace
}  // namespace mcdc::metrics

// Tests for the flat ProfileSet scoring kernel (profile_set.h): bit-exact
// equivalence with the definition-level Eq. (1)/(14) reference
// (similarity.h) on randomised datasets with NULLs, incremental
// maintenance, every per-row operation on a strided row(i) against the
// packed row_copy(i), cluster append/remove restriding, verbatim cluster
// selection and array round trips, out-of-domain clamping, and fixed-seed
// label goldens across every registered method (the byte-identity contract
// of the kernel); plus the register-blocked batch argmax vs the per-row
// scan, the batched best score (Model::predict_scores) vs the score_all
// reference, and the freeze() single-writer contract under concurrent
// frozen readers (the tsan CI job runs this binary).
#include "core/profile_set.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.h"
#include "common/rng.h"
#include "core/similarity.h"
#include "core/simd.h"
#include "core/streaming.h"
#include "data/noise.h"
#include "data/synthetic.h"

namespace mcdc {
namespace {

// Random categorical dataset with ~10% missing cells and random labels.
struct RandomCase {
  data::Dataset ds;
  std::vector<int> labels;
  int k = 0;
};

RandomCase random_case(std::uint64_t seed, std::size_t n = 160,
                       std::size_t d = 6, int k = 5) {
  Rng rng(seed);
  std::vector<int> cardinalities(d);
  for (auto& m : cardinalities) {
    m = static_cast<int>(2 + rng.below(5));
  }
  std::vector<data::Value> cells(n * d);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t r = 0; r < d; ++r) {
      cells[i * d + r] =
          rng.bernoulli(0.1)
              ? data::kMissing
              : static_cast<data::Value>(rng.below(
                    static_cast<std::uint64_t>(cardinalities[r])));
    }
  }
  RandomCase out{data::Dataset(n, d, std::move(cells), cardinalities), {}, k};
  out.labels.resize(n);
  for (auto& l : out.labels) {
    l = static_cast<int>(rng.below(static_cast<std::uint64_t>(k)));
  }
  return out;
}

TEST(ProfileSet, ScoreAllMatchesReferenceSimilarity) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const RandomCase c = random_case(seed);
    core::ProfileSet set =
        core::ProfileSet::from_assignment(c.ds, c.labels, c.k);

    std::vector<double> reference(c.ds.num_objects() *
                                  static_cast<std::size_t>(c.k));
    for (std::size_t i = 0; i < c.ds.num_objects(); ++i) {
      const std::vector<data::Value> row = c.ds.row_copy(i);
      for (int l = 0; l < c.k; ++l) {
        reference[i * static_cast<std::size_t>(c.k) +
                  static_cast<std::size_t>(l)] =
            core::reference::similarity(c.ds, c.labels, l, row.data());
      }
    }
    std::vector<double> batched(static_cast<std::size_t>(c.k));
    for (std::size_t i = 0; i < c.ds.num_objects(); ++i) {
      set.score_all(c.ds.row(i), batched.data());
      for (int l = 0; l < c.k; ++l) {
        const double expected = reference[i * static_cast<std::size_t>(c.k) +
                                          static_cast<std::size_t>(l)];
        EXPECT_EQ(batched[static_cast<std::size_t>(l)], expected);
        EXPECT_EQ(set.score_one(l, c.ds.row(i)), expected);
      }
    }
    // Frozen quotients come from the same divisions: still identical.
    set.freeze();
    for (std::size_t i = 0; i < c.ds.num_objects(); ++i) {
      set.score_all(c.ds.row(i), batched.data());
      for (int l = 0; l < c.k; ++l) {
        EXPECT_EQ(batched[static_cast<std::size_t>(l)],
                  reference[i * static_cast<std::size_t>(c.k) +
                            static_cast<std::size_t>(l)]);
      }
    }
  }
}

TEST(ProfileSet, WeightedScoreAllMatchesReferenceWeightedSimilarity) {
  const RandomCase c = random_case(11);
  core::ProfileSet set = core::ProfileSet::from_assignment(c.ds, c.labels, c.k);

  // Random per-cluster weight vectors, transposed into the feature-major
  // bank weighted_score_all consumes.
  Rng rng(99);
  const std::size_t d = c.ds.num_features();
  std::vector<std::vector<double>> omega(static_cast<std::size_t>(c.k),
                                         std::vector<double>(d));
  std::vector<double> bank(d * static_cast<std::size_t>(c.k));
  for (int l = 0; l < c.k; ++l) {
    for (std::size_t r = 0; r < d; ++r) {
      const double w = rng.uniform();
      omega[static_cast<std::size_t>(l)][r] = w;
      bank[r * static_cast<std::size_t>(c.k) + static_cast<std::size_t>(l)] = w;
    }
  }

  std::vector<double> batched(static_cast<std::size_t>(c.k));
  for (std::size_t i = 0; i < c.ds.num_objects(); ++i) {
    const std::vector<data::Value> row = c.ds.row_copy(i);
    set.weighted_score_all(c.ds.row(i), bank.data(), batched.data());
    for (int l = 0; l < c.k; ++l) {
      const auto& w = omega[static_cast<std::size_t>(l)];
      const double reference = core::reference::weighted_similarity(
          c.ds, c.labels, l, row.data(), w);
      EXPECT_EQ(batched[static_cast<std::size_t>(l)], reference);
      EXPECT_EQ(set.weighted_score_one(l, c.ds.row(i), w), reference);
    }
  }
}

TEST(ProfileSet, IncrementalMaintenanceMatchesRebuild) {
  RandomCase c = random_case(21);
  core::ProfileSet set = core::ProfileSet::from_assignment(c.ds, c.labels, c.k);
  // Shuffle a few objects between clusters with move/remove/add.
  Rng rng(7);
  for (int step = 0; step < 200; ++step) {
    const auto i = static_cast<std::size_t>(rng.below(c.ds.num_objects()));
    const int to = static_cast<int>(rng.below(static_cast<std::uint64_t>(c.k)));
    set.move(c.labels[i], to, c.ds.row(i));
    c.labels[i] = to;
  }
  const core::ProfileSet rebuilt =
      core::ProfileSet::from_assignment(c.ds, c.labels, c.k);
  for (int l = 0; l < c.k; ++l) {
    EXPECT_DOUBLE_EQ(set.size(l), rebuilt.size(l));
    for (std::size_t r = 0; r < c.ds.num_features(); ++r) {
      EXPECT_DOUBLE_EQ(set.non_null(l, r), rebuilt.non_null(l, r));
      for (data::Value v = 0; v < c.ds.cardinality(r); ++v) {
        EXPECT_DOUBLE_EQ(set.count(l, r, v), rebuilt.count(l, r, v));
      }
    }
  }
}

// The one row form: row(i) reads a row in place through the column-major
// bank (stride n), row_copy(i) is the same row packed (stride 1), and every
// per-row operation must not tell them apart. Checked on a Dataset, its
// identity view and an indirect view whose rows repeat: scores with
// EXPECT_EQ on live and frozen banks, then counts, non-null totals and
// sizes after the same add/remove/move sequence through either form.
TEST(ProfileSet, StridedRowsActLikePackedRows) {
  const RandomCase c = random_case(81, 90, 7, 6);
  const std::size_t n = c.ds.num_objects();
  const std::size_t d = c.ds.num_features();
  const auto k = static_cast<std::size_t>(c.k);
  std::vector<std::size_t> ids(n + n / 2);
  for (std::size_t j = 0; j < ids.size(); ++j) ids[j] = (j * 53 + 5) % n;
  std::vector<int> id_labels(ids.size());
  for (std::size_t j = 0; j < ids.size(); ++j) id_labels[j] = c.labels[ids[j]];
  Rng rng(83);
  std::vector<std::vector<double>> omega(k, std::vector<double>(d));
  std::vector<double> weights(d * k);
  for (std::size_t l = 0; l < k; ++l) {
    for (std::size_t r = 0; r < d; ++r) {
      omega[l][r] = rng.uniform();
      weights[r * k + l] = omega[l][r];
    }
  }

  const auto check = [&](const auto& rows, const std::vector<int>& labels) {
    const std::size_t m = rows.num_objects();
    core::ProfileSet set = core::ProfileSet::from_assignment(rows, labels, c.k);
    std::vector<double> a(k), b(k), scratch;
    for (const bool frozen : {false, true}) {
      if (frozen) set.freeze();
      for (std::size_t i = 0; i < m; ++i) {
        const data::RowRef row = rows.row(i);
        const std::vector<data::Value> packed = rows.row_copy(i);
        for (std::size_t r = 0; r < d; ++r) EXPECT_EQ(row[r], packed[r]);
        set.score_all(row, a.data());
        set.score_all(packed.data(), b.data());
        EXPECT_EQ(a, b) << "row " << i;
        set.weighted_score_all(row, weights.data(), a.data());
        set.weighted_score_all(packed.data(), weights.data(), b.data());
        EXPECT_EQ(a, b) << "row " << i;
        for (int l = 0; l < c.k; ++l) {
          const auto& w = omega[static_cast<std::size_t>(l)];
          EXPECT_EQ(set.score_one(l, row), set.score_one(l, packed.data()));
          EXPECT_EQ(set.weighted_score_one(l, row, w),
                    set.weighted_score_one(l, packed.data(), w));
        }
        EXPECT_EQ(set.best_cluster(row, scratch),
                  set.best_cluster(packed.data(), scratch));
      }
    }
    core::ProfileSet strided = set;
    core::ProfileSet packed = set;
    for (std::size_t i = 0; i < m; ++i) {
      const std::vector<data::Value> copy = rows.row_copy(i);
      const int to = static_cast<int>((i * 7 + 3) % k);
      if (i % 3 == 0) {
        strided.add(to, rows.row(i));
        packed.add(to, copy.data());
      } else if (i % 3 == 1) {
        strided.remove(labels[i], rows.row(i));
        packed.remove(labels[i], copy.data());
      } else {
        strided.move(labels[i], to, rows.row(i));
        packed.move(labels[i], to, copy.data());
      }
    }
    for (int l = 0; l < c.k; ++l) {
      EXPECT_EQ(strided.size(l), packed.size(l));
      for (std::size_t r = 0; r < d; ++r) {
        EXPECT_EQ(strided.non_null(l, r), packed.non_null(l, r));
        for (data::Value v = 0; v < c.ds.cardinality(r); ++v) {
          EXPECT_EQ(strided.count(l, r, v), packed.count(l, r, v));
        }
      }
    }
  };
  check(c.ds, c.labels);
  check(data::DatasetView(c.ds), c.labels);
  check(data::DatasetView(c.ds, ids), id_labels);
}

TEST(ProfileSet, AppendAndRemoveClustersRestrideTheBank) {
  const RandomCase c = random_case(31, 60, 4, 3);
  core::ProfileSet set = core::ProfileSet::from_assignment(c.ds, c.labels, c.k);
  const int fresh = set.append_cluster();
  EXPECT_EQ(fresh, 3);
  EXPECT_EQ(set.num_clusters(), 4);
  EXPECT_TRUE(set.empty(fresh));
  set.add(fresh, c.ds.row(0));
  EXPECT_DOUBLE_EQ(set.size(fresh), 1.0);

  // Old clusters kept their histograms across the restride.
  const core::ProfileSet reference =
      core::ProfileSet::from_assignment(c.ds, c.labels, c.k);
  for (int l = 0; l < c.k; ++l) {
    for (std::size_t r = 0; r < c.ds.num_features(); ++r) {
      for (data::Value v = 0; v < c.ds.cardinality(r); ++v) {
        EXPECT_DOUBLE_EQ(set.count(l, r, v), reference.count(l, r, v));
      }
    }
  }

  // Dropping cluster 1 compacts the survivors in order.
  std::vector<char> dead(4, 0);
  dead[1] = 1;
  const std::vector<int> remap = set.remove_clusters(dead);
  EXPECT_EQ(set.num_clusters(), 3);
  EXPECT_EQ(remap[0], 0);
  EXPECT_EQ(remap[1], -1);
  EXPECT_EQ(remap[2], 1);
  EXPECT_EQ(remap[3], 2);
  for (std::size_t r = 0; r < c.ds.num_features(); ++r) {
    for (data::Value v = 0; v < c.ds.cardinality(r); ++v) {
      EXPECT_DOUBLE_EQ(set.count(0, r, v), reference.count(0, r, v));
      EXPECT_DOUBLE_EQ(set.count(1, r, v), reference.count(2, r, v));
    }
  }
}

TEST(ProfileSet, OutOfDomainCodesClampToMissing) {
  const RandomCase c = random_case(41, 50, 3, 2);
  core::ProfileSet set = core::ProfileSet::from_assignment(c.ds, c.labels, c.k);
  EXPECT_DOUBLE_EQ(set.count(0, 0, 999), 0.0);
  EXPECT_DOUBLE_EQ(set.count(0, 0, data::kMissing), 0.0);
  EXPECT_DOUBLE_EQ(set.value_similarity(0, 0, 999), 0.0);
  EXPECT_DOUBLE_EQ(set.value_similarity(0, 0, -7), 0.0);

  // A row full of out-of-domain codes scores zero everywhere (all-missing).
  std::vector<data::Value> bogus(c.ds.num_features(), 999);
  std::vector<double> scores(static_cast<std::size_t>(c.k));
  set.score_all(bogus.data(), scores.data());
  for (double s : scores) EXPECT_DOUBLE_EQ(s, 0.0);
  // Mutators ignore out-of-domain cells instead of writing out of bounds:
  // only the member count moves, never a histogram cell.
  const double nn_before = set.non_null(0, 0);
  set.add(0, bogus.data());
  EXPECT_DOUBLE_EQ(set.non_null(0, 0), nn_before);
  set.remove(0, bogus.data());
  EXPECT_DOUBLE_EQ(set.non_null(0, 0), nn_before);
}

// The snapshot-export primitive: select() copies clusters in the given
// order with sizes, non-null totals and counts bit-equal — including the
// fractional values scale() leaves, whose totals are no longer the row sums
// of their counts — and from_arrays() rebuilds the same bank from the
// cluster-major arrays api::Model serialises.
TEST(ProfileSet, SelectAndFromArraysCopyDecayedBanksVerbatim) {
  const RandomCase c = random_case(51);
  core::ProfileSet set = core::ProfileSet::from_assignment(c.ds, c.labels, c.k);
  for (int step = 0; step < 7; ++step) {
    set.scale(0.9);
    set.add(step % c.k, c.ds.row(static_cast<std::size_t>(step)));
  }
  const std::vector<int> order = {3, 0, 4};
  const core::ProfileSet picked = set.select(order);
  ASSERT_EQ(picked.num_clusters(), 3);
  EXPECT_EQ(picked.cardinalities(), set.cardinalities());
  std::vector<double> sizes, non_null, counts;
  for (int j = 0; j < picked.num_clusters(); ++j) {
    const int l = order[static_cast<std::size_t>(j)];
    EXPECT_EQ(picked.size(j), set.size(l));
    sizes.push_back(picked.size(j));
    for (std::size_t r = 0; r < c.ds.num_features(); ++r) {
      EXPECT_EQ(picked.non_null(j, r), set.non_null(l, r));
      non_null.push_back(picked.non_null(j, r));
      for (data::Value v = 0; v < c.ds.cardinality(r); ++v) {
        EXPECT_EQ(picked.count(j, r, v), set.count(l, r, v));
        counts.push_back(picked.count(j, r, v));
      }
    }
  }
  const core::ProfileSet rebuilt = core::ProfileSet::from_arrays(
      set.cardinalities(), sizes, non_null, counts);
  std::vector<double> a(3), b(3);
  for (std::size_t i = 0; i < c.ds.num_objects(); ++i) {
    picked.score_all(c.ds.row(i), a.data());
    rebuilt.score_all(c.ds.row(i), b.data());
    EXPECT_EQ(a, b) << "row " << i;
  }
  EXPECT_EQ(set.select({}).num_clusters(), 0);
  EXPECT_THROW(set.select({c.k}), std::out_of_range);
  EXPECT_THROW(set.select({-1}), std::out_of_range);
  EXPECT_THROW(core::ProfileSet::from_arrays(set.cardinalities(), sizes,
                                             non_null, {}),
               std::invalid_argument);
}

TEST(ProfileSet, ScaleAppliesExponentialForgetting) {
  const RandomCase c = random_case(61, 40, 3, 2);
  core::ProfileSet set = core::ProfileSet::from_assignment(c.ds, c.labels, c.k);
  const double size_before = set.size(0);
  const double nn_before = set.non_null(0, 1);
  set.scale(0.5);
  EXPECT_DOUBLE_EQ(set.size(0), 0.5 * size_before);
  EXPECT_DOUBLE_EQ(set.non_null(0, 1), 0.5 * nn_before);
}

TEST(ProfileSet, BestClusterBreaksTiesToLowestId) {
  // Two identical clusters: every row ties; the lower id must win.
  data::Dataset ds(4, 1, {0, 0, 0, 0}, {2});
  core::ProfileSet set = core::ProfileSet::from_assignment(ds, {0, 1, 0, 1}, 2);
  std::vector<double> scratch;
  for (std::size_t i = 0; i < ds.num_objects(); ++i) {
    EXPECT_EQ(set.best_cluster(ds.row(i), scratch), 0);
  }
}

// The register-blocked batch argmax must label exactly as the per-row
// scan. The shapes deliberately straddle every boundary in the kernel:
// the 32-row gather tile, the 32-cluster register block, the 4-wide and
// scalar cluster tails, and k smaller than one vector — with ~10% missing
// cells throughout (kNoCell skips in the microkernel).
TEST(ProfileSet, BlockedBestClustersMatchPerRowArgmax) {
  struct Shape {
    std::uint64_t seed;
    std::size_t n;
    std::size_t d;
    int k;
  };
  const Shape shapes[] = {
      {71, 1, 4, 3},     // single row, k below one vector
      {72, 31, 5, 5},    // just under one row tile
      {73, 33, 6, 33},   // crosses the row tile; k one past a register block
      {74, 97, 3, 67},   // three tiles; k = 2 blocks + scalar tail
      {75, 101, 7, 70},  // k = 2 blocks + 4-wide tail + scalar tail
  };
  for (const Shape& s : shapes) {
    const RandomCase c = random_case(s.seed, s.n, s.d, s.k);
    const core::ProfileSet set =
        core::ProfileSet::from_assignment(c.ds, c.labels, c.k);
    const std::size_t n = c.ds.num_objects();
    const std::size_t d = c.ds.num_features();

    std::vector<int> blocked(n, -2);
    set.best_clusters(c.ds, 0, n, blocked.data());
    std::vector<double> scratch;
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(blocked[i], set.best_cluster(c.ds.row(i), scratch))
          << "seed " << s.seed << " row " << i;
    }
    // A sub-range lands in the same labels at shifted positions.
    if (n > 2) {
      std::vector<int> sub(n - 2, -2);
      set.best_clusters(c.ds, 1, n - 1, sub.data());
      for (std::size_t i = 1; i + 1 < n; ++i) {
        EXPECT_EQ(sub[i - 1], blocked[i]) << "seed " << s.seed;
      }
    }
    // The pre-encoded rows overload sees the same cells, same labels.
    std::vector<data::Value> rows(n * d);
    for (std::size_t i = 0; i < n; ++i) {
      c.ds.gather_row(i, rows.data() + i * d);
    }
    std::vector<int> from_rows(n, -2);
    set.best_clusters(rows.data(), n, from_rows.data());
    EXPECT_EQ(from_rows, blocked) << "seed " << s.seed;
  }
}

// Pins the freeze() thread-safety contract stated in profile_set.h: the
// first freeze() completes on one thread with a happens-before edge to
// every reader (here: thread creation), after which any number of
// threads may score concurrently — including re-entering freeze(), which
// must return immediately. The tsan CI job runs this suite, so an
// unsynchronised write in any read path is a build failure, not a hope.
TEST(ProfileSet, ConcurrentFrozenReads) {
  const RandomCase c = random_case(91, 256, 6, 40);
  const core::ProfileSet set =
      core::ProfileSet::from_assignment(c.ds, c.labels, c.k);
  const std::size_t n = c.ds.num_objects();
  set.freeze();
  std::vector<int> reference(n);
  set.best_clusters(c.ds, 0, n, reference.data());

  constexpr int kReaders = 4;
  std::vector<std::vector<int>> got(kReaders);
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      set.freeze();  // re-entry on a frozen set: immediate return
      std::vector<int> mine(n);
      set.best_clusters(c.ds, 0, n, mine.data());
      // Per-row reads share the same cache concurrently.
      std::vector<double> scores(static_cast<std::size_t>(c.k));
      set.score_all(c.ds.row(static_cast<std::size_t>(t)), scores.data());
      got[static_cast<std::size_t>(t)] = std::move(mine);
    });
  }
  for (std::thread& r : readers) r.join();
  for (const std::vector<int>& labels : got) EXPECT_EQ(labels, reference);
}

// The best-score loop predict_score ran before the batched path: score_all
// over every cluster, then a running std::max from 0.0. Kept as the
// reference Model::predict_scores must equal bit for bit.
double reference_best_score(const core::ProfileSet& bank,
                            const data::Value* row) {
  std::vector<double> scores(static_cast<std::size_t>(bank.num_clusters()));
  bank.score_all(row, scores.data());
  double best = 0.0;
  for (const double s : scores) best = std::max(best, s);
  return best;
}

// Rows over `cardinalities` with in-domain codes, kMissing and every 9th
// row all-missing; with `out_of_domain`, also negative and >= cardinality
// codes (which a Dataset rejects, but the scorers must clamp to missing).
std::vector<data::Value> score_rows(const std::vector<int>& cardinalities,
                                    std::size_t n, std::uint64_t seed,
                                    bool out_of_domain) {
  Rng rng(seed);
  const std::size_t d = cardinalities.size();
  std::vector<data::Value> rows(n * d);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t r = 0; r < d; ++r) {
      const int card = cardinalities[r];
      data::Value v = static_cast<data::Value>(
          rng.below(static_cast<std::uint64_t>(card)));
      const double roll = rng.uniform();
      if (i % 9 == 4 || roll < 0.08) {
        v = data::kMissing;
      } else if (out_of_domain && roll < 0.12) {
        v = -2 - static_cast<data::Value>(rng.below(3));
      } else if (out_of_domain && roll < 0.16) {
        v = card + static_cast<data::Value>(rng.below(3));
      }
      rows[i * d + r] = v;
    }
  }
  return rows;
}

// Model::predict_scores (ProfileSet::best_scores through the 32-row tile)
// against the reference loop, EXPECT_EQ on the doubles. k covers the
// 32-lane register blocks and the 4-wide and scalar tails; n covers the
// row tile's edges; d = 7 keeps the division inexact, so a reciprocal
// multiply or a reordered feature sum moves some score. Integral banks
// come from from_assignment; decayed ones are scaled and re-absorbed the
// way the streaming learners forget, plus one StreamingMgcpl export.
TEST(Model, PredictScoresMatchTheScoreAllReference) {
  const std::vector<int> cardinalities = {3, 5, 2, 6, 4, 7, 3};
  const std::size_t d = cardinalities.size();
  constexpr std::size_t kRows = 100;
  const std::size_t batch_sizes[] = {0, 1, 31, 32, 33, 100};
  const int ks[] = {0, 1, 3, 4, 5, 31, 32, 33, 40, 65};

  std::vector<api::Model> models;
  for (const int k : ks) {
    const std::vector<data::Value> fit_rows =
        score_rows(cardinalities, 400, 500 + static_cast<std::uint64_t>(k),
                   false);
    const data::Dataset ds(400, d, fit_rows, cardinalities);
    std::vector<int> labels(400, -1);
    Rng rng(600 + static_cast<std::uint64_t>(k));
    if (k > 0) {
      for (int& l : labels) {
        l = static_cast<int>(rng.below(static_cast<std::uint64_t>(k)));
      }
    }
    core::ProfileSet bank = core::ProfileSet::from_assignment(ds, labels, k);
    models.push_back(api::Model::from_profiles("integral", bank));
    if (k == 0) continue;
    // The streaming learners' forgetting: scale, absorb, scale again.
    bank.scale(0.85);
    for (std::size_t i = 0; i < 100; ++i) bank.add(labels[i], ds.row(i));
    bank.scale(0.85);
    models.push_back(api::Model::from_profiles("decayed", std::move(bank)));
  }
  {
    // A real streaming export: rows near 70 prototypes, decay 0.85.
    Rng rng(77);
    std::vector<std::vector<data::Value>> prototypes(70);
    for (std::vector<data::Value>& p : prototypes) {
      for (const int card : cardinalities) {
        p.push_back(static_cast<data::Value>(
            rng.below(static_cast<std::uint64_t>(card))));
      }
    }
    core::StreamingConfig config;
    config.decay = 0.85;
    config.novelty_threshold = 0.5;
    core::StreamingMgcpl learner(cardinalities, config);
    std::vector<data::Value> row(d);
    for (std::size_t i = 0; i < 2000; ++i) {
      const std::vector<data::Value>& p = prototypes[rng.below(70)];
      for (std::size_t r = 0; r < d; ++r) {
        row[r] = rng.bernoulli(0.8) ? p[r] : data::kMissing;
      }
      learner.observe(row.data());
      if (i % 200 == 199) learner.end_chunk();
    }
    models.push_back(learner.to_model());
    EXPECT_GT(models.back().k(), 4) << "the export should span a 4-lane block";
  }

  const std::vector<data::Value> rows =
      score_rows(cardinalities, kRows, 7, true);
  const core::simd::Level entry = core::simd::level();
  for (const core::simd::Level level :
       {core::simd::Level::kScalar, core::simd::Level::kAvx2}) {
    core::simd::set_level(level);
    for (const api::Model& model : models) {
      std::vector<double> reference(kRows);
      for (std::size_t i = 0; i < kRows; ++i) {
        reference[i] =
            reference_best_score(model.profile_bank(), rows.data() + i * d);
      }
      for (const std::size_t n : batch_sizes) {
        std::vector<double> got(kRows + 1, -1.0);
        model.predict_scores(rows.data(), n, got.data());
        for (std::size_t i = 0; i < n; ++i) {
          EXPECT_EQ(got[i], reference[i])
              << model.method() << " k=" << model.k() << " n=" << n
              << " row " << i << " at " << core::simd::level_name(level);
        }
        EXPECT_EQ(got[n], -1.0) << "wrote past row " << n;
      }
      for (std::size_t i = 0; i < kRows; ++i) {
        double one = -1.0;
        model.predict_scores(rows.data() + i * d, 1, &one);
        EXPECT_EQ(model.predict_score(rows.data() + i * d), one);
      }
    }
  }
  core::simd::set_level(entry);
}

TEST(Model, PredictMatchesPredictRow) {
  data::WellSeparatedConfig config;
  config.num_objects = 500;
  config.purity = 0.85;
  config.seed = 5;
  const data::Dataset ds =
      data::with_missing_cells(data::well_separated(config), 0.05, 3);
  api::Engine engine;
  api::FitOptions options;
  options.method = "mcdc1";
  options.k = 3;
  options.seed = 9;
  options.evaluate = false;
  const api::FitResult fit = engine.fit(ds, options);
  ASSERT_TRUE(fit.ok());
  // The parallel batched predict agrees with the row-at-a-time path and is
  // stable across repeated calls (determinism under threading).
  const std::vector<int> batched = fit.model.predict(ds);
  EXPECT_EQ(batched, fit.model.predict(ds));
  for (std::size_t i = 0; i < ds.num_objects(); ++i) {
    EXPECT_EQ(batched[i], fit.model.predict_row(ds.row_copy(i).data()));
  }
}

#if defined(__linux__) && defined(__GLIBC__)
// Fixed-seed label goldens for every registered method, captured when the
// flat ProfileSet kernel landed (byte-identical to the pre-rewire nested
// path). A mismatch means fixed-seed labels silently drifted — regenerate
// the table only for a *deliberate* algorithm change. Guarded to glibc
// Linux: the trajectories pass through libm (exp in Eq. 11), whose last-ulp
// behaviour differs across C libraries.
TEST(KernelGoldens, FixedSeedLabelsAreUnchangedAcrossTheRegistry) {
  data::WellSeparatedConfig config;
  config.num_objects = 240;
  config.num_features = 8;
  config.num_clusters = 3;
  config.cardinality = 5;
  config.purity = 0.72;
  config.seed = 13;
  const data::Dataset ds =
      data::with_missing_cells(data::well_separated(config), 0.08, 99);

  const auto fnv1a = [](std::uint64_t h, const std::vector<int>& v) {
    for (const int x : v) {
      auto u = static_cast<std::uint32_t>(x);
      for (int b = 0; b < 4; ++b) {
        h ^= (u >> (8 * b)) & 0xffu;
        h *= 0x100000001b3ULL;
      }
    }
    return h;
  };

  const std::vector<std::pair<std::string, std::uint64_t>> goldens = {
      {"adc", 0xfa5bc0890dea5a65ULL},
      {"fkmawcw", 0x952fac84ac019ba7ULL},
      {"gudmm", 0xbf419d99e5dacda5ULL},
      {"kmodes", 0xbf419d99e5dacda5ULL},
      {"linkage-average", 0x2e3c3ee3572bbf45ULL},
      {"linkage-complete", 0xcade976fe88f13f4ULL},
      {"linkage-single", 0x2e3c3ee3572bbf45ULL},
      {"mcdc", 0xb95c6b07541d9f45ULL},
      {"mcdc+fkmawcw", 0xb95c6b07541d9f45ULL},
      {"mcdc+gudmm", 0x2e3c3ee3572bbf45ULL},
      {"mcdc+kmodes", 0xb95c6b07541d9f45ULL},
      {"mcdc-dist", 0xee915b63ea6ffda5ULL},
      {"mcdc-online", 0xb95c6b07541d9f45ULL},
      {"mcdc1", 0xee915b63ea6ffda5ULL},
      {"mcdc2", 0x4afc7a195d994b85ULL},
      {"mcdc3", 0x3febd69b0c634a65ULL},
      {"mcdc4", 0xb95c6b07541d9f45ULL},
      {"rock", 0x185f76b3430afd22ULL},
      {"wocil", 0xfa5bc0890dea5a65ULL},
  };

  api::Engine engine;
  std::size_t covered = 0;
  for (const auto& [method, expected] : goldens) {
    api::FitOptions options;
    options.method = method;
    options.k = 3;
    options.seed = 17;
    options.evaluate = false;
    options.stage_reports = false;
    const api::FitResult fit = engine.fit(ds, options);
    std::uint64_t h = 0xcbf29ce484222325ULL;
    h = fnv1a(h, fit.report.labels);
    h = fnv1a(h, fit.model.training_labels());
    if (fit.ok()) h = fnv1a(h, fit.model.predict(ds));
    EXPECT_EQ(h, expected) << "fixed-seed labels drifted for " << method;
    ++covered;
  }
  // Every registered method must be pinned; a new registration has to add
  // its golden here.
  EXPECT_EQ(covered, api::registry().methods().size());
}
#endif  // __linux__ && __GLIBC__

// The zero-copy analogue of the golden table: every registered method must
// produce byte-identical labels when fitted through a row-index DatasetView
// and when fitted on the materialised deep copy of the same rows. This is
// the contract that lets DistributedMcdc hand workers views instead of
// Dataset::subset copies without moving a single golden hash. (No libm
// guard needed: both fits run the exact same trajectory, so the comparison
// is platform-independent.)
TEST(KernelGoldens, ViewFitsMatchMaterializedFits) {
  data::WellSeparatedConfig config;
  config.num_objects = 180;
  config.num_features = 6;
  config.num_clusters = 3;
  config.cardinality = 4;
  config.purity = 0.75;
  config.seed = 29;
  const data::Dataset ds =
      data::with_missing_cells(data::well_separated(config), 0.06, 7);

  // A non-trivial selection: drop every fifth row, keep the rest in order.
  std::vector<std::size_t> rows;
  for (std::size_t i = 0; i < ds.num_objects(); ++i) {
    if (i % 5 != 0) rows.push_back(i);
  }
  const data::DatasetView view(ds, rows);
  const data::Dataset copy = view.materialize();

  api::Engine engine;
  for (const api::MethodInfo& method : api::registry().methods()) {
    api::FitOptions options;
    options.method = method.key;
    options.k = 3;
    options.seed = 23;
    options.evaluate = false;
    options.stage_reports = false;
    const api::FitResult from_view = engine.fit(view, options);
    const api::FitResult from_copy = engine.fit(copy, options);
    EXPECT_EQ(from_view.status.code, from_copy.status.code) << method.key;
    EXPECT_EQ(from_view.report.labels, from_copy.report.labels)
        << "view/copy labels diverged for " << method.key;
    if (from_view.ok() && from_copy.ok()) {
      EXPECT_EQ(from_view.model.training_labels(),
                from_copy.model.training_labels())
          << method.key;
      // Serving side: predicting through a view matches predicting the
      // materialised rows.
      EXPECT_EQ(from_copy.model.predict(view), from_copy.model.predict(copy))
          << method.key;
    }
  }
}

}  // namespace
}  // namespace mcdc

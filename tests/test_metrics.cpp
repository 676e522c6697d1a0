// Validity-index tests: exact values against hand-computed contingency
// tables and published reference values, property sweeps, and a seeded
// sweep that holds AMI bit for bit to a definition-level reference.
#include "metrics/indices.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "metrics/contingency.h"

namespace mcdc::metrics {
namespace {

// --- Contingency -------------------------------------------------------------

TEST(Contingency, TableAndMargins) {
  const std::vector<int> a = {0, 0, 1, 1, 1};
  const std::vector<int> b = {0, 1, 1, 1, 0};
  const Contingency ct(a, b);
  EXPECT_EQ(ct.rows(), 2u);
  EXPECT_EQ(ct.cols(), 2u);
  EXPECT_EQ(ct.total(), 5);
  EXPECT_EQ(ct.at(0, 0), 1);
  EXPECT_EQ(ct.at(0, 1), 1);
  EXPECT_EQ(ct.at(1, 0), 1);
  EXPECT_EQ(ct.at(1, 1), 2);
  EXPECT_EQ(ct.row_sums(), (std::vector<std::int64_t>{2, 3}));
  EXPECT_EQ(ct.col_sums(), (std::vector<std::int64_t>{2, 3}));
}

TEST(Contingency, SparseIdsAreCompacted) {
  // Streaming stable cluster ids are sparse and can grow without bound; the
  // table must stay |distinct| wide and every index must be invariant to
  // the relabeling.
  const std::vector<int> dense = {0, 0, 1, 1, 1};
  const std::vector<int> sparse = {7, 7, 1000000, 1000000, 1000000};
  const std::vector<int> truth = {0, 1, 1, 1, 0};
  const Contingency ct(sparse, truth);
  EXPECT_EQ(ct.rows(), 2u);
  EXPECT_EQ(ct.total(), 5);
  EXPECT_DOUBLE_EQ(adjusted_rand_index(sparse, truth),
                   adjusted_rand_index(dense, truth));
  EXPECT_DOUBLE_EQ(adjusted_mutual_information(sparse, truth),
                   adjusted_mutual_information(dense, truth));
  EXPECT_DOUBLE_EQ(accuracy(sparse, truth), accuracy(dense, truth));
}

TEST(Contingency, PairCounts) {
  const std::vector<int> a = {0, 0, 1, 1, 1};
  const std::vector<int> b = {0, 1, 1, 1, 0};
  const Contingency ct(a, b);
  EXPECT_EQ(ct.pairs_in_cells(), choose2(2));          // only the 2-cell
  EXPECT_EQ(ct.pairs_in_rows(), choose2(2) + choose2(3));
  EXPECT_EQ(ct.pairs_in_cols(), choose2(2) + choose2(3));
}

TEST(Contingency, Validation) {
  EXPECT_THROW(Contingency({}, {}), std::invalid_argument);
  EXPECT_THROW(Contingency({0, 1}, {0}), std::invalid_argument);
  EXPECT_THROW(Contingency({0, -1}, {0, 0}), std::invalid_argument);
}

// --- ACC ----------------------------------------------------------------------

TEST(Accuracy, PerfectAndPermuted) {
  const std::vector<int> truth = {0, 0, 1, 1, 2, 2};
  EXPECT_DOUBLE_EQ(accuracy(truth, truth), 1.0);
  // Relabelled clustering is still perfect.
  const std::vector<int> permuted = {2, 2, 0, 0, 1, 1};
  EXPECT_DOUBLE_EQ(accuracy(permuted, truth), 1.0);
}

TEST(Accuracy, HandComputed) {
  // clusters: {0,0,0,1}, truth: {0,1,0,1} -> best matching maps cluster0->0
  // (2 hits) and cluster1->1 (1 hit): ACC = 3/4.
  const std::vector<int> pred = {0, 0, 0, 1};
  const std::vector<int> truth = {0, 1, 0, 1};
  EXPECT_DOUBLE_EQ(accuracy(pred, truth), 0.75);
}

TEST(Accuracy, MoreClustersThanClasses) {
  // Each extra cluster can match at most one class; split clusters lose.
  const std::vector<int> pred = {0, 1, 2, 3};
  const std::vector<int> truth = {0, 0, 1, 1};
  // Best: two of the four singleton clusters map to the two classes -> 2/4.
  EXPECT_DOUBLE_EQ(accuracy(pred, truth), 0.5);
}

TEST(Accuracy, FewerClustersThanClasses) {
  const std::vector<int> pred = {0, 0, 0, 0};
  const std::vector<int> truth = {0, 1, 2, 3};
  EXPECT_DOUBLE_EQ(accuracy(pred, truth), 0.25);
}

// --- ARI ---------------------------------------------------------------------

TEST(Ari, IdenticalIsOne) {
  const std::vector<int> a = {0, 0, 1, 1, 2, 2};
  EXPECT_DOUBLE_EQ(adjusted_rand_index(a, a), 1.0);
}

TEST(Ari, KnownSklearnValue) {
  // sklearn.metrics.adjusted_rand_score([0,0,1,1],[0,0,1,2]) = 0.5714285...
  const std::vector<int> a = {0, 0, 1, 1};
  const std::vector<int> b = {0, 0, 1, 2};
  EXPECT_NEAR(adjusted_rand_index(a, b), 0.5714285714285714, 1e-12);
}

TEST(Ari, SymmetricAndLabelPermutationInvariant) {
  const std::vector<int> a = {0, 0, 1, 2, 2, 1, 0};
  const std::vector<int> b = {1, 1, 0, 0, 2, 2, 1};
  EXPECT_DOUBLE_EQ(adjusted_rand_index(a, b), adjusted_rand_index(b, a));
  std::vector<int> a_relabel = a;
  for (int& x : a_relabel) x = (x + 1) % 3;
  EXPECT_DOUBLE_EQ(adjusted_rand_index(a_relabel, b),
                   adjusted_rand_index(a, b));
}

TEST(Ari, TrivialPartitionsAreOne) {
  // Both partitions put everything in one cluster: identical -> 1.
  const std::vector<int> ones = {0, 0, 0, 0};
  EXPECT_DOUBLE_EQ(adjusted_rand_index(ones, ones), 1.0);
}

TEST(Ari, CanBeNegative) {
  // Anti-correlated structure scores below chance.
  const std::vector<int> a = {0, 1, 0, 1};
  const std::vector<int> b = {0, 0, 1, 1};
  EXPECT_LT(adjusted_rand_index(a, b), 0.0 + 1e-12);
}

// --- AMI ------------------------------------------------------------------------

TEST(Ami, IdenticalIsOne) {
  const std::vector<int> a = {0, 0, 1, 1, 2, 2};
  EXPECT_NEAR(adjusted_mutual_information(a, a), 1.0, 1e-12);
}

TEST(Ami, KnownHandDerivedValue) {
  // For a=[0,0,1,1], b=[0,0,1,2]: MI = ln2, EMI = (8/12) ln2,
  // mean(Ha, Hb) = (15/12) ln2, so AMI = (4/12)/(7/12) = 4/7.
  const std::vector<int> a = {0, 0, 1, 1};
  const std::vector<int> b = {0, 0, 1, 2};
  EXPECT_NEAR(adjusted_mutual_information(a, b), 4.0 / 7.0, 1e-12);
}

TEST(Ami, IndependentNearZero) {
  // Balanced independent partitions over many objects.
  std::vector<int> a;
  std::vector<int> b;
  Rng rng(5);
  for (int i = 0; i < 2000; ++i) {
    a.push_back(static_cast<int>(rng.below(3)));
    b.push_back(static_cast<int>(rng.below(3)));
  }
  EXPECT_NEAR(adjusted_mutual_information(a, b), 0.0, 0.02);
}

TEST(Ami, BothTrivialIsOne) {
  const std::vector<int> ones = {0, 0, 0};
  EXPECT_DOUBLE_EQ(adjusted_mutual_information(ones, ones), 1.0);
}

// --- Fowlkes-Mallows -----------------------------------------------------------

TEST(FowlkesMallows, IdenticalIsOne) {
  const std::vector<int> a = {0, 0, 1, 1, 2, 2};
  EXPECT_DOUBLE_EQ(score_all(a, a).fm, 1.0);
}

TEST(FowlkesMallows, KnownSklearnValue) {
  // sklearn.metrics.fowlkes_mallows_score([0,0,1,1],[0,0,1,2]) = 0.7071067...
  const std::vector<int> a = {0, 0, 1, 1};
  const std::vector<int> b = {0, 0, 1, 2};
  EXPECT_NEAR(score_all(a, b).fm, 0.7071067811865476, 1e-12);
}

TEST(FowlkesMallows, AllSingletonsIsZero) {
  const std::vector<int> a = {0, 1, 2, 3};
  const std::vector<int> b = {0, 0, 1, 1};
  EXPECT_DOUBLE_EQ(score_all(a, b).fm, 0.0);
}

// --- score_all -----------------------------------------------------------------

TEST(ScoreAll, BundlesTheFourIndices) {
  const std::vector<int> pred = {0, 0, 1, 1};
  const std::vector<int> truth = {0, 0, 1, 2};
  const Scores s = score_all(pred, truth);
  EXPECT_DOUBLE_EQ(s.acc, accuracy(pred, truth));
  EXPECT_DOUBLE_EQ(s.ari, adjusted_rand_index(pred, truth));
  EXPECT_DOUBLE_EQ(s.ami, adjusted_mutual_information(pred, truth));
}

// --- Property sweeps ------------------------------------------------------------

class MetricProperties : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  void SetUp() override {
    Rng rng(GetParam());
    const std::size_t n = 60 + rng.below(60);
    const int ka = 2 + static_cast<int>(rng.below(4));
    const int kb = 2 + static_cast<int>(rng.below(4));
    for (std::size_t i = 0; i < n; ++i) {
      a_.push_back(static_cast<int>(rng.below(static_cast<std::uint64_t>(ka))));
      b_.push_back(static_cast<int>(rng.below(static_cast<std::uint64_t>(kb))));
    }
    // Guarantee density of label ids (gtest param datasets may miss one).
    a_[0] = 0;
    b_[0] = 0;
  }
  std::vector<int> a_;
  std::vector<int> b_;
};

TEST_P(MetricProperties, Bounds) {
  EXPECT_GE(accuracy(a_, b_), 0.0);
  EXPECT_LE(accuracy(a_, b_), 1.0);
  EXPECT_GE(adjusted_rand_index(a_, b_), -1.0);
  EXPECT_LE(adjusted_rand_index(a_, b_), 1.0);
  EXPECT_LE(adjusted_mutual_information(a_, b_), 1.0 + 1e-9);
  EXPECT_GE(score_all(a_, b_).fm, 0.0);
  EXPECT_LE(score_all(a_, b_).fm, 1.0);
}

TEST_P(MetricProperties, Symmetry) {
  EXPECT_NEAR(adjusted_rand_index(a_, b_), adjusted_rand_index(b_, a_), 1e-12);
  EXPECT_NEAR(adjusted_mutual_information(a_, b_),
              adjusted_mutual_information(b_, a_), 1e-9);
  EXPECT_NEAR(score_all(a_, b_).fm, score_all(b_, a_).fm, 1e-12);
}

TEST_P(MetricProperties, SelfComparisonIsPerfect) {
  EXPECT_DOUBLE_EQ(accuracy(a_, a_), 1.0);
  EXPECT_DOUBLE_EQ(adjusted_rand_index(a_, a_), 1.0);
  EXPECT_NEAR(adjusted_mutual_information(a_, a_), 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(score_all(a_, a_).fm, 1.0);
}

TEST_P(MetricProperties, LabelPermutationInvariance) {
  // Swap ids 0 <-> 1 in the prediction; every index must be unchanged.
  std::vector<int> swapped = a_;
  for (int& x : swapped) {
    if (x == 0) {
      x = 1;
    } else if (x == 1) {
      x = 0;
    }
  }
  EXPECT_NEAR(accuracy(swapped, b_), accuracy(a_, b_), 1e-12);
  EXPECT_NEAR(adjusted_rand_index(swapped, b_), adjusted_rand_index(a_, b_),
              1e-12);
  EXPECT_NEAR(adjusted_mutual_information(swapped, b_),
              adjusted_mutual_information(a_, b_), 1e-9);
  EXPECT_NEAR(score_all(swapped, b_).fm, score_all(a_, b_).fm, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MetricProperties,
                         ::testing::Range<std::uint64_t>(1, 13));

// --- AMI against the definition, bit for bit ------------------------------

// Expected mutual information straight from the hypergeometric model, one
// lgamma per factorial per term: the loop the library's tabulated version
// must reproduce exactly.
double reference_emi(const Contingency& ct) {
  const auto n = static_cast<double>(ct.total());
  const auto log_n = std::log(n);
  auto lf = [](double x) { return std::lgamma(x + 1.0); };
  double emi = 0.0;
  for (std::int64_t ai : ct.row_sums()) {
    if (ai == 0) continue;
    for (std::int64_t bj : ct.col_sums()) {
      if (bj == 0) continue;
      const std::int64_t lo = std::max<std::int64_t>(1, ai + bj - ct.total());
      const std::int64_t hi = std::min(ai, bj);
      for (std::int64_t nij = lo; nij <= hi; ++nij) {
        const auto x = static_cast<double>(nij);
        const auto a = static_cast<double>(ai);
        const auto b = static_cast<double>(bj);
        const double term1 =
            x / n * (std::log(x) + log_n - std::log(a) - std::log(b));
        const double log_prob = lf(a) + lf(b) + lf(n - a) + lf(n - b) -
                                lf(n) - lf(x) - lf(a - x) - lf(b - x) -
                                lf(n - a - b + x);
        emi += term1 * std::exp(log_prob);
      }
    }
  }
  return emi;
}

double reference_entropy(const std::vector<std::int64_t>& sums, double n) {
  double h = 0.0;
  for (std::int64_t s : sums) {
    if (s <= 0) continue;
    const double p = static_cast<double>(s) / n;
    h -= p * std::log(p);
  }
  return h;
}

// AMI with arithmetic-mean normalisation, from the definition.
double reference_ami(const std::vector<int>& a, const std::vector<int>& b) {
  const Contingency ct(a, b);
  const auto n = static_cast<double>(ct.total());
  const double ha = reference_entropy(ct.row_sums(), n);
  const double hb = reference_entropy(ct.col_sums(), n);
  if (ha == 0.0 && hb == 0.0) return 1.0;
  double mi = 0.0;
  for (std::size_t i = 0; i < ct.rows(); ++i) {
    for (std::size_t j = 0; j < ct.cols(); ++j) {
      const auto nij = static_cast<double>(ct.at(i, j));
      if (nij == 0.0) continue;
      const auto ai = static_cast<double>(ct.row_sums()[i]);
      const auto bj = static_cast<double>(ct.col_sums()[j]);
      mi += nij / n * std::log(n * nij / (ai * bj));
    }
  }
  mi = std::max(0.0, mi);
  const double emi = reference_emi(ct);
  const double denom = 0.5 * (ha + hb) - emi;
  if (std::abs(denom) < 1e-15) return 0.0;
  return (mi - emi) / denom;
}

// Labels over [0, k) with ids left unused at random, skewed so that one id
// can hold most of the objects (margins with a_i + b_j > n).
std::vector<int> draw_labels(Rng& rng, std::size_t n, int k, double skew) {
  std::vector<int> labels(n);
  for (int& l : labels) {
    l = rng.bernoulli(skew)
            ? 0
            : static_cast<int>(rng.below(static_cast<std::uint64_t>(k)));
  }
  return labels;
}

TEST(AmiReference, SeededSweepIsBitIdentical) {
  Rng rng(2024);
  int cases = 0;
  int shifted_ranges = 0;  // cases with some pair whose n_ij range starts > 1
  for (int c = 0; c < 400; ++c) {
    // n = 1 and 2 recur; otherwise small tables up to a few hundred rows.
    std::size_t n = 3 + rng.below(c % 4 == 0 ? 400 : 60);
    if (c % 20 < 2) n = static_cast<std::size_t>(1 + c % 20);
    const int ka = 1 + static_cast<int>(rng.below(8));
    const int kb = 1 + static_cast<int>(rng.below(8));
    const double skew = rng.uniform(0.0, 0.9);
    const std::vector<int> a = draw_labels(rng, n, ka, skew);
    const std::vector<int> b = draw_labels(rng, n, kb, rng.uniform(0.0, 0.9));
    const Contingency ct(a, b);
    bool shifted = false;
    for (std::int64_t ai : ct.row_sums()) {
      for (std::int64_t bj : ct.col_sums()) {
        shifted = shifted || ai + bj - ct.total() > 1;
      }
    }
    shifted_ranges += shifted ? 1 : 0;
    const double expected = reference_ami(a, b);
    EXPECT_EQ(adjusted_mutual_information(a, b), expected) << "case " << c;
    const Scores s = score_all(a, b);
    EXPECT_EQ(s.ami, expected) << "case " << c;
    EXPECT_EQ(s.acc, accuracy(a, b)) << "case " << c;
    EXPECT_EQ(s.ari, adjusted_rand_index(a, b)) << "case " << c;
    ++cases;
  }
  EXPECT_EQ(cases, 400);
  EXPECT_GT(shifted_ranges, 40) << "sweep must cover a_i + b_j > n";
}

}  // namespace
}  // namespace mcdc::metrics

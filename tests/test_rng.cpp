// Unit and property tests for the deterministic RNG substrate.
#include "common/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>

namespace mcdc {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, ZeroSeedIsValid) {
  Rng rng(0);
  // Must not lock at zero.
  bool any_nonzero = false;
  for (int i = 0; i < 16; ++i) {
    if (rng() != 0) any_nonzero = true;
  }
  EXPECT_TRUE(any_nonzero);
}

TEST(Rng, BelowRespectsBound) {
  Rng rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 17ULL, 1000ULL}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.below(bound), bound);
    }
  }
}

TEST(Rng, BelowOneAlwaysZero) {
  Rng rng(9);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(rng.below(1), 0u);
  }
}

TEST(Rng, BelowZeroThrows) {
  Rng rng(9);
  EXPECT_THROW(rng.below(0), std::invalid_argument);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(13);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, UniformRange) {
  Rng rng(17);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(23);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, WeightedIndexFollowsWeights) {
  Rng rng(29);
  std::vector<double> w = {1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  const int n = 40000;
  for (int i = 0; i < n; ++i) {
    ++counts[rng.weighted_index(w)];
  }
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[0]) / n, 0.25, 0.02);
  EXPECT_NEAR(static_cast<double>(counts[2]) / n, 0.75, 0.02);
}

TEST(Rng, WeightedIndexDegenerateWeights) {
  Rng rng(31);
  std::vector<double> w = {0.0, 0.0};
  EXPECT_EQ(rng.weighted_index(w), 1u);  // documented fallback: last index
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(37);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  auto original = v;
  rng.shuffle(v);
  auto sorted = v;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, original);
  EXPECT_NE(v, original);  // astronomically unlikely to be identity
}

TEST(Rng, SampleWithoutReplacementDistinctAndInRange) {
  Rng rng(41);
  const auto sample = rng.sample_without_replacement(50, 20);
  EXPECT_EQ(sample.size(), 20u);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 20u);
  for (std::size_t s : sample) EXPECT_LT(s, 50u);
}

TEST(Rng, SampleWholePopulation) {
  Rng rng(43);
  const auto sample = rng.sample_without_replacement(10, 10);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
}

TEST(Rng, SampleTooLargeThrows) {
  Rng rng(47);
  EXPECT_THROW(rng.sample_without_replacement(5, 6), std::invalid_argument);
}

// Property sweep: bounded generation is unbiased enough across seeds that
// every bucket of a small modulus is hit.
class RngSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngSeedSweep, BelowHitsAllBuckets) {
  Rng rng(GetParam());
  std::vector<int> counts(7, 0);
  for (int i = 0; i < 7000; ++i) {
    ++counts[rng.below(7)];
  }
  for (int c : counts) {
    EXPECT_GT(c, 700);  // expectation 1000, generous slack
  }
}

TEST_P(RngSeedSweep, ReseedReproduces) {
  Rng rng(GetParam());
  std::vector<std::uint64_t> first;
  for (int i = 0; i < 20; ++i) first.push_back(rng());
  rng.reseed(GetParam());
  for (int i = 0; i < 20; ++i) EXPECT_EQ(rng(), first[static_cast<std::size_t>(i)]);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngSeedSweep,
                         ::testing::Values(0ULL, 1ULL, 42ULL, 12345ULL,
                                           0xffffffffffffffffULL));

}  // namespace
}  // namespace mcdc

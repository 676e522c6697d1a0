// Statistics tests: mid-ranks, Wilcoxon signed-rank (exact + approximate
// paths, values cross-checked against R's wilcox.test), run summaries.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "stats/ranks.h"
#include "stats/summary.h"
#include "stats/wilcoxon.h"

namespace mcdc::stats {
namespace {

// --- midranks -----------------------------------------------------------------

TEST(Midranks, NoTies) {
  const std::vector<double> v = {10.0, 30.0, 20.0};
  EXPECT_EQ(midranks(v), (std::vector<double>{1.0, 3.0, 2.0}));
}

TEST(Midranks, TiesShareAverageRank) {
  const std::vector<double> v = {3.0, 1.0, 3.0, 2.0};
  EXPECT_EQ(midranks(v), (std::vector<double>{3.5, 1.0, 3.5, 2.0}));
}

TEST(Midranks, AllEqual) {
  const std::vector<double> v = {7.0, 7.0, 7.0};
  EXPECT_EQ(midranks(v), (std::vector<double>{2.0, 2.0, 2.0}));
}

TEST(Midranks, Empty) { EXPECT_TRUE(midranks({}).empty()); }

// --- Wilcoxon: exact path -------------------------------------------------------

TEST(Wilcoxon, AllPositiveFivePairs) {
  // R: wilcox.test(c(1,2,3,4,5)) -> V = 15, p = 0.0625.
  const auto r = wilcoxon_signed_rank({1.0, 2.0, 3.0, 4.0, 5.0});
  EXPECT_TRUE(r.exact);
  EXPECT_EQ(r.n_effective, 5u);
  EXPECT_DOUBLE_EQ(r.w_plus, 15.0);
  EXPECT_DOUBLE_EQ(r.w_minus, 0.0);
  EXPECT_DOUBLE_EQ(r.statistic, 0.0);
  EXPECT_NEAR(r.p_value, 0.0625, 1e-12);
}

TEST(Wilcoxon, MixedSignsExact) {
  // R: wilcox.test(c(1,-2,3,-4,5)) -> V = 9, p = 0.8125.
  const auto r = wilcoxon_signed_rank({1.0, -2.0, 3.0, -4.0, 5.0});
  EXPECT_TRUE(r.exact);
  EXPECT_DOUBLE_EQ(r.w_plus, 9.0);
  EXPECT_DOUBLE_EQ(r.w_minus, 6.0);
  EXPECT_NEAR(r.p_value, 0.8125, 1e-12);
}

TEST(Wilcoxon, EightConsistentPairsRejectAtTenPercent) {
  // R: wilcox.test on 8 positive distinct differences -> p = 2/256.
  const std::vector<double> a = {2, 4, 6, 8, 10, 12, 14, 16};
  const std::vector<double> b = {1, 2, 3, 4, 5, 6, 7, 8};
  const auto r = wilcoxon_signed_rank(a, b);
  EXPECT_TRUE(r.exact);
  EXPECT_NEAR(r.p_value, 0.0078125, 1e-12);
  EXPECT_LT(r.p_value, 0.1);
}

TEST(Wilcoxon, ZeroDifferencesDropped) {
  const auto r = wilcoxon_signed_rank({0.0, 0.0, 1.0, -2.0});
  EXPECT_EQ(r.n_effective, 2u);
}

TEST(Wilcoxon, AllZeroDifferencesIsNull) {
  const auto r = wilcoxon_signed_rank({0.0, 0.0, 0.0});
  EXPECT_EQ(r.n_effective, 0u);
  EXPECT_DOUBLE_EQ(r.p_value, 1.0);
}

TEST(Wilcoxon, SignFlipSymmetry) {
  const std::vector<double> d = {1.5, -2.0, 3.0, 4.0, -0.5, 2.5};
  std::vector<double> neg = d;
  for (double& x : neg) x = -x;
  const auto r1 = wilcoxon_signed_rank(d);
  const auto r2 = wilcoxon_signed_rank(neg);
  EXPECT_DOUBLE_EQ(r1.p_value, r2.p_value);
  EXPECT_DOUBLE_EQ(r1.w_plus, r2.w_minus);
}

// --- Wilcoxon: tie-corrected normal path ----------------------------------------

TEST(Wilcoxon, TiesUseNormalApproximation) {
  // |d| = {1,1,1,2}: mid-ranks 2,2,2,4; W = 2; var with tie correction 7.0;
  // z = (2 - 5 + 0.5)/sqrt(7) -> two-tailed p ~ 0.3447.
  const auto r = wilcoxon_signed_rank({1.0, 1.0, -1.0, 2.0});
  EXPECT_FALSE(r.exact);
  EXPECT_DOUBLE_EQ(r.statistic, 2.0);
  EXPECT_NEAR(r.p_value, 0.3447, 5e-4);
}

TEST(Wilcoxon, LargeSampleUsesNormalApproximation) {
  std::vector<double> d;
  for (int i = 1; i <= 30; ++i) {
    d.push_back(i % 4 == 0 ? -i : i);  // mostly positive
  }
  const auto r = wilcoxon_signed_rank(d);
  EXPECT_FALSE(r.exact);
  EXPECT_LT(r.p_value, 0.05);
}

TEST(Wilcoxon, LengthMismatchThrows) {
  EXPECT_THROW(wilcoxon_signed_rank({1.0}, {1.0, 2.0}), std::invalid_argument);
}

TEST(Wilcoxon, PValueIsProbability) {
  for (std::uint64_t seed = 1; seed < 20; ++seed) {
    std::vector<double> d;
    for (int i = 0; i < 12; ++i) {
      d.push_back(std::sin(static_cast<double>(seed * 31 + i) * 12.9898) * 10);
    }
    const auto r = wilcoxon_signed_rank(d);
    EXPECT_GE(r.p_value, 0.0);
    EXPECT_LE(r.p_value, 1.0);
  }
}

// --- RunningStats ----------------------------------------------------------------

TEST(RunningStats, MeanStdMinMax) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);  // classic population-stddev example
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(3.5);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

}  // namespace
}  // namespace mcdc::stats

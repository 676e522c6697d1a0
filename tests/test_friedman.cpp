// Tests for the Friedman / Iman-Davenport / Nemenyi machinery and the
// special functions behind their p-values.
#include "stats/friedman.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "stats/special.h"

namespace mcdc::stats {
namespace {

// --- Special functions ---------------------------------------------------------

TEST(Special, ChiSquareKnownValues) {
  // chi2 survival values cross-checked with R: pchisq(q, df, lower=FALSE).
  EXPECT_NEAR(chi_square_sf(3.841459, 1.0), 0.05, 1e-6);
  EXPECT_NEAR(chi_square_sf(5.991465, 2.0), 0.05, 1e-6);
  EXPECT_NEAR(chi_square_sf(9.487729, 4.0), 0.05, 1e-6);
  EXPECT_NEAR(chi_square_sf(0.0, 3.0), 1.0, 1e-12);
}

TEST(Special, FDistributionKnownValues) {
  // P(F(2, 10) > 4) has the closed form (df2/(df2 + df1*q))^(df2/2)
  // = (10/18)^5 = 0.052922...
  EXPECT_NEAR(f_sf(4.0, 2.0, 10.0), std::pow(5.0 / 9.0, 5.0), 1e-9);
  EXPECT_NEAR(f_sf(1.0, 5.0, 5.0), 0.5, 1e-9);
  EXPECT_NEAR(f_sf(0.0, 3.0, 7.0), 1.0, 1e-12);
}

TEST(Special, IncompleteGammaBounds) {
  EXPECT_DOUBLE_EQ(reg_lower_gamma(2.0, 0.0), 0.0);
  EXPECT_NEAR(reg_lower_gamma(1.0, 50.0), 1.0, 1e-12);
  // P(1, x) = 1 - exp(-x).
  EXPECT_NEAR(reg_lower_gamma(1.0, 2.0), 1.0 - std::exp(-2.0), 1e-12);
}

TEST(Special, IncompleteBetaSymmetry) {
  // I_x(a, b) = 1 - I_{1-x}(b, a).
  for (double x : {0.1, 0.3, 0.5, 0.8}) {
    EXPECT_NEAR(reg_incomplete_beta(2.0, 3.0, x),
                1.0 - reg_incomplete_beta(3.0, 2.0, 1.0 - x), 1e-12);
  }
}

TEST(Special, InvalidArgumentsThrow) {
  EXPECT_THROW(chi_square_sf(1.0, 0.0), std::invalid_argument);
  EXPECT_THROW(f_sf(1.0, -1.0, 2.0), std::invalid_argument);
  EXPECT_THROW(reg_lower_gamma(-1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(reg_incomplete_beta(0.0, 1.0, 0.5), std::invalid_argument);
}

// --- Friedman test ---------------------------------------------------------------

TEST(Friedman, TextbookExample) {
  // Demsar (2006) Table 6 format: 4 methods on 6 datasets. Rank-1 method
  // clearly best throughout; the test must reject.
  const std::vector<std::vector<double>> scores = {
      {0.90, 0.91, 0.88, 0.93, 0.92, 0.95},  // consistently best
      {0.80, 0.82, 0.79, 0.83, 0.84, 0.85},
      {0.70, 0.71, 0.72, 0.69, 0.73, 0.74},
      {0.60, 0.59, 0.61, 0.58, 0.62, 0.63},
  };
  const auto result = friedman_test(scores);
  EXPECT_EQ(result.num_methods, 4u);
  EXPECT_EQ(result.num_datasets, 6u);
  // Perfectly consistent ranking: average ranks 1, 2, 3, 4.
  EXPECT_DOUBLE_EQ(result.average_ranks[0], 1.0);
  EXPECT_DOUBLE_EQ(result.average_ranks[3], 4.0);
  // chi2 = 12*6/(4*5) * (30 - 4*25/4) = 3.6 * 5 = 18.
  EXPECT_NEAR(result.chi_square, 18.0, 1e-9);
  EXPECT_LT(result.p_value, 0.001);
  EXPECT_LT(result.iman_davenport_p, 0.001);
}

TEST(Friedman, NoDifferenceDoesNotReject) {
  // Methods trade wins evenly; ranks average out.
  const std::vector<std::vector<double>> scores = {
      {0.9, 0.1, 0.9, 0.1},
      {0.1, 0.9, 0.1, 0.9},
  };
  const auto result = friedman_test(scores);
  EXPECT_DOUBLE_EQ(result.average_ranks[0], 1.5);
  EXPECT_DOUBLE_EQ(result.average_ranks[1], 1.5);
  EXPECT_NEAR(result.chi_square, 0.0, 1e-9);
  EXPECT_GT(result.p_value, 0.9);
}

TEST(Friedman, TiesGetMidranks) {
  const std::vector<std::vector<double>> scores = {
      {0.5, 0.7},
      {0.5, 0.6},
      {0.4, 0.5},
  };
  const auto result = friedman_test(scores);
  // Dataset 0: methods 0 and 1 tie for best -> rank 1.5 each; method 2
  // rank 3. Dataset 1: ranks 1, 2, 3.
  EXPECT_DOUBLE_EQ(result.average_ranks[0], (1.5 + 1.0) / 2.0);
  EXPECT_DOUBLE_EQ(result.average_ranks[1], (1.5 + 2.0) / 2.0);
  EXPECT_DOUBLE_EQ(result.average_ranks[2], 3.0);
}

TEST(Friedman, AverageRanksSumInvariant) {
  // Sum of average ranks is always M(M+1)/2.
  const std::vector<std::vector<double>> scores = {
      {0.1, 0.8, 0.3}, {0.9, 0.2, 0.4}, {0.5, 0.5, 0.5}, {0.7, 0.1, 0.9}};
  const auto result = friedman_test(scores);
  double sum = 0.0;
  for (double r : result.average_ranks) sum += r;
  EXPECT_NEAR(sum, 4.0 * 5.0 / 2.0, 1e-9);
}

TEST(Friedman, InvalidInputsThrow) {
  EXPECT_THROW(friedman_test({{0.5, 0.6}}), std::invalid_argument);
  EXPECT_THROW(friedman_test({{0.5}, {0.5, 0.6}}), std::invalid_argument);
  EXPECT_THROW(friedman_test({{}, {}}), std::invalid_argument);
}

// --- Nemenyi ----------------------------------------------------------------------

TEST(Nemenyi, CriticalValuesFromDemsarTable) {
  // q_0.05 / sqrt(2) for k = 2 is z_{0.025} = 1.96.
  EXPECT_NEAR(nemenyi_critical_value(2, 0.05), 1.960, 1e-3);
  EXPECT_NEAR(nemenyi_critical_value(10, 0.05), 3.164, 1e-3);
  EXPECT_NEAR(nemenyi_critical_value(2, 0.10), 1.645, 1e-3);
  EXPECT_THROW(nemenyi_critical_value(1, 0.05), std::invalid_argument);
  EXPECT_THROW(nemenyi_critical_value(25, 0.05), std::invalid_argument);
  EXPECT_THROW(nemenyi_critical_value(5, 0.01), std::invalid_argument);
}

TEST(Nemenyi, CdFormula) {
  // Demsar's example: k = 5 methods, N = 30 datasets, alpha = 0.05:
  // CD = 2.728 * sqrt(5*6 / (6*30)) = 1.113.
  FriedmanResult friedman;
  friedman.num_methods = 5;
  friedman.num_datasets = 30;
  friedman.average_ranks = {1.0, 2.0, 3.0, 4.0, 5.0};
  const auto nemenyi = nemenyi_post_hoc(friedman, 0.05);
  EXPECT_NEAR(nemenyi.critical_difference, 1.1134, 1e-3);
  // Ranks 1 vs 2 differ by 1.0 < CD -> not significant; 1 vs 3 by 2 > CD.
  EXPECT_FALSE(nemenyi.significant[0][1]);
  EXPECT_TRUE(nemenyi.significant[0][2]);
  // Symmetry of the decision matrix.
  for (std::size_t a = 0; a < 5; ++a) {
    for (std::size_t b = 0; b < 5; ++b) {
      EXPECT_EQ(nemenyi.significant[a][b], nemenyi.significant[b][a]);
    }
  }
}

}  // namespace
}  // namespace mcdc::stats

// Special functions backing the distribution tails used by the statistical
// tests: regularised incomplete gamma / beta, and the chi-square and F
// survival functions built on them. Implemented here (series +
// continued fractions, Numerical-Recipes style) so p-values do not depend
// on platform-specific library extensions.
#pragma once

namespace mcdc::stats {

// Regularised lower incomplete gamma P(a, x), a > 0, x >= 0. Range [0, 1].
double reg_lower_gamma(double a, double x);

// Regularised incomplete beta I_x(a, b), a, b > 0, x in [0, 1].
double reg_incomplete_beta(double a, double b, double x);

// P(X > x) for X ~ chi-square with df degrees of freedom.
double chi_square_sf(double x, double df);

// P(X > x) for X ~ F(df1, df2), x >= 0.
double f_sf(double x, double df1, double df2);
}  // namespace mcdc::stats

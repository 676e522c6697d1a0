#include "stats/special.h"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace mcdc::stats {

namespace {

constexpr int kMaxIterations = 500;
constexpr double kEpsilon = 1e-14;
constexpr double kTiny = 1e-300;

// Series expansion of P(a, x), valid/fast for x < a + 1.
double gamma_series(double a, double x) {
  double ap = a;
  double sum = 1.0 / a;
  double term = sum;
  for (int i = 0; i < kMaxIterations; ++i) {
    ap += 1.0;
    term *= x / ap;
    sum += term;
    if (std::fabs(term) < std::fabs(sum) * kEpsilon) break;
  }
  return sum * std::exp(-x + a * std::log(x) - std::lgamma(a));
}

// Continued fraction for Q(a, x) = 1 - P(a, x), valid/fast for x >= a + 1.
double gamma_cont_fraction(double a, double x) {
  double b = x + 1.0 - a;
  double c = 1.0 / kTiny;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i <= kMaxIterations; ++i) {
    const double an = -static_cast<double>(i) * (static_cast<double>(i) - a);
    b += 2.0;
    d = an * d + b;
    if (std::fabs(d) < kTiny) d = kTiny;
    c = b + an / c;
    if (std::fabs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    const double delta = d * c;
    h *= delta;
    if (std::fabs(delta - 1.0) < kEpsilon) break;
  }
  return h * std::exp(-x + a * std::log(x) - std::lgamma(a));
}

// Continued fraction for the incomplete beta (Lentz's algorithm).
double beta_cont_fraction(double a, double b, double x) {
  const double qab = a + b;
  const double qap = a + 1.0;
  const double qam = a - 1.0;
  double c = 1.0;
  double d = 1.0 - qab * x / qap;
  if (std::fabs(d) < kTiny) d = kTiny;
  d = 1.0 / d;
  double h = d;
  for (int m = 1; m <= kMaxIterations; ++m) {
    const double m2 = 2.0 * m;
    double aa = m * (b - m) * x / ((qam + m2) * (a + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kTiny) d = kTiny;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    h *= d * c;
    aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kTiny) d = kTiny;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    const double delta = d * c;
    h *= delta;
    if (std::fabs(delta - 1.0) < kEpsilon) break;
  }
  return h;
}

}  // namespace

double reg_lower_gamma(double a, double x) {
  if (a <= 0.0 || x < 0.0) {
    throw std::invalid_argument("reg_lower_gamma: need a > 0, x >= 0");
  }
  if (x == 0.0) return 0.0;
  if (x < a + 1.0) return gamma_series(a, x);
  return 1.0 - gamma_cont_fraction(a, x);
}

double reg_incomplete_beta(double a, double b, double x) {
  if (a <= 0.0 || b <= 0.0) {
    throw std::invalid_argument("reg_incomplete_beta: need a, b > 0");
  }
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  const double ln_front = std::lgamma(a + b) - std::lgamma(a) -
                          std::lgamma(b) + a * std::log(x) +
                          b * std::log1p(-x);
  const double front = std::exp(ln_front);
  // Use the expansion that converges fastest.
  if (x < (a + 1.0) / (a + b + 2.0)) {
    return front * beta_cont_fraction(a, b, x) / a;
  }
  return 1.0 - front * beta_cont_fraction(b, a, 1.0 - x) / b;
}

double chi_square_sf(double x, double df) {
  if (df <= 0.0) throw std::invalid_argument("chi_square_sf: need df > 0");
  if (x <= 0.0) return 1.0;
  return 1.0 - reg_lower_gamma(df / 2.0, x / 2.0);
}

double f_sf(double x, double df1, double df2) {
  if (df1 <= 0.0 || df2 <= 0.0) {
    throw std::invalid_argument("f_sf: need df1, df2 > 0");
  }
  if (x <= 0.0) return 1.0;
  // P(F > x) = I_{df2 / (df2 + df1 x)}(df2/2, df1/2).
  return reg_incomplete_beta(df2 / 2.0, df1 / 2.0, df2 / (df2 + df1 * x));
}

}  // namespace mcdc::stats

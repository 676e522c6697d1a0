#include "stats/wilcoxon.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "stats/ranks.h"

namespace mcdc::stats {

namespace {

// P(W+ <= w) under H0 for n untied pairs, by DP over the exact null
// distribution. counts[s] = number of sign assignments with rank-sum s.
double exact_cdf(std::size_t n, double w) {
  const std::size_t max_sum = n * (n + 1) / 2;
  std::vector<double> counts(max_sum + 1, 0.0);
  counts[0] = 1.0;
  for (std::size_t rank = 1; rank <= n; ++rank) {
    for (std::size_t s = max_sum + 1; s-- > rank;) {
      counts[s] += counts[s - rank];
    }
  }
  double below = 0.0;
  double total = 0.0;
  for (std::size_t s = 0; s <= max_sum; ++s) {
    total += counts[s];
    if (static_cast<double>(s) <= w + 1e-12) below += counts[s];
  }
  return below / total;
}

double normal_cdf(double z) { return 0.5 * std::erfc(-z / std::sqrt(2.0)); }

}  // namespace

WilcoxonResult wilcoxon_signed_rank(const std::vector<double>& a,
                                    const std::vector<double>& b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("wilcoxon_signed_rank: length mismatch");
  }
  std::vector<double> diffs(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) diffs[i] = a[i] - b[i];
  return wilcoxon_signed_rank(diffs);
}

WilcoxonResult wilcoxon_signed_rank(const std::vector<double>& differences) {
  WilcoxonResult result;

  std::vector<double> abs_diffs;
  std::vector<int> signs;
  for (double d : differences) {
    if (d == 0.0) continue;
    abs_diffs.push_back(std::abs(d));
    signs.push_back(d > 0.0 ? 1 : -1);
  }
  const std::size_t n = abs_diffs.size();
  result.n_effective = n;
  if (n == 0) {
    // All pairs identical: no evidence of any difference.
    result.p_value = 1.0;
    return result;
  }

  const std::vector<double> ranks = midranks(abs_diffs);
  for (std::size_t i = 0; i < n; ++i) {
    if (signs[i] > 0) {
      result.w_plus += ranks[i];
    } else {
      result.w_minus += ranks[i];
    }
  }
  result.statistic = std::min(result.w_plus, result.w_minus);

  // Detect ties among |differences| (any duplicated magnitude); a tie group
  // of odd size still yields integral mid-ranks, so inspect values, not
  // ranks.
  bool has_ties = false;
  {
    std::vector<double> sorted = abs_diffs;
    std::sort(sorted.begin(), sorted.end());
    for (std::size_t i = 0; i + 1 < n; ++i) {
      if (sorted[i] == sorted[i + 1]) {
        has_ties = true;
        break;
      }
    }
  }

  if (n <= 25 && !has_ties) {
    result.exact = true;
    const double cdf = exact_cdf(n, result.statistic);
    result.p_value = std::min(1.0, 2.0 * cdf);
    return result;
  }

  // Normal approximation with tie correction:
  //   var = n(n+1)(2n+1)/24 - sum(t^3 - t)/48 over tie groups.
  const auto nd = static_cast<double>(n);
  double tie_term = 0.0;
  {
    std::vector<double> sorted = abs_diffs;
    std::sort(sorted.begin(), sorted.end());
    std::size_t i = 0;
    while (i < n) {
      std::size_t j = i;
      while (j + 1 < n && sorted[j + 1] == sorted[i]) ++j;
      const auto t = static_cast<double>(j - i + 1);
      tie_term += t * t * t - t;
      i = j + 1;
    }
  }
  const double mean = nd * (nd + 1.0) / 4.0;
  const double var = nd * (nd + 1.0) * (2.0 * nd + 1.0) / 24.0 - tie_term / 48.0;
  if (var <= 0.0) {
    result.p_value = 1.0;
    return result;
  }
  // Continuity correction toward the mean.
  const double z = (result.statistic - mean + 0.5) / std::sqrt(var);
  result.p_value = std::min(1.0, 2.0 * normal_cdf(z));
  return result;
}

}  // namespace mcdc::stats

// Wilcoxon signed-rank test — the paper's Table IV significance machinery.
//
// Two-tailed paired test. Zero differences are dropped (the classic
// Wilcoxon treatment); ties among non-zero |differences| receive mid-ranks.
// For small effective sample sizes (n <= 25, no ties) the exact null
// distribution of W+ is computed by dynamic programming; otherwise the
// normal approximation with tie correction and continuity correction is
// used — matching common statistical software behaviour.
#pragma once

#include <cstddef>
#include <vector>

namespace mcdc::stats {

struct WilcoxonResult {
  double w_plus = 0.0;      // sum of ranks of positive differences
  double w_minus = 0.0;     // sum of ranks of negative differences
  double statistic = 0.0;   // min(w_plus, w_minus), the reported W
  double p_value = 1.0;     // two-tailed
  std::size_t n_effective = 0;  // pairs remaining after dropping zeros
  bool exact = false;       // whether the exact distribution was used
};

// Paired test on (a[i], b[i]); differences are a[i] - b[i].
WilcoxonResult wilcoxon_signed_rank(const std::vector<double>& a,
                                    const std::vector<double>& b);

// Test directly on precomputed differences.
WilcoxonResult wilcoxon_signed_rank(const std::vector<double>& differences);

}  // namespace mcdc::stats

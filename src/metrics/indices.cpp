#include "metrics/indices.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "metrics/contingency.h"
#include "metrics/hungarian.h"

namespace mcdc::metrics {

namespace {

double entropy_from_sums(const std::vector<std::int64_t>& sums,
                         std::int64_t total) {
  double h = 0.0;
  for (std::int64_t s : sums) {
    if (s <= 0) continue;
    const double p = static_cast<double>(s) / static_cast<double>(total);
    h -= p * std::log(p);
  }
  return h;
}

// Exact expected mutual information under the permutation (hypergeometric)
// model: for every pair of non-empty margins (a_i, b_j), the sum over
// n_ij in [max(1, a_i + b_j - n), min(a_i, b_j)] of
//   n_ij/n * log(n n_ij / (a_i b_j)) * P(n_ij | a_i, b_j, n).
// That is up to rows * cols * n terms -- a few million on a 50k-row,
// 32 x 32 table -- so the loop reads log(m!) and log(m) from two tables
// of n + 1 doubles built once per call (n lgamma and n log calls instead
// of nine lgamma calls per term), and hoists the per-pair head of the
// log-probability. Every term is still the same expression evaluated in
// the same order -- the head is the left-to-right prefix of the sum, the
// table entries are the values the calls returned -- and the terms are
// added in the same order, so the result does not depend on the tables.
double expected_mutual_information(const Contingency& ct) {
  const std::int64_t total = ct.total();
  const auto n = static_cast<double>(total);
  const auto log_n = std::log(n);
  // lf[m] = lgamma(m + 1) = log(m!), log_m[m] = log(m), for m in [0, n].
  std::vector<double> lf(static_cast<std::size_t>(total) + 1);
  std::vector<double> log_m(lf.size());
  for (std::size_t m = 0; m < lf.size(); ++m) {
    lf[m] = std::lgamma(static_cast<double>(m) + 1.0);
    log_m[m] = std::log(static_cast<double>(m));
  }

  double emi = 0.0;
  for (std::int64_t ai : ct.row_sums()) {
    if (ai == 0) continue;
    const auto ua = static_cast<std::size_t>(ai);
    for (std::int64_t bj : ct.col_sums()) {
      if (bj == 0) continue;
      const auto ub = static_cast<std::size_t>(bj);
      const double head = lf[ua] + lf[ub] +
                          lf[static_cast<std::size_t>(total - ai)] +
                          lf[static_cast<std::size_t>(total - bj)] - lf.back();
      const std::int64_t lo = std::max<std::int64_t>(1, ai + bj - total);
      const std::int64_t hi = std::min(ai, bj);
      for (std::int64_t nij = lo; nij <= hi; ++nij) {
        const auto x = static_cast<std::size_t>(nij);
        const double term1 = static_cast<double>(nij) / n *
                             (log_m[x] + log_n - log_m[ua] - log_m[ub]);
        const double log_prob =
            head - lf[x] - lf[ua - x] - lf[ub - x] -
            lf[static_cast<std::size_t>(total - ai - bj + nij)];
        emi += term1 * std::exp(log_prob);
      }
    }
  }
  return emi;
}

double accuracy(const Contingency& ct) {
  // Maximise matches == minimise negated counts; pad implicitly handled by
  // the rectangular solver.
  std::vector<std::vector<double>> cost(ct.rows(),
                                        std::vector<double>(ct.cols()));
  for (std::size_t i = 0; i < ct.rows(); ++i) {
    for (std::size_t j = 0; j < ct.cols(); ++j) {
      cost[i][j] = -static_cast<double>(ct.at(i, j));
    }
  }
  const AssignmentResult result = solve_assignment(cost);
  return -result.cost / static_cast<double>(ct.total());
}

double adjusted_rand_index(const Contingency& ct) {
  const auto total_pairs = static_cast<double>(choose2(ct.total()));
  if (total_pairs == 0.0) return 1.0;  // single object: trivially identical
  const auto index = static_cast<double>(ct.pairs_in_cells());
  const auto row_pairs = static_cast<double>(ct.pairs_in_rows());
  const auto col_pairs = static_cast<double>(ct.pairs_in_cols());
  const double expected = row_pairs * col_pairs / total_pairs;
  const double max_index = 0.5 * (row_pairs + col_pairs);
  if (max_index == expected) return 1.0;  // both partitions trivial
  return (index - expected) / (max_index - expected);
}

double mutual_information(const Contingency& ct) {
  const auto n = static_cast<double>(ct.total());
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
  return std::max(0.0, mi);
}

double adjusted_mutual_information(const Contingency& ct) {
  const double ha = entropy_from_sums(ct.row_sums(), ct.total());
  const double hb = entropy_from_sums(ct.col_sums(), ct.total());
  // Two single-cluster partitions are identical by convention.
  if (ha == 0.0 && hb == 0.0) return 1.0;
  const double mi = mutual_information(ct);
  const double emi = expected_mutual_information(ct);
  const double denom = 0.5 * (ha + hb) - emi;
  if (std::abs(denom) < 1e-15) return 0.0;
  return (mi - emi) / denom;
}

double fowlkes_mallows(const Contingency& ct) {
  const auto tp = static_cast<double>(ct.pairs_in_cells());
  const auto row_pairs = static_cast<double>(ct.pairs_in_rows());
  const auto col_pairs = static_cast<double>(ct.pairs_in_cols());
  if (row_pairs == 0.0 || col_pairs == 0.0) return 0.0;
  return tp / std::sqrt(row_pairs * col_pairs);
}

}  // namespace

double accuracy(const std::vector<int>& predicted,
                const std::vector<int>& truth) {
  return accuracy(Contingency(predicted, truth));
}

double adjusted_rand_index(const std::vector<int>& a,
                           const std::vector<int>& b) {
  return adjusted_rand_index(Contingency(a, b));
}

double adjusted_mutual_information(const std::vector<int>& a,
                                   const std::vector<int>& b) {
  return adjusted_mutual_information(Contingency(a, b));
}

Scores score_all(const std::vector<int>& predicted,
                 const std::vector<int>& truth) {
  // One table serves all four indices (each public index builds its own).
  const Contingency ct(predicted, truth);
  Scores s;
  s.acc = accuracy(ct);
  s.ari = adjusted_rand_index(ct);
  s.ami = adjusted_mutual_information(ct);
  s.fm = fowlkes_mallows(ct);
  return s;
}

}  // namespace mcdc::metrics

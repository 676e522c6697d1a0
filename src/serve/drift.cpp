#include "serve/drift.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/profile_set.h"

namespace mcdc::serve {

// --- mean ------------------------------------------------------------------

DriftVerdict MeanDriftDetector::evaluate(const DriftContext& ctx) {
  DriftVerdict verdict;
  if (!baseline_set_) {
    // First evaluated tick after a publish that saw an empty window: the
    // current window anchors the baseline, exactly as the PR 7 loop did.
    baseline_ = ctx.mean_score;
    baseline_set_ = true;
  }
  verdict.statistic = baseline_ - ctx.mean_score;
  verdict.fired = verdict.statistic > threshold_;
  return verdict;
}

void MeanDriftDetector::rebase(const DriftContext& ctx) {
  if (ctx.rows > 0) {
    baseline_ = ctx.mean_score;
    baseline_set_ = true;
  } else {
    baseline_set_ = false;
  }
}

namespace {

// --- hist ------------------------------------------------------------------

// Max-over-features TV / JS divergence between the window's per-feature
// value distributions and the published snapshot's pooled ProfileSet
// marginals. The window histogram is counted into a flat per-cell array
// with per-feature non-null totals — integral counts, so the sums are
// order-independent and the slot-order window is fine — and each
// p[v] = count / mass is the same division of the same integral doubles
// ProfileSet::marginal_distribution performs on a one-cluster bank.
class HistDivergenceDetector final : public DriftDetector {
 public:
  const char* name() const override { return "hist"; }

  DriftVerdict evaluate(const DriftContext& ctx) override {
    DriftVerdict verdict;
    if (ctx.rows == 0 || ctx.snapshot == nullptr || !ctx.snapshot->fitted()) {
      return verdict;
    }
    const core::ProfileSet& bank = ctx.snapshot->profile_bank();
    if (bank.num_features() != ctx.d) return verdict;

    const std::vector<int>& cards = bank.cardinalities();
    offsets_.resize(ctx.d + 1);
    offsets_[0] = 0;
    for (std::size_t r = 0; r < ctx.d; ++r) {
      offsets_[r + 1] = offsets_[r] + static_cast<std::size_t>(cards[r]);
    }
    counts_.assign(offsets_[ctx.d], 0.0);
    mass_.assign(ctx.d, 0.0);
    for (std::size_t j = 0; j < ctx.rows; ++j) {
      const data::Value* row = ctx.window + j * ctx.d;
      for (std::size_t r = 0; r < ctx.d; ++r) {
        const data::Value v = row[r];
        if (v < 0 || v >= cards[r]) continue;  // missing or out of domain
        counts_[offsets_[r] + static_cast<std::size_t>(v)] += 1.0;
        mass_[r] += 1.0;
      }
    }

    double tv_max = 0.0;
    double js_max = 0.0;
    for (std::size_t r = 0; r < ctx.d; ++r) {
      // Features with no non-null mass on either side carry no evidence.
      if (mass_[r] <= 0.0) continue;
      if (bank.marginal_distribution(r, q_) <= 0.0) continue;
      const double* count = counts_.data() + offsets_[r];
      double tv = 0.0;
      double js = 0.0;
      for (std::size_t v = 0; v < q_.size(); ++v) {
        const double p = count[v] / mass_[r];
        const double q = q_[v];
        tv += std::abs(p - q);
        const double m = 0.5 * (p + q);
        if (p > 0.0) js += 0.5 * p * std::log2(p / m);
        if (q > 0.0) js += 0.5 * q * std::log2(q / m);
      }
      tv *= 0.5;
      tv_max = std::max(tv_max, tv);
      js_max = std::max(js_max, js);
    }
    verdict.statistic = std::max(tv_max, js_max);
    verdict.fired = tv_max > kHistTvThreshold || js_max > kHistJsThreshold;
    return verdict;
  }

  // Stateless against the snapshot: the baseline IS the published model's
  // profiles, which rebasing replaces wholesale.
  void rebase(const DriftContext& ctx) override { (void)ctx; }

 private:
  // Evaluate scratch: cell offsets per feature, the window's per-cell
  // counts and per-feature non-null mass, and one pooled snapshot marginal.
  std::vector<std::size_t> offsets_;
  std::vector<double> counts_;
  std::vector<double> mass_;
  std::vector<double> q_;
};

// --- ph --------------------------------------------------------------------

// Page-Hinkley test for a downward shift in the per-row score level:
//   n += 1;  mean += (x - mean) / n
//   m += mean - x - delta;  m_min = min(m_min, m)
// alarm when m - m_min > lambda. Every update is closed-form arithmetic on
// the stream, so replays reproduce the accumulator bit-exactly; a publish
// resets the test (a fresh snapshot defines a fresh score level).
class PageHinkleyDetector final : public DriftDetector {
 public:
  const char* name() const override { return "ph"; }
  bool needs_row_scores() const override { return true; }

  void observe_score(double score) override {
    ++n_;
    mean_ += (score - mean_) / static_cast<double>(n_);
    cum_ += mean_ - score - kPhDelta;
    cum_min_ = std::min(cum_min_, cum_);
  }

  DriftVerdict evaluate(const DriftContext& ctx) override {
    (void)ctx;
    DriftVerdict verdict;
    if (n_ == 0) return verdict;
    verdict.statistic = cum_ - cum_min_;
    verdict.fired = verdict.statistic > kPhLambda;
    return verdict;
  }

  void rebase(const DriftContext& ctx) override {
    (void)ctx;
    n_ = 0;
    mean_ = 0.0;
    cum_ = 0.0;
    cum_min_ = 0.0;
  }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double cum_ = 0.0;
  double cum_min_ = 0.0;
};

// --- quantile --------------------------------------------------------------

// Score-quantile shift: the window's nearest-rank score quantiles (order
// statistics, so the slot-order context is fine) against the quantiles
// captured at the last publish. statistic = the worst downward shift
// across the tracked quantiles.
class QuantileShiftDetector final : public DriftDetector {
 public:
  const char* name() const override { return "quantile"; }

  DriftVerdict evaluate(const DriftContext& ctx) override {
    DriftVerdict verdict;
    if (ctx.rows == 0 || ctx.scores == nullptr) return verdict;
    const std::vector<double> current = quantiles_of(ctx);
    if (baseline_.empty()) {
      // Same first-sighting anchoring as the mean baseline: a publish that
      // saw an empty window defers the yardstick to the first tick.
      baseline_ = current;
      return verdict;
    }
    double worst = 0.0;
    for (std::size_t i = 0; i < current.size(); ++i) {
      worst = std::max(worst, baseline_[i] - current[i]);
    }
    verdict.statistic = worst;
    verdict.fired = worst > kQuantileThreshold;
    return verdict;
  }

  void rebase(const DriftContext& ctx) override {
    baseline_.clear();
    if (ctx.rows > 0 && ctx.scores != nullptr) {
      baseline_ = quantiles_of(ctx);
    }
  }

 private:
  static_assert(std::is_sorted(kScoreQuantiles.begin(), kScoreQuantiles.end()),
                "quantiles_of narrows its range in ascending rank order");

  // The nearest-rank values sorted[floor(q * (rows - 1))]. The ranks
  // ascend with q, so each std::nth_element selects within the range the
  // previous one left at or above its rank — the same elements a full sort
  // would put there.
  std::vector<double> quantiles_of(const DriftContext& ctx) {
    scratch_.assign(ctx.scores, ctx.scores + ctx.rows);
    std::vector<double> out(kScoreQuantiles.size());
    auto first = scratch_.begin();
    for (std::size_t i = 0; i < kScoreQuantiles.size(); ++i) {
      const auto rank = static_cast<std::ptrdiff_t>(
          kScoreQuantiles[i] * static_cast<double>(ctx.rows - 1));
      const auto nth = scratch_.begin() + rank;
      std::nth_element(first, nth, scratch_.end());
      out[i] = *nth;
      first = nth;
    }
    return out;
  }

  std::vector<double> baseline_;
  std::vector<double> scratch_;  // the window's scores, partially ordered
};

}  // namespace

std::unique_ptr<DriftDetector> make_page_hinkley_detector() {
  return std::make_unique<PageHinkleyDetector>();
}

std::unique_ptr<DriftDetector> make_quantile_detector() {
  return std::make_unique<QuantileShiftDetector>();
}

DetectorBank make_drift_detectors(const std::string& spec,
                                  double mean_threshold) {
  // Expand the spec into the requested name list.
  std::vector<std::string> names;
  if (spec == "ensemble") {
    names = {"mean", "hist", "ph", "quantile"};
  } else {
    std::size_t start = 0;
    while (start <= spec.size()) {
      const std::size_t comma = spec.find(',', start);
      const std::size_t end = comma == std::string::npos ? spec.size() : comma;
      names.push_back(spec.substr(start, end - start));
      if (comma == std::string::npos) break;
      start = comma + 1;
    }
  }

  DetectorBank bank;
  // The mean detector always rides along (it owns the reported baseline
  // and the drift trace); whether its verdict counts is decided below.
  bank.detectors.push_back(std::make_unique<MeanDriftDetector>(mean_threshold));
  bank.voting.push_back(0);

  const auto index_of = [&bank](const char* name) {
    for (std::size_t i = 0; i < bank.detectors.size(); ++i) {
      if (std::string(bank.detectors[i]->name()) == name) return i;
    }
    return bank.detectors.size();
  };
  for (const std::string& name : names) {
    if (name == "mean") {
      bank.voting[0] = 1;
      continue;
    }
    std::unique_ptr<DriftDetector> detector;
    if (name == "hist") {
      detector = std::make_unique<HistDivergenceDetector>();
    } else if (name == "ph") {
      detector = make_page_hinkley_detector();
    } else if (name == "quantile") {
      detector = make_quantile_detector();
    } else {
      throw std::invalid_argument(
          "drift detector: unknown kind \"" + name +
          "\" (expected mean|hist|ph|quantile, a comma list, or ensemble)");
    }
    if (index_of(detector->name()) < bank.detectors.size()) continue;
    bank.detectors.push_back(std::move(detector));
    bank.voting.push_back(1);
  }
  return bank;
}

}  // namespace mcdc::serve

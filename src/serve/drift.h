// Drift detectors for the continuous-learning loop (serve/online.h).
//
// The PR 7 loop triggered refits on one signal: the drop in the window's
// *mean* best-cluster score under the published snapshot. That alarm is
// robust for abrupt shifts on skewed data, but it has a documented blind
// spot — a bijective code flip on a low-cardinality stream maps clusters
// onto each other, so every row still scores high against *some* cluster
// and the mean barely moves even though the partition is now wrong. The
// detectors here watch distributional signals the loop already produces:
//
//   mean      baseline - window mean best score (the PR 7 signal, kept
//             bit-identical; it also drives the drift trace and the
//             publish-if-better baseline in the evidence).
//   hist      per-feature histogram divergence: total-variation and
//             Jensen-Shannon between the window's per-feature value
//             distributions and the published snapshot's pooled ProfileSet
//             marginals, max over features. Catches re-codings and
//             per-feature shifts that leave the mean score untouched.
//   ph        Page-Hinkley sequential test over the per-row predict_score
//             stream: detects a small but *persistent* downward shift in
//             the score level long before the windowed mean crosses a
//             threshold.
//   quantile  score-quantile shift: compares window score quantiles (not
//             just the mean) against the distribution captured at publish,
//             so a sinking lower tail — a drifting subpopulation — fires
//             while the mean still looks healthy.
//
// Determinism contract: every detector is a pure function of the observed
// row stream and the published snapshot — no wall clock, no RNG, no
// unordered containers (the lint D1-D5 gate covers this directory). The
// Page-Hinkley accumulator advances once per observed row in stream order;
// everything else is evaluated at row-counted ticks, so replays reproduce
// every statistic and every trigger bit-exactly at any thread width.
//
// Composition: the OnlineUpdater builds a bank via make_drift_detectors
// ("mean" | "hist" | "ph" | "quantile", a comma list, or "ensemble" = all
// four) and refits when at least OnlineConfig::trigger_k of the voting
// detectors fire on one tick (1 = any-of). The mean detector is always
// constructed — it owns the baseline the evidence reports — but its vote
// only counts when selected. The mean threshold is
// OnlineConfig::drift_threshold; the other three detectors fire on the
// fixed thresholds below (kHistTvThreshold ... kScoreQuantiles).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "api/model.h"
#include "data/dataset.h"

namespace mcdc::serve {

// hist: fire when the max-over-features divergence between the window's
// per-feature value distribution and the snapshot's pooled marginal exceeds
// either bound. TV and JS are both in [0, 1]; JS (log2) is the more
// sensitive of the two for small re-allocations of mass, TV for
// concentrated flips.
inline constexpr double kHistTvThreshold = 0.25;
inline constexpr double kHistJsThreshold = 0.15;
// ph: per-row tolerance delta (drops smaller than this never accumulate)
// and alarm threshold lambda on the cumulative statistic m_t - min m_i.
// Scores live in [0, 1], so lambda ~ 1.5 needs e.g. a persistent 0.02
// score drop for ~100 rows, or a 0.15 drop for ~10.
inline constexpr double kPhDelta = 0.005;
inline constexpr double kPhLambda = 1.5;
// quantile: fire when any tracked quantile of the window score
// distribution sinks more than kQuantileThreshold below its value at the
// last publish.
inline constexpr double kQuantileThreshold = 0.10;
inline constexpr std::array<double, 3> kScoreQuantiles = {0.10, 0.25, 0.50};

// What one tick hands every detector. `window` holds the drift window's
// rows (slot order — only order-insensitive consumers read it; the refit
// replay inside the updater is the one consumer that needs oldest-first
// and materialises its own copy), `scores` the per-row predict_score of
// those rows under `snapshot`, and `mean_score` their mean accumulated in
// the same slot order — bit-identical to the PR 7 drift signal.
// `scores` is the updater's score ring: each row is scored once per
// published snapshot (as it streams in, or in one batch after an external
// swap), and on a rebase it holds the scores the publish-if-better gate
// took of the new snapshot.
struct DriftContext {
  const data::Value* window = nullptr;  // rows * d values, slot order
  std::size_t rows = 0;
  std::size_t d = 0;
  const double* scores = nullptr;  // per-row score under snapshot, slot order
  double mean_score = 0.0;         // slot-order mean of `scores`
  const api::Model* snapshot = nullptr;  // the published model (never null)
};

struct DriftVerdict {
  double statistic = 0.0;  // the detector's test statistic this tick
  bool fired = false;      // statistic crossed its threshold
};

class DriftDetector {
 public:
  virtual ~DriftDetector() = default;
  // Stable wire name ("mean", "hist", "ph", "quantile") — keyed into the
  // evidence and the CLI.
  virtual const char* name() const = 0;
  // True when the updater must feed observe_score() every observed row
  // (the sequential tests); false detectors cost nothing between ticks.
  virtual bool needs_row_scores() const { return false; }
  // Per-row hook, called in stream order with the row's predict_score
  // under the currently published snapshot (the updater scores each
  // observe() segment in one batch, then feeds the scores one by one).
  // Only called when needs_row_scores() — and never before a snapshot is
  // published.
  virtual void observe_score(double score) { (void)score; }
  // The tick decision over the current window.
  virtual DriftVerdict evaluate(const DriftContext& ctx) = 0;
  // Re-anchors the detector's baseline after a publish: `ctx` describes
  // the window under the NEW snapshot. Sequential state resets here — a
  // fresh snapshot starts a fresh test.
  virtual void rebase(const DriftContext& ctx) = 0;
};

// The PR 7 signal as a detector: statistic = baseline - mean_score, where
// the baseline is the window mean captured at the last publish (or on the
// first evaluated tick after a publish that saw an empty window). Exposed
// concretely because the updater's evidence reports its baseline.
class MeanDriftDetector final : public DriftDetector {
 public:
  explicit MeanDriftDetector(double threshold) : threshold_(threshold) {}
  const char* name() const override { return "mean"; }
  DriftVerdict evaluate(const DriftContext& ctx) override;
  void rebase(const DriftContext& ctx) override;
  bool baseline_set() const { return baseline_set_; }
  double baseline() const { return baseline_; }

 private:
  double threshold_;
  double baseline_ = 0.0;
  bool baseline_set_ = false;
};

std::unique_ptr<DriftDetector> make_page_hinkley_detector();
std::unique_ptr<DriftDetector> make_quantile_detector();

// The composed bank the updater runs. detectors[0] is always the mean
// detector; voting[i] != 0 marks the detectors whose verdicts count toward
// the trigger policy.
struct DetectorBank {
  std::vector<std::unique_ptr<DriftDetector>> detectors;
  std::vector<char> voting;
};

// Parses a detector spec — "mean", "hist", "ph", "quantile", a comma list
// of those, or "ensemble" (all four) — into the bank. Throws
// std::invalid_argument on an unknown or empty name.
DetectorBank make_drift_detectors(const std::string& spec,
                                  double mean_threshold);

}  // namespace mcdc::serve

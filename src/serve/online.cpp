#include "serve/online.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/rgcl.h"

namespace mcdc::serve {

namespace {

// Capacity of the per-tick drift trace and the refit-trigger trace the
// evidence reports (most recent entries win).
constexpr std::size_t kTraceCapacity = 512;

}  // namespace

std::unique_ptr<OnlineLearner> make_online_learner(
    const OnlineConfig& config, std::vector<int> cardinalities,
    std::vector<std::vector<std::string>> values) {
  if (config.learner == "streaming") {
    return std::make_unique<core::StreamingMgcpl>(
        std::move(cardinalities), config.streaming, std::move(values));
  }
  if (config.learner == "mcdc-online") {
    return std::make_unique<core::RgclLearner>(
        std::move(cardinalities), config.seed, core::RgclConfig{},
        std::move(values));
  }
  throw std::invalid_argument("online learner: unknown kind \"" +
                              config.learner +
                              "\" (expected \"streaming\" or \"mcdc-online\")");
}

OnlineUpdater::OnlineUpdater(std::shared_ptr<ModelServer> server,
                             std::unique_ptr<OnlineLearner> learner,
                             OnlineConfig config)
    : server_(std::move(server)),
      learner_(std::move(learner)),
      config_(std::move(config)) {
  if (!server_) {
    throw std::invalid_argument("OnlineUpdater: null server");
  }
  if (!learner_) {
    throw std::invalid_argument("OnlineUpdater: null learner");
  }
  if (config_.tick_every == 0) {
    throw std::invalid_argument("OnlineUpdater: tick_every must be >= 1");
  }
  if (config_.window_capacity == 0) {
    throw std::invalid_argument(
        "OnlineUpdater: window_capacity must be >= 1");
  }
  window_.resize(config_.window_capacity * learner_->num_features());
  window_scores_.resize(config_.window_capacity);
  candidate_scores_.resize(config_.window_capacity);

  DetectorBank bank =
      make_drift_detectors(config_.detector, config_.drift_threshold);
  detectors_ = std::move(bank.detectors);
  voting_ = std::move(bank.voting);
  // make_drift_detectors puts the mean detector first unconditionally — it
  // owns the baseline the evidence reports even when it does not vote.
  mean_detector_ = static_cast<MeanDriftDetector*>(detectors_.front().get());
  std::size_t voters = 0;
  for (const char v : voting_) voters += (v != 0) ? 1 : 0;
  trigger_needed_ = std::max<std::size_t>(config_.trigger_k, 1);
  trigger_needed_ = std::min(trigger_needed_, std::max<std::size_t>(voters, 1));
  verdicts_.resize(detectors_.size());
  drift_ring_.resize(kTraceCapacity);
  // Inherit whatever the server already publishes — the sequential tests
  // score the row stream under it until the loop's first own publish.
  published_snapshot_ = server_->snapshot();

  evidence_.detectors.reserve(detectors_.size());
  for (std::size_t i = 0; i < detectors_.size(); ++i) {
    api::DriftDetectorEvidence detector_evidence;
    detector_evidence.name = detectors_[i]->name();
    detector_evidence.voting = voting_[i] != 0;
    evidence_.detectors.push_back(std::move(detector_evidence));
  }
}

std::vector<int> OnlineUpdater::observe(const data::Value* rows,
                                        std::size_t n) {
  const std::size_t d = learner_->num_features();
  const std::size_t cap = config_.window_capacity;
  std::vector<int> ids(n);
  for (std::size_t i = 0; i < n;) {
    // A segment ends at the next tick boundary, so all of it is scored
    // under one published snapshot, and holds at most one window.
    const std::size_t m =
        std::min({n - i, config_.tick_every - rows_since_tick_, cap});
    const data::Value* segment = rows + i * d;
    for (std::size_t t = 0; t < m; ++t) {
      ids[i + t] = learner_->observe(segment + t * d);
    }
    const bool scored =
        published_snapshot_ && published_snapshot_->has_schema();
    if (scored) {
      segment_scores_.resize(m);
      published_snapshot_->predict_scores(segment, m, segment_scores_.data());
      // The sequential tests take each row's score in stream order — the
      // Page-Hinkley accumulator advances exactly once per observed row.
      for (const auto& detector : detectors_) {
        if (!detector->needs_row_scores()) continue;
        for (std::size_t t = 0; t < m; ++t) {
          detector->observe_score(segment_scores_[t]);
        }
      }
    } else {
      window_scored_ = false;
    }
    for (std::size_t t = 0; t < m; ++t) {
      std::copy(segment + t * d, segment + (t + 1) * d,
                window_.data() + window_next_ * d);
      if (scored) window_scores_[window_next_] = segment_scores_[t];
      window_next_ = (window_next_ + 1) % cap;
    }
    window_rows_ = std::min(window_rows_ + m, cap);
    rows_since_tick_ += m;
    rows_since_publish_ += m;
    i += m;
    {
      std::lock_guard<std::mutex> lock(evidence_mutex_);
      evidence_.rows_observed += m;
      evidence_.rows_absorbed += m;
    }
    if (rows_since_tick_ >= config_.tick_every) tick();
  }
  return ids;
}

double OnlineUpdater::window_mean_score(
    const std::vector<double>& scores) const {
  double total = 0.0;
  // Accumulated in ring-slot order — the summation order the PR 7 loop
  // established; the gate and the mean detector both depend on these exact
  // low-order bits, so the order never changes (order-sensitive consumers
  // like the refit replay materialise their own oldest-first copy).
  for (std::size_t j = 0; j < window_rows_; ++j) total += scores[j];
  return window_rows_ == 0 ? 0.0 : total / static_cast<double>(window_rows_);
}

double OnlineUpdater::score_candidate(const api::Model& model) {
  model.predict_scores(window_.data(), window_rows_, candidate_scores_.data());
  return window_mean_score(candidate_scores_);
}

void OnlineUpdater::materialize_window() {
  const std::size_t d = learner_->num_features();
  const std::size_t cap = config_.window_capacity;
  const std::size_t start = window_rows_ < cap ? 0 : window_next_;
  scratch_rows_.resize(window_rows_ * d);
  for (std::size_t j = 0; j < window_rows_; ++j) {
    const data::Value* src = window_.data() + ((start + j) % cap) * d;
    std::copy(src, src + d,
              scratch_rows_.begin() + static_cast<std::ptrdiff_t>(j * d));
  }
}

void OnlineUpdater::publish(api::Model model, double mean) {
  const auto next = std::make_shared<const api::Model>(std::move(model));
  server_->swap(next);
  published_snapshot_ = next;
  rows_since_publish_ = 0;
  // The candidate's window scores become the ring's: every held row is now
  // scored under the published snapshot without scoring it again.
  window_scores_.swap(candidate_scores_);
  window_scored_ = true;
  // Rebase every detector under the published snapshot: drift is measured
  // against what serving traffic actually scores on now, so each
  // incremental swap resets the yardstick — sequential state restarts, the
  // quantile baseline re-captures — and only abrupt, unabsorbed shift
  // accumulates into a trigger.
  DriftContext ctx;
  ctx.window = window_.data();
  ctx.rows = window_rows_;
  ctx.d = learner_->num_features();
  ctx.scores = window_rows_ > 0 ? window_scores_.data() : nullptr;
  ctx.mean_score = mean;
  ctx.snapshot = next.get();
  for (const auto& detector : detectors_) detector->rebase(ctx);
  std::lock_guard<std::mutex> lock(evidence_mutex_);
  ++evidence_.generation;
  evidence_.baseline_score =
      mean_detector_->baseline_set() ? mean_detector_->baseline() : 0.0;
}

TickAction OnlineUpdater::tick() {
  learner_->end_chunk();

  // The ring's scores are reused only under the snapshot they were taken
  // under. The updater holds that shared_ptr, so its address cannot be
  // recycled under this comparison; after an external swap (or an
  // empty-server start) the window is rescored below in one batch.
  const std::shared_ptr<const api::Model> published = server_->snapshot();
  if (published != published_snapshot_) {
    published_snapshot_ = published;
    window_scored_ = false;
  }

  TickAction action = TickAction::kHold;
  double drift = 0.0;
  double published_mean = 0.0;
  bool evaluated = false;
  if (!published) {
    // Empty server: the publish-if-better gate has nothing to compare
    // against, and a zero-scoring candidate (e.g. off an all-missing
    // warmup) would wedge a strict "beats 0" comparison forever. The first
    // exported candidate with live clusters publishes unconditionally —
    // anything beats nothing.
    if (learner_->num_clusters() > 0 && rows_since_publish_ > 0) {
      action = TickAction::kSwap;
      api::Model first = learner_->to_model();
      const double mean = score_candidate(first);
      publish(std::move(first), mean);
    }
  } else {
    std::size_t votes = 0;
    if (window_rows_ > 0) {
      if (!window_scored_) {
        published->predict_scores(window_.data(), window_rows_,
                                  window_scores_.data());
        window_scored_ = true;
      }
      published_mean = window_mean_score(window_scores_);
      DriftContext ctx;
      ctx.window = window_.data();
      ctx.rows = window_rows_;
      ctx.d = learner_->num_features();
      ctx.scores = window_scores_.data();
      ctx.mean_score = published_mean;
      ctx.snapshot = published.get();
      for (std::size_t i = 0; i < detectors_.size(); ++i) {
        verdicts_[i] = detectors_[i]->evaluate(ctx);
        if (voting_[i] != 0 && verdicts_[i].fired) ++votes;
      }
      evaluated = true;
      // The mean detector's statistic is the drift trace — bit-identical
      // to the PR 7 baseline-minus-mean signal.
      drift = verdicts_.front().statistic;
    }
    if (votes >= trigger_needed_ && window_rows_ >= config_.min_refit_rows) {
      // The published structure no longer explains the recent window:
      // rebuild from it instead of dragging stale clusters along.
      action = TickAction::kRefit;
      learner_->reset();
      materialize_window();
      const std::size_t d = learner_->num_features();
      for (std::size_t j = 0; j < window_rows_; ++j) {
        learner_->observe(scratch_rows_.data() + j * d);
      }
      learner_->end_chunk();
      api::Model refit = learner_->to_model();
      const double mean = score_candidate(refit);
      publish(std::move(refit), mean);
    } else if (learner_->num_clusters() > 0 && rows_since_publish_ > 0) {
      // Publish-if-better: the candidate only replaces the snapshot when
      // it explains the recent window strictly better. A half-formed
      // learner never displaces a fitted model the traffic still scores
      // well on (and an empty learner's k = 0 model never displaces
      // anything).
      api::Model candidate = learner_->to_model();
      const double mean = score_candidate(candidate);
      if (mean > published_mean) {
        action = TickAction::kSwap;
        publish(std::move(candidate), mean);
      }
    }
  }
  rows_since_tick_ = 0;

  record(drift);
  std::lock_guard<std::mutex> lock(evidence_mutex_);
  ++evidence_.ticks;
  switch (action) {
    case TickAction::kSwap: ++evidence_.swaps; break;
    case TickAction::kRefit:
      // The refit replay re-observes window rows already counted when they
      // streamed in — rows_absorbed counts distinct stream rows, so the
      // replay does not increment it.
      ++evidence_.refits;
      if (evidence_.first_refit_tick == 0) {
        evidence_.first_refit_tick = evidence_.ticks;
      }
      break;
    case TickAction::kHold: ++evidence_.holds; break;
  }
  if (evaluated) {
    for (std::size_t i = 0; i < detectors_.size(); ++i) {
      api::DriftDetectorEvidence& detector_evidence = evidence_.detectors[i];
      detector_evidence.last_statistic = verdicts_[i].statistic;
      detector_evidence.max_statistic =
          std::max(detector_evidence.max_statistic, verdicts_[i].statistic);
      if (verdicts_[i].fired) ++detector_evidence.fired_ticks;
    }
  }
  if (action == TickAction::kRefit) {
    std::string fired_names;
    for (std::size_t i = 0; i < detectors_.size(); ++i) {
      if (voting_[i] != 0 && verdicts_[i].fired) {
        if (!fired_names.empty()) fired_names += '+';
        fired_names += detectors_[i]->name();
        ++evidence_.detectors[i].refits;
      }
    }
    if (evidence_.refit_detectors.size() >= kTraceCapacity) {
      evidence_.refit_detectors.erase(evidence_.refit_detectors.begin());
    }
    evidence_.refit_detectors.push_back(std::move(fired_names));
  }
  evidence_.clusters = static_cast<int>(learner_->num_clusters());
  if (mean_detector_->baseline_set()) {
    evidence_.baseline_score = mean_detector_->baseline();
  }
  return action;
}

void OnlineUpdater::record(double drift) {
  std::lock_guard<std::mutex> lock(evidence_mutex_);
  // O(1) ring write — evidence() materialises the trace oldest-first (the
  // erase-from-front vector this replaced shifted the whole trace on every
  // tick once full).
  drift_ring_[drift_ring_next_] = drift;
  drift_ring_next_ = (drift_ring_next_ + 1) % drift_ring_.size();
  drift_ring_rows_ = std::min(drift_ring_rows_ + 1, drift_ring_.size());
  evidence_.last_drift = drift;
  evidence_.max_drift = std::max(evidence_.max_drift, drift);
}

api::OnlineEvidence OnlineUpdater::evidence() const {
  std::lock_guard<std::mutex> lock(evidence_mutex_);
  api::OnlineEvidence out = evidence_;
  out.drift_scores.resize(drift_ring_rows_);
  const std::size_t size = drift_ring_.size();
  const std::size_t start = drift_ring_rows_ < size ? 0 : drift_ring_next_;
  for (std::size_t j = 0; j < drift_ring_rows_; ++j) {
    out.drift_scores[j] = drift_ring_[(start + j) % size];
  }
  return out;
}

}  // namespace mcdc::serve

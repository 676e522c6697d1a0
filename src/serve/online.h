// OnlineUpdater — the continuous-learning serving loop that unifies the
// streaming learners and the snapshot server behind one model lifecycle:
//
//            observe(rows)
//                 |
//          [learner absorbs; window ring records each row and
//           its score under the published snapshot]
//                 |
//        tick (every tick_every rows, or manual)
//                 |
//          drift = baseline - mean window score under the
//                  published snapshot
//            |         |          |
//       kRefit       kSwap       kHold
//   (drift above   (the learner's  (no new rows, an empty
//    threshold:     exported model  learner, or a candidate
//    reset, re-     explains the    that does not beat the
//    observe the    window better   published snapshot)
//    window)        than the
//                   published
//                   snapshot)
//            \         |
//          ModelServer::swap(snapshot)   -> generation++
//                 |
//          detectors rebased under the new snapshot
//
// Swaps are gated on merit — publish-if-better. Each tick exports the
// learner and compares how the candidate and the published snapshot score
// the recent window; the server only moves forward, so a half-formed
// learner never replaces a fitted model that still explains the traffic.
// (One exception: while the server holds NO snapshot at all, the first
// exported candidate with live clusters publishes unconditionally — a
// candidate whose window score is 0, e.g. off an all-missing warmup,
// must still beat "nothing".) Gradual drift stays below the threshold:
// as the published snapshot slowly loses the window, the tracking learner
// overtakes it, the swap lands, and the baselines re-measure under the
// new snapshot before the gap ever widens. An abrupt shift outruns that
// escape hatch — the window fills with rows the published snapshot cannot
// explain, the drift detectors fire, and the learner refits from the
// recent window instead of dragging stale structure along.
//
// Drift is judged by a bank of detectors (serve/drift.h): the PR 7 mean
// best-score drop, per-feature histogram divergence against the
// snapshot's profiles, a Page-Hinkley sequential test over the per-row
// score stream, and a score-quantile-shift test. OnlineConfig::detector
// selects which of them vote ("mean" by default — bit-identical to the
// PR 7 loop) and trigger_k sets the k-of-n policy; the evidence reports
// every constructed detector's statistics and which ones fired each
// refit.
//
// Scoring cost: each window row is scored once per published snapshot.
// observe() scores its rows in batches (Model::predict_scores, segments
// cut at tick boundaries) under the published snapshot, feeds those
// scores to Page-Hinkley and keeps them in a score ring beside the window
// ring, so a tick under the same snapshot reuses them. The gate scores
// its candidate once; when the candidate publishes, those scores become
// the ring and rebase the detectors. Besides the gate's candidate, only a
// refit's model, the first publish from an empty server and a snapshot
// swapped in behind the updater's back score the whole window, each in
// one batch.
//
// Determinism contract: every decision is a function of the rows observed
// and their order — the cadence is counted in rows, the drift signal is
// Model::predict_scores arithmetic (every mean sums the ring in slot
// order, however its scores were taken), the learners replay
// deterministically (StreamingMgcpl's update is closed-form; RgclLearner's
// Bernoulli trials are content-keyed hash draws). There is no wall clock
// anywhere in the loop, so a replayed stream reproduces every tick, swap
// and refit bit-exactly at any thread width (the test_determinism online
// and detector-bank goldens pin this).
//
// Thread-safety: observe()/tick() follow the learners' single-writer
// contract — one updater thread. The ModelServer side is free-running:
// predictor threads keep submitting against whatever snapshot is published
// while the updater swaps behind them (the soak bench runs exactly this
// storm under ASan/TSan). evidence() may be called from any thread.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "api/model.h"
#include "api/report.h"
#include "core/online_learner.h"
#include "core/streaming.h"
#include "serve/drift.h"
#include "serve/server.h"

namespace mcdc::serve {

// The learner side of the pipeline: the live-cluster pool both online
// learners share (core/online_learner.h).
using OnlineLearner = core::OnlineLearner;

struct OnlineConfig {
  // Which learner backs the loop: "streaming" (StreamingMgcpl) or
  // "mcdc-online" (RgclLearner).
  std::string learner = "streaming";
  std::uint64_t seed = 1;  // keys the mcdc-online Bernoulli draws
  // Rows between automatic ticks (the seeded clock: cadence is counted in
  // rows, never wall time, so replays are deterministic).
  std::size_t tick_every = 256;
  // Recent rows retained for drift measurement and refits.
  std::size_t window_capacity = 1024;
  // The mean detector fires when (baseline - window mean score) exceeds
  // this — the PR 7 knob, unchanged.
  double drift_threshold = 0.08;
  // ... but a refit only happens once the window holds enough rows.
  std::size_t min_refit_rows = 64;
  // Which drift detectors vote: "mean" (default, the PR 7 behaviour),
  // "hist", "ph", "quantile", a comma list of those, or "ensemble" (all
  // four). The mean detector is always constructed for the drift trace
  // and baseline evidence; only selected detectors vote. The hist, ph and
  // quantile thresholds are constants in serve/drift.h.
  std::string detector = "mean";
  // Trigger policy over the voting detectors: refit when at least
  // trigger_k of them fire on one tick (clamped to the voting count;
  // 1 = any-of, voting count = all-of).
  std::size_t trigger_k = 1;
  // Knobs for the "streaming" learner; "mcdc-online" runs the
  // core::RgclConfig defaults.
  core::StreamingConfig streaming;
  ServeConfig serve;  // Engine::serve_online's server config
};

// Builds the configured learner (a core::StreamingMgcpl or a
// core::RgclLearner) over a schema and optional per-feature dictionaries
// threaded into every exported snapshot. Throws std::invalid_argument on
// an unknown learner kind.
std::unique_ptr<OnlineLearner> make_online_learner(
    const OnlineConfig& config, std::vector<int> cardinalities,
    std::vector<std::vector<std::string>> values = {});

// What one tick decided.
enum class TickAction { kHold, kSwap, kRefit };

class OnlineUpdater {
 public:
  // The server must already hold (or be about to receive) snapshots of the
  // learner's feature width; every publish goes through
  // ModelServer::swap, so width mismatches fail there with both counts
  // named.
  OnlineUpdater(std::shared_ptr<ModelServer> server,
                std::unique_ptr<OnlineLearner> learner,
                OnlineConfig config = {});

  // Feeds n rows (row-major, learner encoding) to the learner and the
  // drift window; automatic ticks fire every tick_every rows. Returns the
  // learner's per-row stable cluster ids. Single-writer.
  std::vector<int> observe(const data::Value* rows, std::size_t n);

  // Forces a cadence point now (consolidate, measure drift, decide).
  TickAction tick();

  const std::shared_ptr<ModelServer>& server() const { return server_; }

  // Snapshot of the loop's bookkeeping; callable from any thread.
  api::OnlineEvidence evidence() const;

 private:
  // Mean of the held slots of `scores` (window_scores_ or
  // candidate_scores_), summed in ring-slot order: the publish-if-better
  // gate, the mean detector and the evidence all take this one sum, so
  // they see the same bits whether the scores were taken row by row as
  // the stream arrived or in one batch at a tick.
  double window_mean_score(const std::vector<double>& scores) const;
  // Scores the window under `model` into candidate_scores_ in one batch
  // and returns their mean.
  double score_candidate(const api::Model& model);
  // Copies the window into scratch_rows_ oldest-first — the order the
  // refit replay needs.
  void materialize_window();
  // Publishes the exported model, whose window scores score_candidate()
  // left in candidate_scores_ (slot-order mean `mean`): they become the
  // ring's scores, and every detector is rebased under them.
  void publish(api::Model model, double mean);
  void record(double drift);

  std::shared_ptr<ModelServer> server_;
  std::unique_ptr<OnlineLearner> learner_;
  OnlineConfig config_;

  // The drift-detector bank (serve/drift.h): detectors_[0] is always the
  // mean detector; voting_[i] marks the verdicts the trigger policy
  // counts. trigger_needed_ is trigger_k clamped into [1, #voting].
  std::vector<std::unique_ptr<DriftDetector>> detectors_;
  std::vector<char> voting_;
  std::size_t trigger_needed_ = 1;
  MeanDriftDetector* mean_detector_ = nullptr;  // owned by detectors_[0]
  // The snapshot the loop itself published last (or inherited at
  // construction, or found on the server at a tick) — the model the
  // per-row score stream and the score ring are measured under. Holding
  // it keeps its address from being reused while tick() compares it with
  // the server's. Single-writer like observe()/tick(); external swaps
  // behind the updater's back are not part of the replay contract.
  std::shared_ptr<const api::Model> published_snapshot_;

  // Drift window: a ring of the last window_capacity rows, flat row-major.
  std::vector<data::Value> window_;
  std::size_t window_rows_ = 0;  // rows currently held (<= capacity)
  std::size_t window_next_ = 0;  // ring write position
  // The score ring beside it: window_scores_[slot] is that row's score under
  // published_snapshot_. window_scored_ says every held slot is scored under
  // it; it drops when rows arrive with no snapshot to score them, or when a
  // tick finds the server publishing a snapshot the updater did not.
  std::vector<double> window_scores_;
  bool window_scored_ = true;
  std::size_t rows_since_tick_ = 0;
  std::size_t rows_since_publish_ = 0;
  // Scratch (member-owned so steady-state ticks allocate nothing): the
  // window's scores under a tick's candidate (swapped into window_scores_
  // when it publishes), one observe() segment's scores, the oldest-first
  // window copy and the per-detector verdicts of the last evaluated tick.
  std::vector<double> candidate_scores_;
  std::vector<double> segment_scores_;
  std::vector<data::Value> scratch_rows_;
  std::vector<DriftVerdict> verdicts_;

  mutable std::mutex evidence_mutex_;
  api::OnlineEvidence evidence_;
  // Per-tick drift trace as a real ring (index + fixed buffer, O(1) per
  // record); evidence() materialises it oldest-first into
  // OnlineEvidence::drift_scores.
  std::vector<double> drift_ring_;
  std::size_t drift_ring_next_ = 0;
  std::size_t drift_ring_rows_ = 0;
};

}  // namespace mcdc::serve

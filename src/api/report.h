// Structured run results for the api layer.
//
// Every Engine::fit produces a RunReport: the labels, the multi-granular
// evidence (kappa staircase, per-stage internal validity), validity scores,
// wall-clock timings and a Status — replacing the bare `failed` bool of
// baselines::ClusterResult with an error carrying a reason. Reports
// serialise to JSON for downstream services (api/json.h).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "api/json.h"
#include "metrics/indices.h"
#include "metrics/internal.h"

namespace mcdc::api {

// Status-code + message error type (absl::Status-shaped, dependency-free).
struct Status {
  enum class Code {
    kOk,                // run succeeded
    kInvalidArgument,   // bad input (empty dataset, k < 0, unknown param)
    kNotFound,          // unknown method or dataset key
    kFailed,            // the method ran but could not reach the preset k
  };

  Code code = Code::kOk;
  std::string message;

  bool ok() const { return code == Code::kOk; }

  static Status Ok() { return {}; }
  static Status InvalidArgument(std::string msg) {
    return {Code::kInvalidArgument, std::move(msg)};
  }
  static Status NotFound(std::string msg) {
    return {Code::kNotFound, std::move(msg)};
  }
  static Status Failed(std::string msg) {
    return {Code::kFailed, std::move(msg)};
  }
};

// Wire names: "ok", "invalid_argument", "not_found", "failed".
std::string to_string(Status::Code code);

// Internal-validity evidence for one MGCPL granularity (finest first) —
// the per-stage view of the paper's Fig. 5 staircase.
struct StageValidity {
  int stage = 0;            // index into Gamma, 0 = finest
  int k = 0;                // clusters at this granularity
  double silhouette = 0.0;  // categorical silhouette of the partition
  double persistence = 0.0; // staircase-plateau prominence, in [0, 1]
};

// Wall-clock seconds of each layer of Engine::fit, in run order. The four
// layers are disjoint intervals of total_seconds.
struct Timings {
  double fit_seconds = 0.0;           // clustering (MGCPL + aggregation)
  double stage_report_seconds = 0.0;  // per-stage validity (0 when off)
  double polish_seconds = 0.0;        // Model::from_fit bank + polish
  double evaluate_seconds = 0.0;      // validity-index computation
  double total_seconds = 0.0;
};

// Evidence of a distributed run (the "mcdc-dist" method): shard count,
// per-worker contributions, the communication saving of the sketch
// protocol and the parallel-vs-sequential wall-clock model.
struct DistEvidence {
  int shards = 0;  // 0 = not a distributed run
  std::vector<int> local_clusters;
  std::size_t sketch_cells = 0;
  std::size_t raw_cells = 0;
  // Bytes of raw data copied to hand workers their shards; 0 since workers
  // consume zero-copy DatasetViews into the coordinator's columnar bank.
  std::size_t materialized_bytes = 0;
  double parallel_seconds = 0.0;
  double sequential_seconds = 0.0;
};

// Evidence of a serving session (filled from serve::ModelServer::stats, or
// aggregated across shards by serve::ServingCluster::stats): request/batch
// counters, snapshot swap count and the latency distribution of the batched
// predict path. requests == 0 means nothing was served; shards == 0 means a
// single ModelServer rather than a cluster.
struct ServeEvidence {
  std::uint64_t requests = 0;    // single-row predicts answered
  std::uint64_t batches = 0;     // coalesced score sweeps dispatched
  std::uint64_t swaps = 0;       // snapshots published over the session
  double batch_occupancy = 0.0;  // mean rows per dispatched sweep
  double throughput_rps = 0.0;   // requests per second of serving wall-clock
  double p50_latency_us = 0.0;   // submit-to-label latency percentiles
  double p99_latency_us = 0.0;
  double p999_latency_us = 0.0;

  // Cluster-level view (serve::ServingCluster only; empty for one server).
  int shards = 0;                      // ModelServer shards behind the router
  std::vector<std::uint64_t> routed;   // requests routed per shard
  std::uint64_t generation = 0;        // cluster target model generation
};

// Per-detector bookkeeping of the online loop's drift bank
// (serve/drift.h): one entry per constructed detector, in bank order (the
// mean detector is always first). `voting` marks the detectors whose
// verdicts count toward the refit trigger policy; non-voting detectors
// (the mean signal when another detector was selected) still report their
// statistics for observability.
struct DriftDetectorEvidence {
  std::string name;                // "mean", "hist", "ph", "quantile"
  bool voting = false;             // counts toward the trigger policy
  std::uint64_t fired_ticks = 0;   // ticks where the statistic crossed
  std::uint64_t refits = 0;        // refits this detector's vote was part of
  double last_statistic = 0.0;     // statistic at the last evaluated tick
  double max_statistic = 0.0;
};

// Evidence of a continuous-learning session (filled from
// serve::OnlineUpdater::evidence): the tick-by-tick bookkeeping of the
// observe -> drift-check -> swap/refit/hold -> publish loop. ticks == 0
// means no online updater ran behind this report.
struct OnlineEvidence {
  std::uint64_t ticks = 0;          // cadence points reached
  std::uint64_t swaps = 0;          // incremental-absorb publishes
  std::uint64_t refits = 0;         // drift-triggered refit-from-window
  std::uint64_t holds = 0;          // ticks that published nothing
  std::uint64_t rows_observed = 0;  // rows fed to the learner
  // Distinct stream rows absorbed by the learner — each observed row
  // counted exactly once; refit replays re-observe rows already counted
  // and do not increment (they coincide with rows_observed today, and
  // diverge the day an admission/sampling path lands in front of the
  // learner).
  std::uint64_t rows_absorbed = 0;
  std::uint64_t generation = 0;     // published snapshot generation
  std::uint64_t first_refit_tick = 0;  // 1-based; 0 = no refit happened
  int clusters = 0;                 // live learner clusters at capture
  double baseline_score = 0.0;      // window mean score at last publish
  double last_drift = 0.0;          // baseline - window mean, last tick
  double max_drift = 0.0;
  std::vector<double> drift_scores;  // per-tick drift, most recent <= 512
  // Per-detector state, bank order (mean first; see DriftDetectorEvidence).
  std::vector<DriftDetectorEvidence> detectors;
  // Which detectors fired each refit, oldest first, most recent <= 512 —
  // voting detectors whose verdicts fired on the triggering tick, joined
  // "mean+hist" in bank order.
  std::vector<std::string> refit_detectors;
};

struct RunReport {
  Status status;

  std::string method;          // registry key, e.g. "mcdc"
  std::string method_display;  // Table III column name, e.g. "MCDC"
  int k = 0;                   // clusters sought
  bool k_estimated = false;    // k was chosen from the staircase, not given
  std::uint64_t seed = 0;

  std::vector<int> labels;     // per-object cluster ids (may be non-empty
                               // even on a kFailed status, for inspection)
  int clusters_found = 0;

  // MCDC-family evidence; empty for plain baselines.
  std::vector<int> kappa;               // granularity staircase k_1..k_sigma
  std::vector<StageValidity> stages;    // per-stage internal validity
  std::vector<double> theta;            // CAME granularity weights

  // Distributed-run evidence; dist.shards == 0 for single-node methods.
  DistEvidence dist;

  // Serving-session evidence; serve.requests == 0 until the model behind
  // this report has answered traffic through a serve::ModelServer.
  ServeEvidence serve;

  // Continuous-learning evidence; online.ticks == 0 until an
  // serve::OnlineUpdater drove the model behind this report.
  OnlineEvidence online;

  metrics::InternalScores internal;     // ground-truth-free validity
  bool has_external = false;            // dataset carried class labels
  metrics::Scores external;             // ACC / ARI / AMI / FM when it did

  Timings timings;

  // Serialises everything above. Labels are included; attach a model
  // separately via FitResult::to_json (engine.h) when persistence of the
  // fitted state is wanted too.
  Json to_json() const;
};

}  // namespace mcdc::api

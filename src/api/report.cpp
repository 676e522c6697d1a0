#include "api/report.h"

namespace mcdc::api {

std::string to_string(Status::Code code) {
  switch (code) {
    case Status::Code::kOk: return "ok";
    case Status::Code::kInvalidArgument: return "invalid_argument";
    case Status::Code::kNotFound: return "not_found";
    case Status::Code::kFailed: return "failed";
  }
  return "unknown";
}

Json RunReport::to_json() const {
  Json out = Json::object();

  Json status_json = Json::object();
  status_json["code"] = to_string(status.code);
  status_json["message"] = status.message;
  out["status"] = std::move(status_json);

  out["method"] = method;
  out["method_display"] = method_display;
  out["k"] = k;
  out["k_estimated"] = k_estimated;
  // Stored as a string: JSON numbers are doubles and cannot carry a full
  // 64-bit seed losslessly.
  out["seed"] = std::to_string(seed);
  out["clusters_found"] = clusters_found;

  Json labels_json = Json::array();
  for (const int label : labels) labels_json.push_back(label);
  out["labels"] = std::move(labels_json);

  Json kappa_json = Json::array();
  for (const int kj : kappa) kappa_json.push_back(kj);
  out["kappa"] = std::move(kappa_json);

  Json stages_json = Json::array();
  for (const StageValidity& stage : stages) {
    Json s = Json::object();
    s["stage"] = stage.stage;
    s["k"] = stage.k;
    s["silhouette"] = stage.silhouette;
    s["persistence"] = stage.persistence;
    stages_json.push_back(std::move(s));
  }
  out["stages"] = std::move(stages_json);

  Json theta_json = Json::array();
  for (const double t : theta) theta_json.push_back(t);
  out["theta"] = std::move(theta_json);

  Json internal_json = Json::object();
  internal_json["compactness"] = internal.compactness;
  internal_json["separation"] = internal.separation;
  internal_json["silhouette"] = internal.silhouette;
  internal_json["category_utility"] = internal.category_utility;
  internal_json["davies_bouldin"] = internal.davies_bouldin;
  out["internal"] = std::move(internal_json);

  if (has_external) {
    Json external_json = Json::object();
    external_json["acc"] = external.acc;
    external_json["ari"] = external.ari;
    external_json["ami"] = external.ami;
    external_json["fm"] = external.fm;
    out["external"] = std::move(external_json);
  }

  if (dist.shards > 0) {
    Json dist_json = Json::object();
    dist_json["shards"] = dist.shards;
    Json local_json = Json::array();
    for (const int c : dist.local_clusters) local_json.push_back(c);
    dist_json["local_clusters"] = std::move(local_json);
    dist_json["sketch_cells"] = static_cast<double>(dist.sketch_cells);
    dist_json["raw_cells"] = static_cast<double>(dist.raw_cells);
    dist_json["materialized_bytes"] =
        static_cast<double>(dist.materialized_bytes);
    dist_json["parallel_seconds"] = dist.parallel_seconds;
    dist_json["sequential_seconds"] = dist.sequential_seconds;
    out["dist"] = std::move(dist_json);
  }

  if (serve.requests > 0) {
    Json serve_json = Json::object();
    serve_json["requests"] = static_cast<double>(serve.requests);
    serve_json["batches"] = static_cast<double>(serve.batches);
    serve_json["swaps"] = static_cast<double>(serve.swaps);
    serve_json["batch_occupancy"] = serve.batch_occupancy;
    serve_json["throughput_rps"] = serve.throughput_rps;
    serve_json["p50_latency_us"] = serve.p50_latency_us;
    serve_json["p99_latency_us"] = serve.p99_latency_us;
    serve_json["p999_latency_us"] = serve.p999_latency_us;
    if (serve.shards > 0) {
      serve_json["shards"] = serve.shards;
      Json routed_json = Json::array();
      for (const std::uint64_t r : serve.routed) {
        routed_json.push_back(static_cast<double>(r));
      }
      serve_json["routed"] = std::move(routed_json);
      serve_json["generation"] = static_cast<double>(serve.generation);
    }
    out["serve"] = std::move(serve_json);
  }

  if (online.ticks > 0) {
    Json online_json = Json::object();
    online_json["ticks"] = static_cast<double>(online.ticks);
    online_json["swaps"] = static_cast<double>(online.swaps);
    online_json["refits"] = static_cast<double>(online.refits);
    online_json["holds"] = static_cast<double>(online.holds);
    online_json["rows_observed"] = static_cast<double>(online.rows_observed);
    online_json["rows_absorbed"] = static_cast<double>(online.rows_absorbed);
    online_json["generation"] = static_cast<double>(online.generation);
    online_json["first_refit_tick"] =
        static_cast<double>(online.first_refit_tick);
    online_json["clusters"] = online.clusters;
    online_json["baseline_score"] = online.baseline_score;
    online_json["last_drift"] = online.last_drift;
    online_json["max_drift"] = online.max_drift;
    Json drift_json = Json::array();
    for (const double s : online.drift_scores) drift_json.push_back(s);
    online_json["drift_scores"] = std::move(drift_json);
    if (!online.detectors.empty()) {
      Json detectors_json = Json::array();
      for (const DriftDetectorEvidence& detector : online.detectors) {
        Json detector_json = Json::object();
        detector_json["name"] = detector.name;
        detector_json["voting"] = detector.voting;
        detector_json["fired_ticks"] =
            static_cast<double>(detector.fired_ticks);
        detector_json["refits"] = static_cast<double>(detector.refits);
        detector_json["last_statistic"] = detector.last_statistic;
        detector_json["max_statistic"] = detector.max_statistic;
        detectors_json.push_back(std::move(detector_json));
      }
      online_json["detectors"] = std::move(detectors_json);
      Json triggers_json = Json::array();
      for (const std::string& fired : online.refit_detectors) {
        triggers_json.push_back(fired);
      }
      online_json["refit_detectors"] = std::move(triggers_json);
    }
    out["online"] = std::move(online_json);
  }

  Json timings_json = Json::object();
  timings_json["fit_seconds"] = timings.fit_seconds;
  timings_json["stage_report_seconds"] = timings.stage_report_seconds;
  timings_json["polish_seconds"] = timings.polish_seconds;
  timings_json["evaluate_seconds"] = timings.evaluate_seconds;
  timings_json["total_seconds"] = timings.total_seconds;
  out["timings"] = std::move(timings_json);

  return out;
}

}  // namespace mcdc::api

#include "api/engine.h"

#include <optional>
#include <stdexcept>

#include "common/timer.h"
#include "core/kestimate.h"
#include "core/mcdc.h"
#include "dist/distributed_mcdc.h"
#include "metrics/indices.h"
#include "metrics/internal.h"

namespace mcdc::api {

namespace {

// Per-stage validity evidence from a scored staircase.
std::vector<StageValidity> stage_validity(const core::KEstimate& estimate) {
  std::vector<StageValidity> stages;
  stages.reserve(estimate.candidates.size());
  for (const core::KCandidate& candidate : estimate.candidates) {
    StageValidity stage;
    stage.stage = candidate.stage;
    stage.k = candidate.k;
    stage.silhouette = candidate.silhouette;
    stage.persistence = candidate.persistence;
    stages.push_back(stage);
  }
  return stages;
}

}  // namespace

Json FitResult::to_json() const {
  Json out = report.to_json();
  // The report's "labels" array and the model's training labels are
  // identical by construction, so the embedded model omits its copy.
  if (model.fitted()) out["model"] = model.to_json(false);
  return out;
}

FitResult Engine::fit(const data::DatasetView& ds,
                      const FitOptions& options) const {
  FitResult out;
  RunReport& report = out.report;
  report.method = options.method;
  report.k = options.k;
  report.seed = options.seed;

  const auto finish_with = [&](Status status) -> FitResult& {
    report.status = status;
    out.status = std::move(status);
    return out;
  };

  const MethodInfo* info = registry_->info(options.method);
  if (info == nullptr) {
    return finish_with(Status::NotFound(
        "unknown method \"" + options.method +
        "\"; run `mcdc methods` for the catalogue"));
  }
  report.method_display = info->display_name;

  if (ds.num_objects() == 0) {
    return finish_with(Status::InvalidArgument("empty dataset"));
  }
  if (options.k < 0 ||
      static_cast<std::size_t>(options.k) > ds.num_objects()) {
    return finish_with(Status::InvalidArgument(
        "k = " + std::to_string(options.k) + " is outside [0, n]"));
  }

  Timer total;
  baselines::ClusterResult result;
  std::vector<int> kappa;
  std::vector<double> theta;

  // No preset k: read it off the default multi-granular staircase,
  // whatever method then consumes it. (The "mcdc" branch below has its
  // own path that reuses the estimating analysis for the clustering.)
  const auto resolve_k = [&]() {
    int k = options.k;
    if (k == 0) {
      k = core::estimate_k(ds, options.seed).recommended_k;
      report.k_estimated = true;
    }
    report.k = k;
    return k;
  };

  try {
    if (options.method == "mcdc") {
      // Direct pipeline path: identical labels to the registry's
      // McdcClusterer, but the multi-granular evidence (kappa, theta,
      // stage validity) is captured instead of thrown away. MGCPL and the
      // staircase scoring each run exactly once.
      registry_->validate(options.method, options.params);
      const core::McdcConfig config = mcdc_config_from_params(options.params);
      const core::Mcdc mcdc(config);

      Timer fit_timer;
      core::MgcplResult mgcpl;
      std::optional<core::KEstimate> estimate;
      int k = options.k;
      if (k == 0) {
        // The estimating analysis doubles as the clustering analysis: the
        // recommended k is a recorded granularity, so the staircase
        // supports it by construction.
        mgcpl = core::Mgcpl(config.mgcpl).run(ds, options.seed);
        estimate = core::estimate_k(ds, mgcpl);
        k = estimate->recommended_k;
        report.k_estimated = true;
      } else {
        mgcpl = mcdc.analyze(ds, k, options.seed);
      }
      report.k = k;
      const core::CameResult came = mcdc.aggregate(mgcpl, k, options.seed);
      report.timings.fit_seconds = fit_timer.elapsed_seconds();

      result.labels = came.labels;
      baselines::finalize_result(result, k);
      kappa = mgcpl.kappa;
      theta = came.theta;
      if (options.stage_reports) {
        Timer stage_timer;
        if (!estimate) estimate = core::estimate_k(ds, mgcpl);
        report.stages = stage_validity(*estimate);
        report.timings.stage_report_seconds = stage_timer.elapsed_seconds();
      }
    } else if (options.method == "mcdc-dist") {
      // Distributed path: run the protocol directly so the report keeps
      // the evidence (shard count, sketch traffic, parallel/sequential
      // times) the Clusterer adapter would throw away.
      registry_->validate(options.method, options.params);
      const dist::DistributedConfig config =
          distributed_config_from_params(options.params);
      const int k = resolve_k();

      Timer fit_timer;
      const dist::DistributedResult distributed =
          dist::DistributedMcdc(config).cluster(ds, k, options.seed);
      report.timings.fit_seconds = fit_timer.elapsed_seconds();

      result.labels = distributed.labels;
      baselines::finalize_result(result, k);
      report.dist.shards = static_cast<int>(distributed.local_clusters.size());
      report.dist.local_clusters = distributed.local_clusters;
      report.dist.sketch_cells = distributed.sketch_cells;
      report.dist.raw_cells = distributed.raw_cells;
      report.dist.materialized_bytes = distributed.materialized_bytes;
      report.dist.parallel_seconds = distributed.parallel_time;
      report.dist.sequential_seconds = distributed.sequential_time;
    } else {
      const auto clusterer = registry_->create(options.method, options.params);
      report.method_display = clusterer->name();
      const int k = resolve_k();

      Timer fit_timer;
      result = clusterer->cluster(ds, k, options.seed);
      report.timings.fit_seconds = fit_timer.elapsed_seconds();
    }
  } catch (const std::invalid_argument& error) {
    return finish_with(Status::InvalidArgument(error.what()));
  } catch (const std::exception& error) {
    return finish_with(Status::Failed(error.what()));
  }

  report.labels = result.labels;
  report.clusters_found = result.clusters_found;
  report.kappa = std::move(kappa);
  report.theta = std::move(theta);

  if (result.failed) {
    report.timings.total_seconds = total.elapsed_seconds();
    return finish_with(Status::Failed(
        report.method_display + " produced " +
        std::to_string(result.clusters_found) + " clusters instead of the " +
        "preset " + std::to_string(report.k)));
  }

  Timer polish_timer;
  out.model = Model::from_fit(options.method, ds, result.labels, report.k,
                              report.kappa, report.theta);
  report.timings.polish_seconds = polish_timer.elapsed_seconds();
  // The report serves the model's self-consistent partition (identical to
  // the method's raw labels except for the few objects a Model::from_fit
  // polish sweep moves), so Model::predict on the training rows reproduces
  // the reported labels exactly.
  report.labels = out.model.training_labels();
  baselines::ClusterResult served;
  served.labels = report.labels;
  baselines::finalize_result(served, report.k);
  report.clusters_found = served.clusters_found;

  if (options.evaluate) {
    Timer evaluate_timer;
    report.internal = metrics::internal_scores(ds, report.labels);
    if (ds.has_labels()) {
      report.has_external = true;
      const std::vector<int> truth = ds.labels();
      report.external = metrics::score_all(report.labels, truth);
    }
    report.timings.evaluate_seconds = evaluate_timer.elapsed_seconds();
  }

  report.timings.total_seconds = total.elapsed_seconds();
  {
    // Remember the fit for serve_online(). This copies the model once per
    // successful fit — small against the fit itself (the same structures
    // were just built from dozens of dataset passes), and the hot batch
    // paths (bench harnesses, distributed workers) call clusterers
    // directly rather than through Engine::fit.
    std::lock_guard lock(last_fit_mutex_);
    last_fit_ = std::make_shared<const Model>(out.model);
  }
  return finish_with(Status::Ok());
}

std::shared_ptr<serve::OnlineUpdater> Engine::serve_online(
    serve::OnlineConfig config) const {
  std::shared_ptr<const Model> model;
  {
    std::lock_guard lock(last_fit_mutex_);
    model = last_fit_;
  }
  if (model == nullptr) {
    throw std::logic_error("Engine::serve_online: no successful fit to serve");
  }
  // The learner inherits the fit's schema and dictionaries, so every
  // snapshot it publishes re-encodes foreign rows exactly like the fit it
  // evolves away from.
  auto learner = serve::make_online_learner(config, model->cardinalities(),
                                            model->value_dictionaries());
  auto server =
      std::make_shared<serve::ModelServer>(std::move(model), config.serve);
  return std::make_shared<serve::OnlineUpdater>(
      std::move(server), std::move(learner), std::move(config));
}

}  // namespace mcdc::api

// Engine — the single entry point for fitting any registered clusterer.
//
//   api::Engine engine;
//   api::FitOptions options;
//   options.method = "mcdc";          // any key from api::registry()
//   options.k = 0;                    // 0 = estimate from the staircase
//   const api::FitResult fit = engine.fit(ds, options);
//   fit.report    // labels, kappa, validity, timings, Status
//   fit.model     // reusable: predicts unseen rows, serialises to JSON
//
// Errors (unknown method, bad parameters, a method failing to reach the
// preset k) come back as a Status on the report, never as a crash.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "api/model.h"
#include "api/registry.h"
#include "api/report.h"
#include "data/dataset.h"
#include "data/view.h"
#include "serve/online.h"

namespace mcdc::api {

struct FitOptions {
  // Registry key of the algorithm (see `mcdc methods` / Registry::methods).
  std::string method = "mcdc";
  // Number of clusters; 0 estimates k from MGCPL's granularity staircase.
  int k = 0;
  std::uint64_t seed = 1;
  // Method parameters, validated against the registry schema.
  Params params;
  // Compute internal validity (and external, when the dataset carries
  // class labels) into the report.
  bool evaluate = true;
  // Per-granularity validity evidence (MCDC family only; costs one
  // silhouette pass per recorded stage).
  bool stage_reports = true;
};

struct FitResult {
  Status status;   // mirrors report.status
  Model model;     // fitted on success; default-constructed otherwise
  RunReport report;

  bool ok() const { return status.ok(); }
  // report JSON plus the serialised model under "model".
  Json to_json() const;
};

class Engine {
 public:
  // Uses the process-wide registry by default.
  explicit Engine(const Registry& registry = api::registry())
      : registry_(&registry) {}

  // Fits the viewed rows (a plain Dataset converts to the identity view;
  // shards, windows and complete-case subsets arrive as zero-copy views).
  FitResult fit(const data::DatasetView& ds,
                const FitOptions& options = {}) const;

  // Continuous learning: a serve::OnlineUpdater whose ModelServer starts on
  // the most recent successful fit (each successful fit() also remembers
  // its model for exactly this call) and whose learner (streaming MGCPL or
  // mcdc-online RGCL, per config) inherits that fit's schema and value
  // dictionaries. Feed observed traffic through OnlineUpdater::observe;
  // drift-triggered refits and incremental swaps publish back through the
  // server automatically. Throws std::logic_error when no fit has
  // succeeded yet.
  std::shared_ptr<serve::OnlineUpdater> serve_online(
      serve::OnlineConfig config = {}) const;

 private:
  const Registry* registry_;
  // Snapshot source for serve_online(); written under the mutex by fit()
  // (which stays const and thread-safe — an Engine may be shared across
  // fitting threads). The mutex member makes Engine non-copyable, which is
  // fine: it is two pointers, construct another.
  mutable std::mutex last_fit_mutex_;
  mutable std::shared_ptr<const Model> last_fit_;
};

}  // namespace mcdc::api

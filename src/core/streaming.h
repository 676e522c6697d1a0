// Streaming MGCPL — the paper's future-work direction 2 ("extending the
// whole MCDC to process streaming and dynamic data"), implemented as an
// online variant of the competitive penalization learner.
//
// Objects arrive one at a time (or in chunks). Each arrival runs one
// winner/rival update against the live cluster set (Eqs. 6-13, with the
// same NULL-aware similarity); cluster histograms optionally decay between
// chunks so stale structure fades (exponential forgetting), which lets the
// clustering track concept drift. After every chunk the learner prunes
// starved clusters and spawns clusters for poorly-explained objects, so k
// follows the stream.
//
// The live-cluster pool (stable ids, eviction, consolidation, classify,
// export) is core::OnlineLearner, shared with RgclLearner; this class adds
// only the MGCPL per-row rule, observe().
//
// The streaming learner trades the multi-stage granularity analysis for
// bounded memory: it maintains a single granularity (the "live" clusters),
// and its k estimate corresponds to MGCPL's finest stable granularity.
// Run the batch Mgcpl on a window snapshot when the full kappa series is
// needed.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/online_learner.h"

namespace mcdc::core {

struct StreamingConfig {
  double eta = 0.03;
  // delta at spawn/reset (see StageConfig::initial_delta).
  double initial_delta = 0.5;
  // Multiplies every histogram count between chunks; 1.0 = no forgetting,
  // values < 1 make the model track drift.
  double decay = 1.0;
  // An object whose winning similarity falls below this spawns a new
  // cluster (it is not explained by any live cluster).
  double novelty_threshold = 0.15;
  // Hard cap on live clusters, at least 2 (competition needs a winner and
  // a rival); the weakest cluster is dropped first.
  std::size_t max_clusters = 256;
};

class StreamingMgcpl final : public OnlineLearner {
 public:
  // The schema (cardinalities) must be fixed up front, as is standard for
  // streaming learners. `values` optionally carries the per-feature
  // dictionaries of the stream's source dataset, threaded into every
  // exported snapshot so it can re-encode foreign rows.
  StreamingMgcpl(std::vector<int> cardinalities,
                 const StreamingConfig& config = {},
                 std::vector<std::vector<std::string>> values = {});

  // One winner/rival update (Eqs. 6-13): the winner by (1 - rho) * u * s
  // absorbs the row, its delta grows by eta and the strongest rival's
  // shrinks by eta * s; a row no live cluster explains spawns one.
  int observe(const data::Value* row) override;

 private:
  StreamingConfig config_;
};

}  // namespace mcdc::core

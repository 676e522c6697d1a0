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
// Cluster identity: observe()/observe_chunk()/classify() label rows with
// STABLE cluster ids (monotonically increasing spawn ids), not positional
// indices. Evicting or pruning a cluster therefore never re-aims labels the
// caller already holds: an id either still resolves (has_cluster) to the
// same cluster contents or reports as retired. Histograms live in one flat
// core::ProfileSet bank (see profile_set.h), slot-indexed internally and
// re-mapped through ids_.
//
// The streaming learner trades the multi-stage granularity analysis for
// bounded memory: it maintains a single granularity (the "live" clusters),
// and its k estimate corresponds to MGCPL's finest stable granularity.
// Run the batch Mgcpl on a window snapshot when the full kappa series is
// needed.
//
// Thread-safety: a StreamingMgcpl is a single-writer object; calls on the
// same instance require external synchronisation. classify() is logically
// read-only but lazily builds the frozen score cache on its first call
// after a mutation, so even concurrent classify() calls must be serialised.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "api/model.h"
#include "core/profile_set.h"
#include "data/dataset.h"
#include "data/view.h"

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
  // Hard cap on live clusters; the weakest cluster is dropped first.
  std::size_t max_clusters = 256;
};

class StreamingMgcpl {
 public:
  // The schema (cardinalities) must be fixed up front, as is standard for
  // streaming learners.
  StreamingMgcpl(std::vector<int> cardinalities,
                 const StreamingConfig& config = {});

  // Processes one object; returns the stable id of the cluster it joined.
  // The id stays valid (and keeps meaning the same cluster) until that
  // cluster is pruned or evicted — it is never silently re-aimed.
  int observe(const data::Value* row);

  // Processes every row of a chunk (a Dataset or a zero-copy window view
  // over one) and then consolidates: decay, prune, win-count reset.
  // Returns the per-row stable cluster ids.
  std::vector<int> observe_chunk(const data::DatasetView& chunk);

  // Assigns rows of a dataset to the current clusters without learning
  // (e.g. to label a validation window), as stable cluster ids. On a model
  // with no live clusters every row gets -1 — there is nothing to assign
  // to, and pretending "cluster 0" would alias a future first cluster.
  std::vector<int> classify(const data::DatasetView& ds) const;

  // The snapshot boundary to the serving tier: exports the live clusters
  // as an api::Model that any serve::ModelServer can publish. Model
  // cluster j is the j-th smallest live stable id, so two exports over the
  // same live set agree on dense labels regardless of slot churn, and the
  // export's predict matches classify() up to that id -> dense remap. The
  // bank is copied verbatim (ProfileSet::select), so decayed fractional
  // histograms export losslessly. An empty learner exports a valid k = 0
  // model (predict -> -1, classify()'s empty contract) that still
  // round-trips through JSON and the binary artifact. `values` optionally
  // carries the per-feature dictionaries of the stream's source dataset so
  // the snapshot can re-encode foreign rows.
  api::Model to_model(std::vector<std::vector<std::string>> values = {}) const;

  // Runs the end-of-chunk consolidation (decay, starved-cluster prune,
  // win-count reset) without observing anything. observe_chunk() calls
  // this implicitly; a serve::OnlineUpdater driving per-row observe()
  // calls it on its own tick cadence instead.
  void end_chunk() { consolidate(); }

  std::size_t num_clusters() const { return ids_.size(); }
  // Total (decayed) mass across clusters.
  double total_mass() const;
  // History of cluster counts recorded at each consolidation.
  const std::vector<int>& k_history() const { return k_history_; }

  // --- stable-id introspection ---------------------------------------------
  // Live cluster ids in slot order (an evicted slot is reused in place, so
  // ids are unique but not necessarily ascending).
  const std::vector<int>& cluster_ids() const { return ids_; }
  // True while the cluster a label points at is still alive.
  bool has_cluster(int id) const { return slot_of(id) >= 0; }
  // Decayed mass of a live cluster; 0 for retired ids.
  double cluster_mass(int id) const;
  // Per-feature value-frequency histogram of a live cluster (empty vector
  // for retired ids) — lets callers verify a held label still resolves to
  // the same cluster contents. Throws std::out_of_range for a bad feature.
  std::vector<double> cluster_histogram(int id, std::size_t r) const;

 private:
  // Slot of a stable id, or -1 when the cluster was pruned/evicted.
  int slot_of(int id) const;
  // Winner slot by (1 - rho) * u * s over scores_ (already filled for this
  // row); `exclude` skips the winner during the rival scan.
  int strongest_slot(int exclude, double win_total) const;
  // Appends a cluster seeded with `row` (reusing the weakest cluster's
  // slot in place when the budget is full). Returns the new slot.
  int spawn(const data::Value* row);
  void consolidate();

  std::vector<int> cardinalities_;
  StreamingConfig config_;
  ProfileSet set_;              // slot-indexed flat histogram bank
  std::vector<double> mass_;    // decayed member count, per slot
  std::vector<double> delta_;   // sigmoid input (Eqs. 12-13), per slot
  std::vector<double> wins_;    // per-chunk win counts, per slot
  std::vector<int> ids_;        // slot -> stable id
  int next_id_ = 0;
  std::vector<int> k_history_;
  mutable std::vector<double> scores_;  // batched per-slot similarities
};

}  // namespace mcdc::core

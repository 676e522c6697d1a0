// OnlineLearner — the live-cluster pool both online learners share:
// StreamingMgcpl (the paper's MGCPL winner/rival update, run row by row)
// and RgclLearner (Likas' reinforcement-guided variant). The pool owns the
// flat core::ProfileSet bank, the per-cluster masses, deltas and win
// counts, the stable ids and the per-feature dictionaries, and every
// operation the two learners share; each learner supplies only its
// per-row rule, observe(). serve::OnlineLearner is an alias of this class.
//
// Cluster identity: observe()/observe_chunk()/classify() label rows with
// STABLE cluster ids (monotonically increasing spawn ids), not positional
// indices. Evicting or pruning a cluster therefore never re-aims labels the
// caller already holds: an id either still resolves (has_cluster) to the
// same cluster contents or reports as retired. The bank is slot-indexed
// internally and re-mapped through ids_.
//
// Thread-safety: a learner is a single-writer object; calls on the same
// instance require external synchronisation. classify() is logically
// read-only but lazily builds the frozen score cache on its first call
// after a mutation, so even concurrent classify() calls must be serialised.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "api/model.h"
#include "core/profile_set.h"
#include "data/dataset.h"
#include "data/view.h"

namespace mcdc::core {

class OnlineLearner {
 public:
  virtual ~OnlineLearner() = default;

  // Processes one object (in the learner's own encoding); returns the
  // stable id of the cluster it joined. The id stays valid (and keeps
  // meaning the same cluster) until that cluster is pruned or evicted — it
  // is never silently re-aimed.
  virtual int observe(const data::Value* row) = 0;

  // Processes every row of a chunk (a Dataset or a zero-copy window view
  // over one), then end_chunk(). Returns the per-row stable cluster ids.
  std::vector<int> observe_chunk(const data::DatasetView& chunk);

  // End-of-chunk consolidation: histograms and masses decay, starved
  // clusters (mass < 1.5 or u < 1e-3) are pruned, win counts reset and
  // deltas are floored back to initial_delta. observe_chunk() calls this
  // implicitly; a serve::OnlineUpdater driving per-row observe() calls it
  // on its own tick cadence instead.
  void end_chunk();

  // Assigns rows to the current clusters without learning (e.g. to label a
  // validation window), as stable cluster ids. On a learner with no live
  // clusters every row gets -1 — there is nothing to assign to, and
  // pretending "cluster 0" would alias a future first cluster.
  std::vector<int> classify(const data::DatasetView& ds) const;

  // The snapshot boundary to the serving tier: exports the live clusters
  // as an api::Model that any serve::ModelServer can publish, carrying the
  // dictionaries given at construction. Model cluster j is the j-th
  // smallest live stable id, so two exports over the same live set agree
  // on dense labels regardless of slot churn, and the export's predict
  // matches classify() up to that id -> dense remap. The bank is copied
  // verbatim (ProfileSet::select), so decayed fractional histograms export
  // losslessly. An empty learner exports a valid k = 0 model (predict ->
  // -1, classify()'s empty contract) that still round-trips through JSON
  // and the binary artifact.
  api::Model to_model() const;

  // Drops every cluster and all competition state; counters restart too,
  // so reset + replay reproduces a fresh learner exactly.
  void reset();

  std::size_t num_clusters() const { return ids_.size(); }
  std::size_t num_features() const { return cardinalities_.size(); }
  // Total (decayed) mass across clusters.
  double total_mass() const;

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

 protected:
  // `method` names the exported model and prefixes error messages. Throws
  // std::invalid_argument on an empty schema, a decay outside (0, 1] or a
  // budget below 2 clusters (competition needs a winner and a rival).
  OnlineLearner(std::string method, std::vector<int> cardinalities,
                double initial_delta, double decay, std::size_t max_clusters,
                std::vector<std::vector<std::string>> values);
  // Copies and moves go through the concrete learner, never a base
  // reference that would slice it.
  OnlineLearner(const OnlineLearner&) = default;
  OnlineLearner(OnlineLearner&&) = default;
  OnlineLearner& operator=(const OnlineLearner&) = default;
  OnlineLearner& operator=(OnlineLearner&&) = default;

  // Slot of a stable id, or -1 when the cluster was pruned/evicted.
  int slot_of(int id) const;
  // Strongest slot by (1 - rho) * u * s over scores_ (already filled for
  // this row), rho = wins / win_total (0 when win_total is 0); `exclude`
  // skips the winner during the rival scan. Ties resolve to the lowest
  // slot.
  int strongest_slot(int exclude, double win_total) const;
  // Appends a cluster seeded with `row` (reusing the weakest cluster's
  // slot in place when the budget is full). Returns the new slot.
  int spawn(const data::Value* row);

  std::vector<int> cardinalities_;
  ProfileSet set_;              // slot-indexed flat histogram bank
  std::vector<double> mass_;    // decayed member count, per slot
  std::vector<double> delta_;   // sigmoid input (Eqs. 12-13), per slot
  std::vector<double> wins_;    // per-chunk win counts, per slot
  std::vector<int> ids_;        // slot -> stable id
  std::vector<double> scores_;  // batched per-slot similarities
  // RgclLearner keys its draws on this row counter; reset() restarts it.
  std::uint64_t rows_seen_ = 0;

 private:
  std::string method_;
  double initial_delta_;
  double decay_;
  std::size_t max_clusters_;
  std::vector<std::vector<std::string>> values_;
  int next_id_ = 0;
};

}  // namespace mcdc::core

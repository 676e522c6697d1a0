// Fitted clustering model — the reusable artefact of Engine::fit.
//
// Fitting any registered method produces a Model holding the per-cluster
// value histograms of the final partition (on the original feature space),
// plus, for the MCDC family, the multi-granular evidence (kappa staircase,
// CAME granularity weights theta). The histograms are exactly the
// sufficient statistic of the paper's Sec. II-A object-cluster similarity,
// so the model can score objects that were never part of the fit:
// Model::predict assigns rows to the most similar cluster with the same
// NULL-aware Eq. (1)-(2) measure the streaming learner's classify() uses.
//
// Models serialise two ways: to JSON (and back) for debugging and
// inspection, and to a compact versioned binary artifact (artifact.h) for
// the serving tier — the artifact load is one mmap plus a checksum scan
// instead of a parse, and rejects corruption with a typed ArtifactError.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "api/json.h"
#include "core/profile_set.h"
#include "data/dataset.h"
#include "data/view.h"

namespace mcdc::api {

class Model {
 public:
  Model() = default;

  // Builds the model of a completed fit: per-cluster histograms are
  // accumulated from `labels` (dense ids in [0, k)) over `ds`. kappa and
  // theta may be empty for non-MCDC methods.
  //
  // With `refine` (the default), the labels are first polished to a
  // self-consistent fixpoint: batch sweeps reassign every object to its
  // most similar cluster (exactly the Sec. II-A Lloyd step of MCDC1)
  // until the partition repeats, so that predict() on the training rows
  // reproduces training_labels() exactly — the contract a served model is
  // expected to honour. Refinement converges within a few sweeps in
  // practice; if it would empty one of the k clusters (or fails to settle
  // within 100 sweeps), the method's original labels are kept verbatim.
  static Model from_fit(std::string method, const data::DatasetView& ds,
                        const std::vector<int>& labels, int k,
                        std::vector<int> kappa = {},
                        std::vector<double> theta = {}, bool refine = true);

  // Builds a model directly from a histogram bank — the snapshot boundary
  // the online learners export through (core::OnlineLearner::to_model,
  // shared by both). The bank's counts, non-null totals and sizes
  // are kept verbatim (decayed fractional values included), and its schema
  // is the model's. A k = 0 bank gives a valid k = 0 model, which predicts
  // -1 for every row (the classify() contract of an empty learner) and
  // still round-trips through JSON and the binary artifact — a serving
  // tier can hold it without wedging. `values` carries the per-feature
  // dictionaries when the producer has them; empty means raw codes pass
  // through on predict(ds). Throws std::invalid_argument on an empty
  // schema or dictionaries of the wrong width.
  static Model from_profiles(std::string method, core::ProfileSet profiles,
                             std::vector<std::vector<std::string>> values = {});

  bool fitted() const { return k() > 0; }
  // True once the model carries a schema — every fitted model does, and so
  // does a k = 0 online snapshot (which is servable but answers -1).
  bool has_schema() const { return num_features() > 0; }
  int k() const { return bank_.num_clusters(); }
  const std::string& method() const { return method_; }
  std::size_t num_features() const { return bank_.num_features(); }
  const std::vector<int>& cardinalities() const {
    return bank_.cardinalities();
  }
  // Per-feature value dictionaries in model code order; empty when the
  // model was built from raw codes (e.g. an online snapshot without a
  // source dataset). Online learners thread these through to_model() so a
  // refit snapshot re-encodes foreign rows exactly like the fit it
  // replaced.
  const std::vector<std::vector<std::string>>& value_dictionaries() const {
    return values_;
  }
  const std::vector<int>& training_labels() const { return training_labels_; }

  // MCDC-family evidence; empty for plain baselines.
  const std::vector<int>& kappa() const { return kappa_; }
  const std::vector<double>& theta() const { return theta_; }

  // Assigns a row of num_features() contiguous values to the most similar
  // cluster under the NULL-aware similarity; ties break to the smaller
  // cluster id. The codes must be in the model's own encoding; anything
  // outside [0, cardinality(r)) — data::kMissing included — contributes
  // similarity zero, like an unseen category. Throws std::logic_error
  // when the model has no schema; a k = 0 model answers -1 (nothing to
  // assign to, matching StreamingMgcpl::classify on an empty learner).
  int predict_row(const data::Value* row) const;

  // Best-cluster similarity of a row in the model's encoding — the same
  // sweep as predict_row, returning the winning Eq. (1) score instead of
  // the label. This is the drift detector's signal: a window whose mean
  // best score sinks below the published snapshot's baseline is data the
  // snapshot no longer explains. predict_scores over the one row; its tile
  // scratch is per thread and grow-only, so a steady-state call allocates
  // nothing. 0.0 for a k = 0 model; throws std::logic_error when the model
  // has no schema.
  double predict_score(const data::Value* row) const;

  // Batched predict_score over n rows packed like predict_rows' input:
  // out[i] is the running std::max from 0.0 over row i's k cluster scores
  // (0.0 for every row of a k = 0 model). Runs ProfileSet::best_scores,
  // the 32-row frozen tile, on the calling thread; every score is the
  // double score_all gives, bit for bit. Throws std::logic_error when the
  // model has no schema. The online loop scores its drift window through
  // it.
  void predict_scores(const data::Value* rows, std::size_t n,
                      double* out) const;

  // Batched predict_row: `rows` packs n rows of num_features() values each
  // (row-major, already in the model's encoding), labels land in
  // out[0..n). Runs the cache-blocked SIMD batch argmax
  // (ProfileSet::best_clusters) per chunk, fanned over the shared pool —
  // byte-identical to n predict_row calls at any thread count and any
  // dispatch level. This is the serving hot path (serve::BatchQueue
  // drains coalesced requests through it).
  void predict_rows(const data::Value* rows, std::size_t n, int* out) const;

  // Vectorised predict over a whole dataset. Because datasets are
  // dictionary-encoded per source in first-seen order, codes of an
  // independently loaded dataset are re-mapped into the model's encoding
  // through the stored value dictionaries; values the fit never saw score
  // as missing. Throws std::invalid_argument when the dataset's feature
  // count does not match the model's.
  std::vector<int> predict(const data::DatasetView& ds) const;

  // Translation tables from `ds`'s encoding into the model's, by value
  // name: map[r][v] is the model code of ds code v (data::kMissing when
  // the fit never saw that value). predict() applies this internally; a
  // serving layer replaying single rows from a foreign source builds the
  // map once and translates per row. Throws std::invalid_argument on a
  // feature-count mismatch.
  std::vector<std::vector<data::Value>> encoding_map(
      const data::DatasetView& ds) const;

  // The histogram bank — every cluster's size, per-feature non-null totals
  // and value counts, exactly as serialised. Read-only; the serving drift
  // detectors pool its per-feature marginals
  // (ProfileSet::marginal_distribution) to compare live traffic against
  // what the model was trained on. Empty (k = 0) until the model is
  // fitted.
  const core::ProfileSet& profile_bank() const { return bank_; }

  // Mode (most frequent value per feature, ties to the smallest code) and
  // training mass of cluster l — the locality router's view of a cluster
  // as a micro-cluster sketch. Throws std::logic_error when unfitted.
  std::vector<data::Value> cluster_mode(int l) const;
  double cluster_mass(int l) const;

  // `include_training_labels = false` drops the per-object label array —
  // used when the model is embedded next to a RunReport that already
  // carries the same labels.
  Json to_json(bool include_training_labels = true) const;
  // Inverse of to_json; throws std::runtime_error on malformed input,
  // negative or non-finite histogram values included. Documents without
  // per-cluster "non_null" totals load with the totals derived as row sums
  // of their (integral) counts.
  static Model from_json(const Json& json);

  // Binary artifact round trip (artifact.h has the format). to_binary /
  // from_binary work on in-memory buffers; save_binary / load_binary on
  // files (load_binary maps the file on POSIX instead of streaming it).
  // save_binary writes a sibling "<path>.tmp", fsyncs it and renames it
  // over `path`, so a crash or failed write never leaves a torn artifact:
  // readers see the previous file or the new one. Serialising a
  // schema-less (default-constructed) model throws std::logic_error — a
  // k = 0 online snapshot serialises fine; every load or write failure —
  // truncation, bad magic, unknown version, checksum mismatch, impossible
  // fields, an unwritable target — throws ArtifactError, and a failed load
  // builds no state. `include_training_labels = false` strips the label
  // array, as to_json.
  std::vector<std::uint8_t> to_binary(bool include_training_labels = true) const;
  static Model from_binary(const std::uint8_t* data, std::size_t size);
  void save_binary(const std::string& path,
                   bool include_training_labels = true) const;
  static Model load_binary(const std::string& path);

 private:
  std::string method_;
  // Per-feature value dictionaries in model code order, captured from the
  // training dataset so predict() can re-encode foreign datasets.
  std::vector<std::vector<std::string>> values_;
  std::vector<int> training_labels_;
  // The one histogram bank (profile_set.h): it carries the schema and k,
  // is what JSON and the artifact serialise, and is frozen once built so
  // predict batch-scores all k clusters per row division-free, fanning
  // rows out over the shared thread pool.
  core::ProfileSet bank_;
  std::vector<int> kappa_;
  std::vector<double> theta_;
};

// The one feature-width mismatch message every boundary uses — serving
// swaps (JSON and binary alike), encoding maps, cluster routing — so a
// mismatch always names both counts instead of an opaque "width mismatch":
//   "<context>: feature width mismatch: expected E features, got A"
std::string feature_width_message(const std::string& context,
                                  std::size_t expected, std::size_t actual);

}  // namespace mcdc::api

// ProfileSet — flat Structure-of-Arrays histogram bank for k clusters, the
// one bank behind every per-cluster value count in the library: fitting,
// the online learners, serialisation (api::Model JSON and the binary
// artifact) and serving read and write it, and the internal validity
// indices, the k-modes mode update and node grouping read it through
// from_assignment. It holds every cluster's per-feature value counts in
// one contiguous buffer, laid out value-major with a slot stride that can
// exceed k (spare slots are kept zero so append_cluster is amortised O(1)
// slots instead of a restride per spawn):
//
//   counts_[(offset[r] + v) * stride + l]  =  Psi_{Fr = v}(C_l),  l < k
//
// so for a fixed cell value (r, v) the k cluster counts are adjacent: one
// cache line serves the whole cluster sweep, and score_all() inverts the
// usual k x d loop to sweep each feature once across all clusters. This is
// the linear-time object-cluster scoring of the paper's Theorem 1 in the
// layout the hardware wants.
//
// Numerics contract: counts are doubles so the decayed (fractional)
// streaming histograms share the kernel; batch consumers only ever store
// integral values, for which every quotient count/non_null is exactly the
// ratio of member counts that the definition-level reference in
// similarity.h computes. score_all accumulates per-feature contributions in
// ascending feature order — the order of Eq. (1)'s sum — so batched scores
// (and therefore argmax labels) are byte-identical to the per-cluster
// score_one path, not merely close. Non-null totals are kept, not derived:
// under scale() they stop being exact row sums of the scaled counts.
//
// freeze() additionally precomputes every count/non_null quotient once, so
// frozen batched sweeps (Model::predict, refine_to_fixpoint, streaming
// classify, benchmarks) are pure load-multiply-add with no divisions. Each
// cached quotient is produced by the same division the live path performs,
// so frozen scores are bit-identical too. Any mutation thaws the cache.
//
// Every per-row operation takes one row form, a data::RowRef: a dataset
// row read in place (Dataset/DatasetView::row(i), stride n) or a packed
// row (a const Value*, stride 1). Both read the same codes in the same
// feature order, so the form never changes a bit of a result.
//
// Out-of-domain codes (anything outside [0, cardinality(r)), data::kMissing
// included) are treated as missing by every accessor and mutator — the same
// clamping Model::predict_row applies — so raw callers can never read or
// write out of bounds.
#pragma once

#include <cstddef>
#include <vector>

#include "core/aligned.h"
#include "data/dataset.h"
#include "data/view.h"

namespace mcdc::core {

class ProfileSet {
 public:
  ProfileSet() = default;
  // k empty clusters over the given schema.
  ProfileSet(const std::vector<int>& cardinalities, int k);

  // One histogram bank from an assignment vector (-1 entries skipped,
  // ids must lie in [0, k)).
  // Accumulates feature-major: one stride-1 sweep over each dataset
  // column writes only that feature's cell block of the bank — the
  // columnar fast path (identity views read Dataset::col pointers
  // directly). Counts are order-independent integral sums, so the bank is
  // bit-identical to row-wise add() accumulation.
  static ProfileSet from_assignment(const data::DatasetView& ds,
                                    const std::vector<int>& assignment, int k);
  // A bank of sizes.size() clusters from cluster-major arrays — the form
  // api::Model serialises: sizes[l], non_null[l * d + r] and
  // counts[l * C + offset(r) + v] with C the sum of cardinalities. Values
  // are copied verbatim, so decayed fractional histograms survive exactly.
  // Throws std::invalid_argument when an array length disagrees with the
  // schema.
  static ProfileSet from_arrays(const std::vector<int>& cardinalities,
                                const std::vector<double>& sizes,
                                const std::vector<double>& non_null,
                                const std::vector<double>& counts);
  // A new bank holding clusters[j] of this one as its cluster j. Counts,
  // non-null totals and sizes are copied, not recomputed — the online
  // learners' lossless snapshot export. Throws std::out_of_range on an id
  // outside [0, num_clusters()).
  ProfileSet select(const std::vector<int>& clusters) const;

  int num_clusters() const { return k_; }
  std::size_t num_features() const { return cardinalities_.size(); }
  const std::vector<int>& cardinalities() const { return cardinalities_; }

  // Member mass of cluster l (decayed and hence fractional under scale()).
  double size(int l) const { return size_[static_cast<std::size_t>(l)]; }
  bool empty(int l) const { return size_[static_cast<std::size_t>(l)] <= 0.0; }

  // Psi_{Fr = v}(C_l); 0 for out-of-domain v.
  double count(int l, std::size_t r, data::Value v) const {
    if (!in_domain(r, v)) return 0.0;
    return counts_[cell(r, v) * stride_ + static_cast<std::size_t>(l)];
  }
  // Psi_{Fr != NULL}(C_l).
  double non_null(int l, std::size_t r) const {
    return non_null_[r * stride_ + static_cast<std::size_t>(l)];
  }
  // Eq. (2); zero for missing / out-of-domain v or an all-NULL column.
  double value_similarity(int l, std::size_t r, data::Value v) const;

  // Raw lane reads for a caller that keeps its own per-cluster state over
  // the bank (CompetitiveStage's lane bitmap and quotient cache). Cells are
  // numbered value-major, cell(r, v) = sum of cardinalities before r plus
  // v, in [0, num_cells()) for an in-domain v; count_lanes(cell(r, v))[l]
  // == count(l, r, v) and non_null_lanes(r)[l] == non_null(l, r) for
  // l < num_clusters(). Any mutation may move the bank, so re-read the
  // pointers after one.
  std::size_t num_cells() const { return total_cells_; }
  std::size_t cell(std::size_t r, data::Value v) const {
    return offsets_[r] + static_cast<std::size_t>(v);
  }
  const double* count_lanes(std::size_t cell) const {
    return counts_.data() + cell * stride_;
  }
  const double* non_null_lanes(std::size_t r) const {
    return non_null_.data() + r * stride_;
  }

  // O(d) membership maintenance. Out-of-domain cells contribute nothing.
  void add(int l, data::RowRef row);
  void remove(int l, data::RowRef row);
  // remove(from) + add(to) fused into one row pass.
  void move(int from, int to, data::RowRef row);
  // Multiplies every count, non-null total and size by `factor`
  // (exponential forgetting of the streaming learner).
  void scale(double factor);

  // Appends an empty cluster and returns its index. Reuses a spare slot
  // when one exists; otherwise grows the slot stride geometrically, so a
  // stream of spawns costs amortised O(sum m_r) each.
  int append_cluster();
  // Zeros cluster l in place, O(sum m_r) — for slot reuse (e.g. streaming
  // eviction), which avoids the O(k * sum m_r) restride of
  // remove_clusters + append_cluster.
  void clear_cluster(int l);
  // Drops every cluster l with dead[l] != 0, compacting the survivors in
  // order. Returns the dense remap: old id -> new id, or -1 when dropped.
  std::vector<int> remove_clusters(const std::vector<char>& dead);

  // Batched Eq. (1): out[l] = s(row, C_l) for every cluster, one
  // feature-major sweep. `out` must hold num_clusters() doubles.
  void score_all(data::RowRef row, double* out) const;
  // Batched Eq. (14): weights are feature-major, weights[r * k + l] = w_rl
  // (each cluster's weight column sums to 1, so no 1/d factor). Always
  // divides the live counts: its callers change the bank between rows and
  // never freeze it, and a frozen cache holds the same quotients anyway.
  void weighted_score_all(data::RowRef row, const double* weights,
                          double* out) const;
  // Eq. (1) against a single cluster (the anomaly eccentricity path).
  double score_one(int l, data::RowRef row) const;
  // Eq. (14) against a single cluster with a length-d weight vector.
  double weighted_score_one(int l, data::RowRef row,
                            const std::vector<double>& weights) const;

  // Argmax of score_all with ties resolved to the lowest cluster id.
  // `scratch` is resized to k; pass a per-thread buffer in parallel sweeps.
  int best_cluster(data::RowRef row, std::vector<double>& scratch) const;

  // Frozen batched argmax over a row range: out[i - lo] =
  // best_cluster(ds.row(i)) for i in [lo, hi), labels byte-identical to the
  // per-row call. Freezes lazily (same single-writer contract as
  // freeze()); sweeps cache-blocked k x d tiles so a block of clusters
  // stays resident across features when k is large — the production
  // batch path (Model::predict_rows, refine_to_fixpoint, classify).
  void best_clusters(const data::DatasetView& ds, std::size_t lo,
                     std::size_t hi, int* out) const;
  // The same over n contiguous pre-encoded rows (row i at
  // rows + i * num_features()).
  void best_clusters(const data::Value* rows, std::size_t n, int* out) const;
  // Frozen batched best score over n contiguous pre-encoded rows: out[i] is
  // a running std::max from 0.0 over row i's k lane scores in ascending
  // lane order (0.0 when k = 0). The same tile sweep as best_clusters; each
  // lane's score is score_all's double bit for bit, so out[i] is exactly
  // the max over score_all of row i.
  void best_scores(const data::Value* rows, std::size_t n, double* out) const;

  // Precomputes every count/non_null quotient so subsequent score sweeps
  // are division-free. Call when the profiles are frozen for a batch pass;
  // any mutation invalidates the cache automatically.
  //
  // Thread-safety contract, precisely: the cache is rebuilt lazily in
  // place (const method, mutable members), so read-only consumers can
  // freeze without copying the bank — but freeze() WRITES that cache, so
  // the first freeze() after a mutation must complete on one thread, with
  // a happens-before edge (thread creation, task-queue handoff) to every
  // other user, before any concurrent access; parallel sweeps therefore
  // freeze once before fanning out. After that, any number of threads may
  // score concurrently — including re-entering freeze(), which returns
  // immediately once frozen_ is set. What is NOT safe is a first freeze()
  // racing reads or another freeze(): "const" here is logically-const,
  // not internally synchronised. test_profile_set.ConcurrentFrozenReads
  // pins this contract under TSan.
  void freeze() const;
  bool frozen() const { return frozen_; }

  // Most frequent value of cluster l per feature (ties -> smallest code;
  // data::kMissing for an all-NULL column) — the cluster's k-modes mode.
  std::vector<data::Value> mode(int l) const;

  // Pooled per-feature value distribution across every cluster:
  // out[v] = sum_l count(l, r, v) / sum_l non_null(l, r) for v in
  // [0, cardinality(r)). Returns the pooled non-null mass (out is zeroed
  // when it is 0 — an all-NULL or empty bank carries no distribution).
  // Accumulated in ascending cluster order; a k = 1 bank over window rows
  // is exactly a per-feature window histogram, which is how the serving
  // drift detectors compare traffic against a published model's profiles.
  double marginal_distribution(std::size_t r, std::vector<double>& out) const;

 private:
  bool in_domain(std::size_t r, data::Value v) const {
    return v >= 0 && v < cardinalities_[r];
  }
  void thaw() {
    frozen_ = false;
    probs_.clear();
  }
  // The frozen row-tile sweep behind best_clusters and best_scores, for
  // rows i in [0, n): value(i, r) reads row i's code of feature r, and
  // reduce(i, scores) consumes the row's k lane scores. Defined (and only
  // instantiated) in profile_set.cpp.
  template <typename ValueAt, typename Reduce>
  void sweep_row_tiles(std::size_t n, ValueAt value, Reduce reduce) const;

  int k_ = 0;
  // Slots per (feature, value) cell, >= k_; slots in [k_, stride_) are
  // always all-zero (the append_cluster reuse invariant). Rounded up to a
  // whole cache line of doubles (kBankAlignment / sizeof(double) = 8) so
  // every cell block of the 64-byte-aligned banks starts line-aligned for
  // the SIMD sweeps.
  std::size_t stride_ = 0;
  std::vector<int> cardinalities_;
  std::vector<std::size_t> offsets_;  // offsets_[r] = sum of cardinalities < r
  std::size_t total_cells_ = 0;       // sum of cardinalities
  AlignedVec<double> counts_;         // [cell * stride + l]
  AlignedVec<double> non_null_;       // [r * stride + l]
  AlignedVec<double> size_;           // [l], length stride_
  // Lazily built frozen-quotient cache (counts_ layout). Mutable for the
  // logically-const lazy freeze — see freeze() for the single-writer
  // contract.
  mutable AlignedVec<double> probs_;
  mutable bool frozen_ = false;
};

}  // namespace mcdc::core

#include "core/online_learner.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "common/thread_pool.h"
#include "core/competitive.h"

namespace mcdc::core {

OnlineLearner::OnlineLearner(std::string method, std::vector<int> cardinalities,
                             double initial_delta, double decay,
                             std::size_t max_clusters,
                             std::vector<std::vector<std::string>> values)
    : cardinalities_(std::move(cardinalities)),
      set_(cardinalities_, 0),
      method_(std::move(method)),
      initial_delta_(initial_delta),
      decay_(decay),
      max_clusters_(max_clusters),
      values_(std::move(values)) {
  if (cardinalities_.empty()) {
    throw std::invalid_argument(method_ + ": empty schema");
  }
  if (decay_ <= 0.0 || decay_ > 1.0) {
    throw std::invalid_argument(method_ + ": decay must be in (0, 1]");
  }
  if (max_clusters_ < 2) {
    throw std::invalid_argument(method_ + ": max_clusters must be >= 2");
  }
}

int OnlineLearner::slot_of(int id) const {
  for (std::size_t l = 0; l < ids_.size(); ++l) {
    if (ids_[l] == id) return static_cast<int>(l);
  }
  return -1;
}

double OnlineLearner::cluster_mass(int id) const {
  const int slot = slot_of(id);
  return slot < 0 ? 0.0 : mass_[static_cast<std::size_t>(slot)];
}

std::vector<double> OnlineLearner::cluster_histogram(int id,
                                                     std::size_t r) const {
  if (r >= cardinalities_.size()) {
    throw std::out_of_range(method_ + "::cluster_histogram: bad feature");
  }
  const int slot = slot_of(id);
  if (slot < 0) return {};
  std::vector<double> hist(static_cast<std::size_t>(cardinalities_[r]), 0.0);
  for (data::Value v = 0; v < cardinalities_[r]; ++v) {
    hist[static_cast<std::size_t>(v)] = set_.count(slot, r, v);
  }
  return hist;
}

int OnlineLearner::strongest_slot(int exclude, double win_total) const {
  int best = -1;
  double best_score = -1.0;
  for (std::size_t l = 0; l < ids_.size(); ++l) {
    if (static_cast<int>(l) == exclude) continue;
    const double rho = win_total > 0.0 ? wins_[l] / win_total : 0.0;
    const double score =
        (1.0 - rho) * cluster_weight_sigmoid(delta_[l]) * scores_[l];
    if (score > best_score) {
      best_score = score;
      best = static_cast<int>(l);
    }
  }
  return best;
}

int OnlineLearner::spawn(const data::Value* row) {
  int slot;
  if (ids_.size() >= max_clusters_) {
    // Evict the weakest cluster (lowest mass) in place: zero its slot and
    // hand it a fresh stable id — O(sum m_r) instead of restriding the
    // whole bank. Survivors keep their ids, so labels handed out earlier
    // still resolve correctly; only the evicted id retires.
    std::size_t weakest = 0;
    for (std::size_t l = 1; l < ids_.size(); ++l) {
      if (mass_[l] < mass_[weakest]) weakest = l;
    }
    slot = static_cast<int>(weakest);
    set_.clear_cluster(slot);
    ids_[weakest] = next_id_++;
  } else {
    slot = set_.append_cluster();
    mass_.push_back(0.0);
    delta_.push_back(0.0);
    wins_.push_back(0.0);
    ids_.push_back(next_id_++);
  }
  set_.add(slot, row);
  const auto lu = static_cast<std::size_t>(slot);
  mass_[lu] = 1.0;
  delta_[lu] = initial_delta_;
  wins_[lu] = 0.0;
  return slot;
}

std::vector<int> OnlineLearner::observe_chunk(const data::DatasetView& chunk) {
  if (chunk.num_features() != cardinalities_.size()) {
    throw std::invalid_argument(method_ + ": chunk schema mismatch");
  }
  std::vector<int> assigned(chunk.num_objects());
  std::vector<data::Value> row(cardinalities_.size());
  for (std::size_t i = 0; i < chunk.num_objects(); ++i) {
    chunk.gather_row(i, row.data());
    assigned[i] = observe(row.data());
  }
  end_chunk();
  return assigned;
}

void OnlineLearner::end_chunk() {
  // Exponential forgetting.
  if (decay_ < 1.0) {
    set_.scale(decay_);
    for (double& m : mass_) m *= decay_;
  }
  // Prune starved clusters: mass below ~one standing object (noise hits
  // alone cannot sustain a cluster against decay), or u driven to zero by
  // rival penalization. Surviving clusters keep their stable ids.
  std::vector<char> dead(ids_.size(), 0);
  bool any = false;
  for (std::size_t l = 0; l < ids_.size(); ++l) {
    if (mass_[l] < 1.5 || cluster_weight_sigmoid(delta_[l]) < 1e-3) {
      dead[l] = 1;
      any = true;
    }
  }
  if (any) {
    set_.remove_clusters(dead);
    std::size_t live = 0;
    for (std::size_t l = 0; l < ids_.size(); ++l) {
      if (dead[l]) continue;
      mass_[live] = mass_[l];
      delta_[live] = delta_[l];
      ids_[live] = ids_[l];
      ++live;
    }
    mass_.resize(live);
    delta_.resize(live);
    ids_.resize(live);
  }
  // Reset the per-chunk competition state (the streaming analogue of
  // Alg. 1 line 13).
  wins_.assign(ids_.size(), 0.0);
  for (double& delta : delta_) delta = std::max(delta, initial_delta_);
}

std::vector<int> OnlineLearner::classify(const data::DatasetView& ds) const {
  if (ds.num_features() != cardinalities_.size()) {
    throw std::invalid_argument(method_ + ": dataset schema mismatch");
  }
  std::vector<int> labels(ds.num_objects(), -1);
  if (ids_.empty()) return labels;  // nothing to assign to
  // Classification never learns, so the bank is frozen in place (a lazy
  // const cache — repeated classify calls between learning steps reuse it)
  // and the rows fan out over the shared pool (disjoint writes per chunk).
  set_.freeze();
  parallel_chunks(ds.num_objects(), 1024,
                  [&](std::size_t lo, std::size_t hi) {
                    std::vector<int> slots(hi - lo);
                    set_.best_clusters(ds, lo, hi, slots.data());
                    for (std::size_t i = lo; i < hi; ++i) {
                      labels[i] =
                          ids_[static_cast<std::size_t>(slots[i - lo])];
                    }
                  });
  return labels;
}

api::Model OnlineLearner::to_model() const {
  // Dense model ids in ascending stable-id order: slot order is eviction
  // churn, spawn order is history — only the id order is reproducible
  // across two learners that converged to the same live set.
  std::vector<int> order(ids_.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](int a, int b) { return ids_[a] < ids_[b]; });
  return api::Model::from_profiles(method_, set_.select(order), values_);
}

void OnlineLearner::reset() {
  set_ = ProfileSet(cardinalities_, 0);
  mass_.clear();
  delta_.clear();
  wins_.clear();
  ids_.clear();
  rows_seen_ = 0;
  next_id_ = 0;
}

double OnlineLearner::total_mass() const {
  double total = 0.0;
  for (const double m : mass_) total += m;
  return total;
}

}  // namespace mcdc::core

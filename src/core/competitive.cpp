#include "core/competitive.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "core/simd.h"

namespace mcdc::core {

double cluster_weight_sigmoid(double delta) {
  return 1.0 / (1.0 + std::exp(-10.0 * delta + 5.0));
}

CompetitiveStage::CompetitiveStage(const data::DatasetView& ds,
                                   const std::vector<std::size_t>& seeds,
                                   const StageConfig& config)
    : ds_(ds), config_(config), global_(ds) {
  if (seeds.empty()) {
    throw std::invalid_argument("CompetitiveStage: need at least one seed");
  }
  if (ds.num_objects() == 0) {
    throw std::invalid_argument("CompetitiveStage: empty dataset");
  }
  const std::size_t k = seeds.size();
  set_ = ProfileSet(ds.cardinalities(), static_cast<int>(k));
  assignment_.assign(ds.num_objects(), -1);
  for (std::size_t l = 0; l < k; ++l) {
    const std::size_t i = seeds[l];
    if (i >= ds.num_objects()) {
      throw std::invalid_argument("CompetitiveStage: seed out of range");
    }
    if (assignment_[i] != -1) {
      throw std::invalid_argument("CompetitiveStage: duplicate seed row");
    }
    set_.add(static_cast<int>(l), ds.row(i));
    assignment_[i] = static_cast<int>(l);
  }
  omega_.assign(k, std::vector<double>(ds.num_features(),
                                       1.0 / static_cast<double>(ds.num_features())));
  g_prev_.assign(k, 0.0);
  g_cur_.assign(k, 0.0);
  delta_.assign(k, config.initial_delta);
  u_.assign(k, config.update == WeightUpdate::sigmoid_rival
                   ? cluster_weight_sigmoid(config.initial_delta)
                   : 1.0);
  rebuild_weight_bank();
}

int CompetitiveStage::run() {
  int passes = 0;
  const auto k_start = static_cast<std::size_t>(set_.num_clusters());
  // Elimination quota that ends the stage (0 = no quota).
  std::size_t quota = 0;
  if (config_.stage_drop_fraction > 0.0) {
    quota = static_cast<std::size_t>(
        std::ceil(config_.stage_drop_fraction * static_cast<double>(k_start)));
    quota = std::max<std::size_t>(quota, 1);
  }

  while (passes < config_.max_passes) {
    ++passes;
    const bool changed = sweep();
    prune_empty_clusters();
    if (config_.feature_weighting) refresh_feature_weights();
    if (!config_.cumulative_rho) {
      g_prev_ = g_cur_;
      std::fill(g_cur_.begin(), g_cur_.end(), 0.0);
    }
    if (!changed) break;  // Q_new == Q_old (Alg. 1 lines 8-10)
    if (quota > 0 &&
        k_start - static_cast<std::size_t>(set_.num_clusters()) >= quota) {
      break;
    }
  }
  return passes;
}

bool CompetitiveStage::sweep() {
  const std::size_t n = ds_.num_objects();
  const std::size_t d = ds_.num_features();
  const std::vector<int>& cards = ds_.cardinalities();
  const auto k = static_cast<std::size_t>(set_.num_clusters());
  const bool seeding = std::find(assignment_.begin(), assignment_.end(),
                                 -1) != assignment_.end();
  if (k > 1) {
    if (seeding) {
      build_lane_bitmap();
    } else {
      build_quotient_cache();
    }
  }
  // Eq. (7)'s sum of g. Every count is integral, so the running sum equals
  // the re-summed one bit for bit.
  double g_total = 0.0;
  for (const double g : g_prev_) g_total += g;
  scores_.resize(k);
  row_cells_.resize(d);
  bool changed = false;

  for (std::size_t i = 0; i < n; ++i) {
    const data::RowRef row = ds_.row(i);
    // Winner and rival; a lone cluster trivially wins every object.
    std::size_t v = 0;
    std::size_t h = 0;
    if (k > 1) {
      for (std::size_t r = 0; r < d; ++r) {
        const data::Value x = row[r];
        row_cells_[r] =
            x >= 0 && x < cards[r] ? set_.cell(r, x) : simd::kNoCell;
      }
      if (seeding) {
        score_nonzero_lanes();
      } else {
        score_cached();
      }
      // The Eq. (7) penalty transform. Under cumulative_rho g_prev_
      // mirrors the stage-cumulative counts, otherwise it holds the
      // previous sweep's frozen counts. With rho = 0, (1 - rho) * u * s is
      // u * s exactly.
      if (g_total > 0.0) {
        for (std::size_t l = 0; l < k; ++l) {
          scores_[l] = (1.0 - g_prev_[l] / g_total) * u_[l] * scores_[l];
        }
      } else {
        for (std::size_t l = 0; l < k; ++l) scores_[l] = u_[l] * scores_[l];
      }
      // Winner (Eq. 6) and rival (Eq. 9) in one scan with lowest-id ties:
      // the same pair as an argmax followed by a second argmax with the
      // winner masked below every score (all are >= 0).
      double best = -1.0;
      double second = -1.0;
      for (std::size_t l = 0; l < k; ++l) {
        const double s = scores_[l];
        if (s > best) {
          second = best;
          h = v;
          best = s;
          v = l;
        } else if (s > second) {
          second = s;
          h = l;
        }
      }
    }

    // Assign x_i to the winner (Eq. 4 row update).
    const int old = assignment_[i];
    if (old != static_cast<int>(v)) {
      if (old >= 0) {
        set_.move(old, static_cast<int>(v), row);
      } else {
        set_.add(static_cast<int>(v), row);
      }
      assignment_[i] = static_cast<int>(v);
      changed = true;
      if (k > 1 && seeding) {
        update_lane_bits(old, v);
      } else if (k > 1) {
        // Only the features the row observes changed a non-null total.
        for (std::size_t r = 0; r < d; ++r) {
          if (row_cells_[r] == simd::kNoCell) continue;
          recache(r, static_cast<std::size_t>(old));
          recache(r, v);
        }
      }
    }
    g_cur_[v] += 1.0;  // Eq. (10)
    if (config_.cumulative_rho) {
      g_prev_[v] += 1.0;
      g_total += 1.0;
    }
    if (k == 1) continue;

    if (config_.update == WeightUpdate::sigmoid_rival) {
      delta_[v] += config_.eta;  // Eq. (12)
      // Eq. (13): rival pushed away proportionally to closeness. The
      // similarity is re-evaluated after the move because the winner's
      // (and a moved-from rival's) histogram just changed.
      const std::size_t p = config_.penalty_uses_winner_similarity ? v : h;
      double penalty_sim = 0.0;
      if (seeding) {
        penalty_sim =
            set_.weighted_score_one(static_cast<int>(p), row, omega_[p]);
      } else {
        // The cached terms of the row's observed features, in feature
        // order; a missing feature adds +0.0 in weighted_score_one.
        for (std::size_t r = 0; r < d; ++r) {
          const std::size_t c = row_cells_[r];
          if (c != simd::kNoCell) penalty_sim += quotients_[c * k + p];
        }
      }
      delta_[h] -= config_.eta * penalty_sim;
      u_[v] = cluster_weight_sigmoid(delta_[v]);
      u_[h] = cluster_weight_sigmoid(delta_[h]);
    } else {
      u_[v] += config_.eta;  // Eq. (8), winner-only reward
    }
  }
  return changed;
}

void CompetitiveStage::build_lane_bitmap() {
  const auto k = static_cast<std::size_t>(set_.num_clusters());
  lane_words_ = (k + 63) / 64;
  lane_bits_.assign(set_.num_cells() * lane_words_, 0);
  for (std::size_t c = 0; c < set_.num_cells(); ++c) {
    const double* counts = set_.count_lanes(c);
    std::uint64_t* words = lane_bits_.data() + c * lane_words_;
    for (std::size_t l = 0; l < k; ++l) {
      if (counts[l] != 0.0) words[l / 64] |= std::uint64_t{1} << (l % 64);
    }
  }
}

void CompetitiveStage::update_lane_bits(int from, std::size_t to) {
  for (const std::size_t c : row_cells_) {
    if (c == simd::kNoCell) continue;
    std::uint64_t* words = lane_bits_.data() + c * lane_words_;
    words[to / 64] |= std::uint64_t{1} << (to % 64);
    const auto f = static_cast<std::size_t>(from);
    if (from >= 0 && set_.count_lanes(c)[f] == 0.0) {
      words[f / 64] &= ~(std::uint64_t{1} << (f % 64));
    }
  }
}

void CompetitiveStage::score_nonzero_lanes() {
  const auto k = static_cast<std::size_t>(set_.num_clusters());
  std::fill(scores_.begin(), scores_.end(), 0.0);
  for (std::size_t r = 0; r < row_cells_.size(); ++r) {
    const std::size_t c = row_cells_[r];
    if (c == simd::kNoCell) continue;
    const double* w = wt_.data() + r * k;
    const double* counts = set_.count_lanes(c);
    const double* nn = set_.non_null_lanes(r);
    const std::uint64_t* words = lane_bits_.data() + c * lane_words_;
    for (std::size_t j = 0; j < lane_words_; ++j) {
      for (std::uint64_t b = words[j]; b != 0; b &= b - 1) {
        const std::size_t l =
            j * 64 + static_cast<std::size_t>(std::countr_zero(b));
        // A non-zero count implies a non-zero non-null total: the term the
        // dense kernel adds, w * (c / nn).
        scores_[l] += w[l] * (counts[l] / nn[l]);
      }
    }
  }
}

void CompetitiveStage::build_quotient_cache() {
  const auto k = static_cast<std::size_t>(set_.num_clusters());
  quotients_.resize(set_.num_cells() * k);
  for (std::size_t r = 0; r < ds_.num_features(); ++r) {
    for (std::size_t l = 0; l < k; ++l) recache(r, l);
  }
}

void CompetitiveStage::recache(std::size_t r, std::size_t l) {
  const auto k = static_cast<std::size_t>(set_.num_clusters());
  // The dense kernel's term, divided the same way.
  const double w = wt_[r * k + l];
  const double nn = set_.non_null_lanes(r)[l];
  const std::size_t first = set_.cell(r, 0);
  const auto last = first + static_cast<std::size_t>(ds_.cardinality(r));
  for (std::size_t c = first; c < last; ++c) {
    quotients_[c * k + l] = nn > 0.0 ? w * (set_.count_lanes(c)[l] / nn) : 0.0;
  }
}

void CompetitiveStage::score_cached() {
  const auto k = static_cast<std::size_t>(set_.num_clusters());
  const simd::Kernels& kr = simd::kernels();
  std::fill(scores_.begin(), scores_.end(), 0.0);
  for (const std::size_t c : row_cells_) {
    if (c == simd::kNoCell) continue;
    kr.acc_f64(scores_.data(), quotients_.data() + c * k, k);
  }
}

void CompetitiveStage::reset_learning_state() {
  const auto k = static_cast<std::size_t>(set_.num_clusters());
  g_prev_.assign(k, 0.0);
  g_cur_.assign(k, 0.0);
  delta_.assign(k, config_.initial_delta);
  u_.assign(k, config_.update == WeightUpdate::sigmoid_rival
                   ? cluster_weight_sigmoid(config_.initial_delta)
                   : 1.0);
}

void CompetitiveStage::refresh_feature_weights() {
  for (int l = 0; l < set_.num_clusters(); ++l) {
    omega_[static_cast<std::size_t>(l)] = feature_weights(global_, set_, l);
  }
  rebuild_weight_bank();
}

void CompetitiveStage::rebuild_weight_bank() {
  const auto k = static_cast<std::size_t>(set_.num_clusters());
  const std::size_t d = ds_.num_features();
  wt_.resize(d * k);
  for (std::size_t r = 0; r < d; ++r) {
    for (std::size_t l = 0; l < k; ++l) {
      // Both scoring forms skip terms the dense kernel adds as +0.0; that
      // holds only for finite, non-negative weights.
      assert(std::isfinite(omega_[l][r]) && omega_[l][r] >= 0.0);
      wt_[r * k + l] = omega_[l][r];
    }
  }
}

void CompetitiveStage::prune_empty_clusters() {
  const auto k = static_cast<std::size_t>(set_.num_clusters());
  std::vector<char> dead(k, 0);
  bool any = false;
  for (std::size_t l = 0; l < k; ++l) {
    if (set_.empty(static_cast<int>(l))) {
      dead[l] = 1;
      any = true;
    }
  }
  if (!any) return;
  const std::vector<int> remap = set_.remove_clusters(dead);
  const auto live = static_cast<std::size_t>(set_.num_clusters());
  for (std::size_t l = 0; l < k; ++l) {
    if (remap[l] < 0) continue;
    const auto nl = static_cast<std::size_t>(remap[l]);
    if (nl != l) {
      omega_[nl] = std::move(omega_[l]);
      g_prev_[nl] = g_prev_[l];
      g_cur_[nl] = g_cur_[l];
      delta_[nl] = delta_[l];
      u_[nl] = u_[l];
    }
  }
  omega_.resize(live);
  g_prev_.resize(live);
  g_cur_.resize(live);
  delta_.resize(live);
  u_.resize(live);
  for (auto& a : assignment_) {
    if (a >= 0) a = remap[static_cast<std::size_t>(a)];
  }
  rebuild_weight_bank();
}

}  // namespace mcdc::core

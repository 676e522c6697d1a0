#include "core/streaming.h"

#include <utility>

namespace mcdc::core {

StreamingMgcpl::StreamingMgcpl(std::vector<int> cardinalities,
                               const StreamingConfig& config,
                               std::vector<std::vector<std::string>> values)
    : OnlineLearner("streaming-mgcpl", std::move(cardinalities),
                    config.initial_delta, config.decay, config.max_clusters,
                    std::move(values)),
      config_(config) {}

int StreamingMgcpl::observe(const data::Value* row) {
  double win_total = 0.0;
  for (const double w : wins_) win_total += w;

  // One flat sweep scores the row against every live cluster (Eq. 1).
  scores_.resize(ids_.size());
  set_.score_all(row, scores_.data());

  const int v = strongest_slot(-1, win_total);
  const double win_sim = v >= 0 ? scores_[static_cast<std::size_t>(v)] : 0.0;
  if (v < 0 || win_sim < config_.novelty_threshold) {
    return ids_[static_cast<std::size_t>(spawn(row))];
  }

  // Winner absorbs the object (Eqs. 10-12).
  set_.add(v, row);
  mass_[static_cast<std::size_t>(v)] += 1.0;
  wins_[static_cast<std::size_t>(v)] += 1.0;
  delta_[static_cast<std::size_t>(v)] += config_.eta;

  // Rival penalization (Eqs. 9, 13). The batched scores stay valid: only
  // the winner's histogram changed and the winner is excluded from the
  // rival scan.
  const int h = strongest_slot(v, win_total);
  if (h >= 0) {
    delta_[static_cast<std::size_t>(h)] -=
        config_.eta * scores_[static_cast<std::size_t>(h)];
  }
  return ids_[static_cast<std::size_t>(v)];
}

}  // namespace mcdc::core

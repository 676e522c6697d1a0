// RGCL — reinforcement-guided competitive learning for categorical
// clustering (Likas 1999), adapted to the NULL-aware Sec. II-A similarity
// as the per-row online counterpart of the MGCPL competitive stage.
//
// Each row runs one winner-reward / rival-penalty update on the flat
// ProfileSet bank: every live cluster competes by u_l * s_l (u_l the
// sigmoid cluster weight of Eqs. 12-13, s_l the Eq. (1) similarity), the
// winner v absorbs the row, and a Bernoulli trial with success probability
// s_v gates the reinforcement —
//
//   success:  delta_v += eta * (1 - s_v)   (reward the winner)
//             delta_h -= eta * s_h         (penalise the strongest rival,
//                                           the MGCPL de-redundancy move)
//   failure:  delta_v -= eta * (1 - s_v)   (the action is punished)
//
// The trial is a hash draw, not an RNG stream: it is keyed on the run seed
// plus content-derived bytes, so a replayed stream reproduces the same
// decisions exactly and the batch mode below is invariant to row shuffles
// and category recodings. `reinforcement = false` degenerates to plain
// deterministic winner-reward/rival-penalty (the trial always succeeds).
//
// Two modes share the update rule:
//
//  - streaming: RgclLearner is a core::OnlineLearner — the live-cluster
//    pool StreamingMgcpl uses too (stable spawn ids, novelty spawning,
//    weakest-mass eviction, decay + starved-cluster pruning at
//    end_chunk, classify, to_model) — with this per-row rule as its
//    observe(). The same single-writer thread contract applies.
//
//  - batch: cluster() backs the "mcdc-online" registry method. Clusters
//    are density-seeded (data/seeding.h), then `epochs` sequential passes
//    run the per-row update with rows in a canonical content order —
//    densest frequency signature first — so the partition is a function of
//    the multiset of rows, not of their presentation order or encoding
//    (the metamorphic contract every registry method owes). A final frozen
//    classify sweep produces the labels.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "baselines/clusterer.h"
#include "core/online_learner.h"
#include "data/view.h"

namespace mcdc::core {

struct RgclConfig {
  // Reinforcement learning rate of the delta updates.
  double eta = 0.05;
  // delta at spawn/seed (see StageConfig::initial_delta).
  double initial_delta = 0.5;
  // Bernoulli-gated reward; false makes every trial succeed (pure
  // winner-reward/rival-penalty, no exploration).
  bool reinforcement = true;
  // Batch mode: passes over the rows.
  int epochs = 4;
  // Streaming mode (same semantics as StreamingConfig; max_clusters >= 2).
  double decay = 1.0;
  double novelty_threshold = 0.15;
  std::size_t max_clusters = 256;
};

class RgclLearner final : public OnlineLearner {
 public:
  // The schema must be fixed up front; `seed` keys the Bernoulli draws.
  // `values` optionally carries the per-feature dictionaries threaded
  // into every exported snapshot.
  RgclLearner(std::vector<int> cardinalities, std::uint64_t seed = 1,
              const RgclConfig& config = {},
              std::vector<std::vector<std::string>> values = {});

  // One reinforcement-guided update: the winner by u * s absorbs the row,
  // then a Bernoulli trial keyed on (seed, arrival index, row content)
  // rewards or punishes it; a row no live cluster explains spawns one.
  int observe(const data::Value* row) override;

  // Batch entry point of the "mcdc-online" registry method: density
  // seeding, `config.epochs` canonical-order reinforcement passes over the
  // rows at fixed k, final frozen classify sweep. Deterministic in
  // (ds, k, seed) and invariant to row order and category recoding.
  static baselines::ClusterResult cluster(const data::DatasetView& ds, int k,
                                          std::uint64_t seed,
                                          const RgclConfig& config = {});

 private:
  // One winner-reward/rival-penalty delta update for a row the winner
  // already absorbed; `draw` is the Bernoulli uniform in [0, 1).
  void reinforce(int winner, double draw);

  std::uint64_t seed_ = 1;
  RgclConfig config_;
};

}  // namespace mcdc::core

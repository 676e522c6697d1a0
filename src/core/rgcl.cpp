#include "core/rgcl.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "common/thread_pool.h"
#include "core/competitive.h"
#include "data/seeding.h"

namespace mcdc::core {

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

std::uint64_t fnv_bytes(std::uint64_t h, const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= kFnvPrime;
  }
  return h;
}

// Hash -> uniform double in [0, 1): the top 53 bits scaled down. Replayed
// inputs reproduce the draw bit-exactly — there is no RNG state.
double uniform_from_hash(std::uint64_t h) {
  return static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
}

double clamp01(double x) { return x < 0.0 ? 0.0 : (x > 1.0 ? 1.0 : x); }

}  // namespace

RgclLearner::RgclLearner(std::vector<int> cardinalities, std::uint64_t seed,
                         const RgclConfig& config,
                         std::vector<std::vector<std::string>> values)
    : OnlineLearner("mcdc-online", std::move(cardinalities),
                    config.initial_delta, config.decay, config.max_clusters,
                    std::move(values)),
      seed_(seed),
      config_(config) {
  if (config_.epochs < 1) {
    throw std::invalid_argument("mcdc-online: epochs must be >= 1");
  }
}

void RgclLearner::reinforce(int winner, double draw) {
  const auto vu = static_cast<std::size_t>(winner);
  const double s_v = scores_[vu];
  if (!config_.reinforcement || draw < clamp01(s_v)) {
    delta_[vu] += config_.eta * (1.0 - s_v);
    // No win counts: rho is 0 and the scan ranks by u * s.
    const int h = strongest_slot(winner, 0.0);
    if (h >= 0) {
      delta_[static_cast<std::size_t>(h)] -=
          config_.eta * scores_[static_cast<std::size_t>(h)];
    }
  } else {
    delta_[vu] -= config_.eta * (1.0 - s_v);
  }
}

int RgclLearner::observe(const data::Value* row) {
  scores_.resize(ids_.size());
  set_.score_all(row, scores_.data());

  ++rows_seen_;
  const int v = strongest_slot(-1, 0.0);
  const double win_sim = v >= 0 ? scores_[static_cast<std::size_t>(v)] : 0.0;
  if (v < 0 || win_sim < config_.novelty_threshold) {
    return ids_[static_cast<std::size_t>(spawn(row))];
  }

  set_.add(v, row);
  mass_[static_cast<std::size_t>(v)] += 1.0;

  // The trial keys on (seed, arrival index, row content): a replayed
  // stream reproduces every decision, repeated identical rows still draw
  // independently.
  std::uint64_t h = fnv_bytes(kFnvOffset, &seed_, sizeof(seed_));
  h = fnv_bytes(h, &rows_seen_, sizeof(rows_seen_));
  h = fnv_bytes(h, row, cardinalities_.size() * sizeof(data::Value));
  reinforce(v, uniform_from_hash(h));
  return ids_[static_cast<std::size_t>(v)];
}

baselines::ClusterResult RgclLearner::cluster(const data::DatasetView& ds,
                                              int k, std::uint64_t seed,
                                              const RgclConfig& config) {
  baselines::ClusterResult result;
  const std::size_t n = ds.num_objects();
  const std::size_t d = ds.num_features();
  if (k <= 0 || static_cast<std::size_t>(k) > n || d == 0) {
    result.labels.assign(n, -1);
    baselines::finalize_result(result, k);
    return result;
  }

  // Per-column value counts: the content signature behind both the
  // canonical row order and the Bernoulli draws. Counts are invariant to
  // row shuffles (a multiset property) and to category recodings (a value
  // keeps its count under any bijective relabelling), which is what makes
  // the sequential per-row updates below presentation-independent.
  const std::vector<std::vector<int>> freq = ds.value_counts();
  // keys[i] = the row's frequency signature (missing cells read 0 — no
  // present value can, every one appears at least once).
  std::vector<std::vector<int>> keys(n);
  for (std::size_t i = 0; i < n; ++i) {
    keys[i].resize(d);
    for (std::size_t r = 0; r < d; ++r) {
      const data::Value v = ds.at(i, r);
      keys[i][r] =
          v == data::kMissing ? 0 : freq[r][static_cast<std::size_t>(v)];
    }
  }
  // Canonical order: densest signature first. stable_sort keeps equal-key
  // rows in presentation order — for identical rows the updates commute,
  // so the partition stays order-free.
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return keys[a] > keys[b];
                   });

  const std::vector<std::size_t> seeds = data::density_seed_rows(ds, k);
  ProfileSet set(ds.cardinalities(), k);
  std::vector<double> delta(static_cast<std::size_t>(k),
                            config.initial_delta);
  std::vector<int> assign(n, -1);
  for (int j = 0; j < k; ++j) {
    set.add(j, ds.row(seeds[static_cast<std::size_t>(j)]));
    assign[seeds[static_cast<std::size_t>(j)]] = j;
  }

  std::vector<double> scores(static_cast<std::size_t>(k));
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    for (const std::size_t i : order) {
      const data::RowRef row = ds.row(i);
      set.score_all(row, scores.data());
      int v = 0;
      double best = -1.0;
      for (int l = 0; l < k; ++l) {
        const double w = cluster_weight_sigmoid(delta[static_cast<std::size_t>(l)]) *
                         scores[static_cast<std::size_t>(l)];
        if (w > best) {
          best = w;
          v = l;
        }
      }
      const int prev = assign[i];
      // A cluster never gives up its last member — fixed k must survive
      // the competition (the paper's failure flag is for methods that
      // cannot hold the preset k).
      if (prev >= 0 && prev != v && set.size(prev) <= 1.0) v = prev;
      if (prev < 0) {
        set.add(v, row);
      } else if (prev != v) {
        set.move(prev, v, row);
      }
      assign[i] = v;

      const auto vu = static_cast<std::size_t>(v);
      const double s_v = scores[vu];
      std::uint64_t h = fnv_bytes(kFnvOffset, &seed, sizeof(seed));
      h = fnv_bytes(h, &epoch, sizeof(epoch));
      h = fnv_bytes(h, keys[i].data(), keys[i].size() * sizeof(int));
      if (!config.reinforcement || uniform_from_hash(h) < clamp01(s_v)) {
        delta[vu] += config.eta * (1.0 - s_v);
        int rival = -1;
        double rival_best = -1.0;
        for (int l = 0; l < k; ++l) {
          if (l == v) continue;
          const double w =
              cluster_weight_sigmoid(delta[static_cast<std::size_t>(l)]) *
              scores[static_cast<std::size_t>(l)];
          if (w > rival_best) {
            rival_best = w;
            rival = l;
          }
        }
        if (rival >= 0) {
          delta[static_cast<std::size_t>(rival)] -=
              config.eta * scores[static_cast<std::size_t>(rival)];
        }
      } else {
        delta[vu] -= config.eta * (1.0 - s_v);
      }
    }
  }

  // The served partition is the frozen argmax of the final bank — the
  // same sweep classify()/Model::predict run, parallel over disjoint
  // label chunks.
  set.freeze();
  result.labels.resize(n);
  parallel_chunks(n, 1024, [&](std::size_t lo, std::size_t hi) {
    set.best_clusters(ds, lo, hi, result.labels.data() + lo);
  });
  baselines::finalize_result(result, k);
  return result;
}

}  // namespace mcdc::core

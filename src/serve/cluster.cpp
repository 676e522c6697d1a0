#include "serve/cluster.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "common/timer.h"
#include "dist/sim_cluster.h"

namespace mcdc::serve {

namespace {

// Ring points per shard of the hash router; more points = smoother key
// spread.
constexpr std::size_t kVirtualNodes = 64;

// FNV-1a over the row's value bytes — the request key of the hash router.
std::uint64_t hash_row(const data::Value* row, std::size_t width) {
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(row);
  const std::size_t size = width * sizeof(data::Value);
  std::uint64_t h = 14695981039346656037ULL;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= 1099511628211ULL;
  }
  return h;
}

// splitmix64 — spreads sequential (shard, virtual node) ids into ring
// points that interleave well.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace

ServingCluster::ServingCluster(std::shared_ptr<const api::Model> model,
                               ClusterConfig config)
    : config_(std::move(config)) {
  if (model == nullptr || !model->fitted()) {
    throw std::invalid_argument(
        "ServingCluster: a fitted model is required (routing needs a row "
        "width and cluster sketches)");
  }
  if (config_.num_shards == 0) {
    throw std::invalid_argument("ServingCluster: num_shards must be > 0");
  }
  row_width_ = model->num_features();

  shards_.reserve(config_.num_shards);
  for (std::size_t s = 0; s < config_.num_shards; ++s) {
    shards_.push_back(std::make_unique<ModelServer>(model, config_.shard));
  }

  ring_.reserve(config_.num_shards * kVirtualNodes);
  for (std::size_t s = 0; s < config_.num_shards; ++s) {
    for (std::size_t j = 0; j < kVirtualNodes; ++j) {
      ring_.emplace_back(mix((static_cast<std::uint64_t>(s) << 32) | j),
                         static_cast<std::uint32_t>(s));
    }
  }
  std::sort(ring_.begin(), ring_.end());

  if (config_.routing == RoutingMode::kLocality) {
    // Sketch every model cluster by its mode, then place clusters on
    // shards with the same LPT scheduler the offline pre-partitioner
    // uses — heavy clusters spread first, so shard load tracks the
    // training mass distribution.
    const int k = model->k();
    cluster_modes_.reserve(static_cast<std::size_t>(k));
    std::vector<std::size_t> masses;
    masses.reserve(static_cast<std::size_t>(k));
    for (int l = 0; l < k; ++l) {
      cluster_modes_.push_back(model->cluster_mode(l));
      masses.push_back(static_cast<std::size_t>(
          std::llround(std::max(1.0, model->cluster_mass(l)))));
    }
    const dist::SimCluster fleet(dist::uniform_nodes(config_.num_shards));
    const dist::ScheduleResult placed = fleet.schedule(masses);
    cluster_shard_.reserve(static_cast<std::size_t>(k));
    for (int l = 0; l < k; ++l) {
      cluster_shard_.push_back(static_cast<std::uint32_t>(
          placed.shard_to_node[static_cast<std::size_t>(l)]));
    }
  }

  shard_generation_ =
      std::make_unique<std::atomic<std::uint64_t>[]>(config_.num_shards);
  routed_ = std::make_unique<std::atomic<std::uint64_t>[]>(config_.num_shards);
  for (std::size_t s = 0; s < config_.num_shards; ++s) {
    shard_generation_[s].store(1, std::memory_order_relaxed);
    routed_[s].store(0, std::memory_order_relaxed);
  }
}

ServingCluster::~ServingCluster() { stop(); }

std::size_t ServingCluster::hash_route(const data::Value* row) const {
  const std::uint64_t h = hash_row(row, row_width_);
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), h,
      [](const std::pair<std::uint64_t, std::uint32_t>& point,
         std::uint64_t key) { return point.first < key; });
  if (it == ring_.end()) it = ring_.begin();  // wrap around the ring
  return it->second;
}

std::size_t ServingCluster::route(const data::Value* row) const {
  if (config_.routing == RoutingMode::kLocality) {
    // Most mode-matching non-missing features wins; ties to the lower
    // cluster id (the argmax convention of the scorer itself).
    std::size_t best_score = 0;
    int best_cluster = -1;
    for (std::size_t l = 0; l < cluster_modes_.size(); ++l) {
      const std::vector<data::Value>& mode = cluster_modes_[l];
      std::size_t score = 0;
      for (std::size_t r = 0; r < row_width_; ++r) {
        if (row[r] != data::kMissing && row[r] == mode[r]) ++score;
      }
      if (score > best_score) {
        best_score = score;
        best_cluster = static_cast<int>(l);
      }
    }
    if (best_cluster >= 0) {
      return cluster_shard_[static_cast<std::size_t>(best_cluster)];
    }
    // No mode shares a single value with this row — nothing to exploit;
    // fall through to the hash ring.
  }
  return hash_route(row);
}

int ServingCluster::predict(const data::Value* row) {
  return submit(row).get();
}

std::future<int> ServingCluster::submit(const data::Value* row) {
  const std::size_t s = route(row);
  routed_[s].fetch_add(1, std::memory_order_relaxed);
  return shards_[s]->submit(row);
}

void ServingCluster::rolling_swap(std::shared_ptr<const api::Model> next) {
  if (next != nullptr && next->num_features() != row_width_) {
    throw std::invalid_argument(api::feature_width_message(
        "ServingCluster::rolling_swap", row_width_, next->num_features()));
  }
  std::lock_guard roll(roll_mutex_);
  const std::uint64_t generation = target_generation_.load() + 1;
  target_generation_.store(generation);
  Timer window;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    shards_[s]->swap(next);
    shard_generation_[s].store(generation);
    if (config_.on_shard_swap) config_.on_shard_swap(s);
  }
  last_window_seconds_.store(window.elapsed_seconds());
  rolling_swaps_.fetch_add(1, std::memory_order_relaxed);
}

GenerationStatus ServingCluster::generations() const {
  GenerationStatus out;
  out.target = target_generation_.load();
  out.shard.reserve(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    out.shard.push_back(shard_generation_[s].load());
  }
  for (const std::uint64_t g : out.shard) {
    if (g != out.target) out.mixed = true;
  }
  out.rolling_swaps = rolling_swaps_.load(std::memory_order_relaxed);
  out.last_window_seconds = last_window_seconds_.load();
  return out;
}

api::ServeEvidence ServingCluster::stats() const {
  api::ServeEvidence out;
  std::vector<double> merged;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const api::ServeEvidence ev = shards_[s]->stats();
    out.requests += ev.requests;
    out.batches += ev.batches;
    out.swaps += ev.swaps;
    // Shards serve disjoint request streams concurrently, so cluster
    // throughput is the sum of per-shard rates, not requests over the
    // union window.
    out.throughput_rps += ev.throughput_rps;
    const std::vector<double> samples = shards_[s]->latency_samples();
    merged.insert(merged.end(), samples.begin(), samples.end());
  }
  out.batch_occupancy =
      out.batches > 0
          ? static_cast<double>(out.requests) / static_cast<double>(out.batches)
          : 0.0;
  out.p50_latency_us = percentile(merged, 0.50);
  out.p99_latency_us = percentile(merged, 0.99);
  out.p999_latency_us = percentile(merged, 0.999);
  out.shards = static_cast<int>(shards_.size());
  out.routed.reserve(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    out.routed.push_back(routed_[s].load(std::memory_order_relaxed));
  }
  out.generation = target_generation_.load();
  return out;
}

void ServingCluster::stop() {
  for (const std::unique_ptr<ModelServer>& shard : shards_) shard->stop();
}

}  // namespace mcdc::serve

// ServingCluster — N ModelServer shards behind one deterministic router.
//
// PR 5's ModelServer serves one model from one dispatcher; a deployment
// that wants "millions of users" scales out by running N such shards and
// routing each request to exactly one of them. The cluster owns the shards
// and the routing function; everything a single server guarantees (snapshot
// isolation, never-stalling swaps, -1 while empty) holds per shard.
//
// Routing modes (ClusterConfig::routing):
//   - kHash: consistent hashing. The encoded row is hashed (FNV-1a over its
//     value bytes) onto a ring of 64 virtual nodes per shard, so the
//     same row always lands on the same shard and shard counts can change
//     without remapping every key. No model knowledge needed.
//   - kLocality: the Sec. III-D idea applied to serving. Each model cluster
//     is sketched by its mode (Model::cluster_mode) and placed on a shard
//     by dist::SimCluster's LPT schedule over the cluster training masses —
//     the same placement machinery MicroClusterPartitioner feeds offline.
//     A row routes to the shard owning the cluster whose mode it matches
//     best (ties to the lower cluster id); rows matching no mode at all
//     fall back to the hash ring. Rows of one cluster thus hit one shard,
//     keeping that shard's histogram bank hot in cache.
//
// Rolling swaps and generations: the cluster tracks a target model
// generation (1 = the construction model). rolling_swap(next) bumps the
// target, then republishes shard by shard in index order — in-flight
// batches on untouched shards keep scoring their old snapshot, so the
// cluster passes through an explicit mixed-generation window whose length
// is one shard-by-shard sweep (rolls are serialised by a mutex, so the
// window is bounded; generations() reports it live).
// ClusterConfig::on_shard_swap lets tests observe the window from inside:
// it runs on the rolling thread right after each shard flips, before the
// next one does.
//
// stats() aggregates per-shard ServeEvidence into the cluster view:
// summed counters, merged latency samples (percentiles over the union —
// never averaged percentiles), the routed-per-shard histogram and the
// generation. One shard's own evidence is shard(s).stats().
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <vector>

#include "api/model.h"
#include "api/report.h"
#include "serve/server.h"

namespace mcdc::serve {

enum class RoutingMode {
  kHash,      // consistent hashing on the encoded row bytes
  kLocality,  // nearest-cluster-mode routing, hash fallback
};

struct ClusterConfig {
  std::size_t num_shards = 4;
  RoutingMode routing = RoutingMode::kHash;
  // Applied to every shard's ModelServer (batch size).
  ServeConfig shard;
  // Test/observability hook: called on the rolling thread immediately
  // after shard s republishes during rolling_swap (mid-window — other
  // shards still hold the previous generation). Must not call back into
  // rolling_swap (the roll mutex is held).
  std::function<void(std::size_t)> on_shard_swap;
};

// Live generation picture, from generations().
struct GenerationStatus {
  std::uint64_t target = 0;           // generation of the newest publish
  std::vector<std::uint64_t> shard;   // generation each shard serves
  bool mixed = false;                 // any shard behind target?
  std::uint64_t rolling_swaps = 0;    // completed rolling_swap calls
  double last_window_seconds = 0.0;   // duration of the last mixed window
};

class ServingCluster {
 public:
  // Builds num_shards ModelServer shards, all serving `model` (generation
  // 1). Throws std::invalid_argument on a null or unfitted model or zero
  // shards — a cluster, unlike a single server, cannot start empty: the
  // locality router needs cluster sketches and the hash router a row
  // width.
  ServingCluster(std::shared_ptr<const api::Model> model,
                 ClusterConfig config = {});
  ~ServingCluster();

  ServingCluster(const ServingCluster&) = delete;
  ServingCluster& operator=(const ServingCluster&) = delete;

  std::size_t num_shards() const { return shards_.size(); }
  std::size_t row_width() const { return row_width_; }
  RoutingMode routing() const { return config_.routing; }

  // The routing decision alone (no request is made) — deterministic in
  // the row bytes, exposed so tests can pin the row->shard map.
  std::size_t route(const data::Value* row) const;

  // Single-row predict through the owning shard's batching queue; blocks
  // until that shard's dispatcher answers. The row must hold row_width()
  // values in the model's encoding. -1 while the routed shard is empty.
  int predict(const data::Value* row);
  // The asynchronous form: route + enqueue now, redeem later.
  std::future<int> submit(const data::Value* row);

  // Rolls `next` across every shard in index order and returns when all
  // shards serve it. Width-validated before anything publishes (throws
  // std::invalid_argument naming both counts; no phantom generation).
  // Concurrent rolls serialise; predicts never block.
  void rolling_swap(std::shared_ptr<const api::Model> next);

  GenerationStatus generations() const;

  // Aggregated cluster evidence (shards, routed histogram, generation,
  // union-percentile latencies).
  api::ServeEvidence stats() const;

  // Direct access to shard s — for tests driving one shard's queue.
  ModelServer& shard(std::size_t s) { return *shards_[s]; }

  // Stops every shard (drains queues, joins dispatchers). Idempotent;
  // the destructor calls it.
  void stop();

 private:
  std::size_t hash_route(const data::Value* row) const;

  ClusterConfig config_;
  std::size_t row_width_ = 0;
  std::vector<std::unique_ptr<ModelServer>> shards_;

  // Consistent-hash ring: (point, shard), sorted by point.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> ring_;

  // Locality router tables (kLocality only): per model cluster, its mode
  // sketch and owning shard. Built once from the construction model; a
  // swapped-in model keeps the routing of the model it replaced (routing
  // is a placement policy, not part of the answer).
  std::vector<std::vector<data::Value>> cluster_modes_;
  std::vector<std::uint32_t> cluster_shard_;

  // Generation bookkeeping. Shard generations are atomics so that
  // generations() reads a live picture mid-roll without taking
  // roll_mutex_ (which the roller holds for the whole window).
  std::mutex roll_mutex_;
  std::atomic<std::uint64_t> target_generation_{1};
  std::unique_ptr<std::atomic<std::uint64_t>[]> shard_generation_;
  std::atomic<std::uint64_t> rolling_swaps_{0};
  // mcdc-lint: allow(D5) single-writer stats() timing; reporting only
  std::atomic<double> last_window_seconds_{0.0};

  // Requests routed per shard (predict and submit).
  std::unique_ptr<std::atomic<std::uint64_t>[]> routed_;
};

}  // namespace mcdc::serve

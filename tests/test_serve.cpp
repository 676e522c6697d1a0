// Tests for the concurrent serving layer (serve/server.h): snapshot-swap
// atomicity under concurrent predict traffic (every answered label must be
// valid for *some* published snapshot — no torn reads), the empty-model
// -1 contract, field-exact JSON hot-reload, feature-width validation on
// swap, BatchQueue mechanics, the sharded ServingCluster, the serving
// stats counters, and label exactness under load (pipelined producers at
// one row and 256 rows per batch, a paced open loop, a swap_json storm,
// 1- and 4-shard clusters, rolling swaps mid-traffic). This suite (with
// test_dist) also runs under ThreadSanitizer in CI — the real torn-read
// gate.
#include "serve/server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "api/engine.h"
#include "data/dataset.h"
#include "data/synthetic.h"
#include "dist/prepartition.h"
#include "serve/batch_queue.h"
#include "serve/cluster.h"
#include "serving_case.h"

namespace mcdc {
namespace {

// One-feature dataset whose three rows carry values 0, 1, 2.
data::Dataset tiny_dataset() {
  return data::Dataset(3, 1, {0, 1, 2}, {3});
}

// k = 1 model: every in-domain row predicts cluster 0.
std::shared_ptr<const api::Model> model_always_zero() {
  const data::Dataset ds = tiny_dataset();
  return std::make_shared<const api::Model>(api::Model::from_fit(
      "zero", ds, {0, 0, 0}, 1, {}, {}, /*refine=*/false));
}

// k = 2 model whose cluster 0 is empty of the observed values (it holds
// only the one row with value 2), so rows 0/1 predict cluster 1.
std::shared_ptr<const api::Model> model_prefers_one() {
  const data::Dataset ds = tiny_dataset();
  return std::make_shared<const api::Model>(api::Model::from_fit(
      "one", ds, {1, 1, 0}, 2, {}, {}, /*refine=*/false));
}

TEST(ModelServer, EmptyServerAnswersMinusOne) {
  serve::ServeConfig config;
  config.row_width = 1;  // serve a schema before any snapshot exists
  serve::ModelServer server(nullptr, config);
  EXPECT_EQ(server.snapshot(), nullptr);

  const data::Value row[] = {0};
  EXPECT_EQ(server.predict(row), -1);  // nothing to assign to — not "0"
}

TEST(ModelServer, ServerWithoutRowWidthThrows) {
  // No model and no width: the server could never take a request.
  EXPECT_THROW(serve::ModelServer{}, std::invalid_argument);
}

TEST(ModelServer, BatchedPredictMatchesModelPredict) {
  const data::Dataset ds = data::syn_n(500);
  api::Engine engine;
  api::FitOptions options;
  options.method = "mcdc1";
  options.k = 4;
  options.seed = 11;
  options.evaluate = false;
  const api::FitResult fit = engine.fit(ds, options);
  ASSERT_TRUE(fit.ok());

  auto model = std::make_shared<const api::Model>(fit.model);
  const std::vector<int> reference = model->predict(ds);

  serve::ModelServer server(model);
  std::vector<data::Value> row(ds.num_features());
  for (std::size_t i = 0; i < ds.num_objects(); ++i) {
    ds.gather_row(i, row.data());
    EXPECT_EQ(server.predict(row.data()), reference[i]) << "row " << i;
  }

  const api::ServeEvidence stats = server.stats();
  EXPECT_EQ(stats.requests, ds.num_objects());
  EXPECT_GE(stats.batches, 1u);
  EXPECT_LE(stats.batches, stats.requests);
  EXPECT_GE(stats.batch_occupancy, 1.0);
  EXPECT_EQ(stats.swaps, 0u);
  EXPECT_GE(stats.p99_latency_us, stats.p50_latency_us);
}

TEST(ModelServer, ConcurrentPredictAndSwapNeverTearsASnapshot) {
  const auto zero = model_always_zero();
  const auto one = model_prefers_one();

  serve::ModelServer server(zero);
  std::atomic<bool> done{false};
  std::atomic<int> bad{0};

  // Readers hammer the batched path with rows 0/1: the answer must be 0
  // (zero-model snapshot) or 1 (one-model snapshot), never anything else
  // and never -1 — a snapshot is always published.
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&server, &done, &bad, t] {
      const data::Value row[] = {static_cast<data::Value>(t % 2)};
      while (!done.load()) {
        const int label = server.predict(row);
        if (label != 0 && label != 1) bad.fetch_add(1);
      }
    });
  }

  for (int swap = 0; swap < 200; ++swap) {
    server.swap(swap % 2 == 0 ? one : zero);
    std::this_thread::yield();
  }
  done.store(true);
  for (auto& reader : readers) reader.join();

  EXPECT_EQ(bad.load(), 0) << "a label matched no published snapshot";
  EXPECT_EQ(server.stats().swaps, 200u);

  // Settle on the zero model and drain: the answer is deterministic again.
  server.swap(zero);
  const data::Value row[] = {1};
  EXPECT_EQ(server.predict(row), 0);
}

TEST(ModelServer, SwapRejectsMismatchedFeatureWidth) {
  serve::ModelServer server(model_always_zero());
  const data::Dataset wide(2, 2, {0, 0, 1, 1}, {2, 2});
  auto mismatched = std::make_shared<const api::Model>(api::Model::from_fit(
      "wide", wide, {0, 1}, 2, {}, {}, /*refine=*/false));
  EXPECT_THROW(server.swap(mismatched), std::invalid_argument);
  // Nothing was published: the old snapshot still serves.
  const data::Value row[] = {0};
  EXPECT_EQ(server.predict(row), 0);
  EXPECT_EQ(server.stats().swaps, 0u);
}

TEST(ModelServer, JsonHotReloadIsFieldExact) {
  data::WellSeparatedConfig config;
  config.num_objects = 120;
  config.seed = 3;
  const data::Dataset ds = data::well_separated(config);
  api::Engine engine;
  api::FitOptions options;
  options.method = "mcdc";  // kappa + theta populated: full field surface
  options.k = 3;
  options.seed = 7;
  options.evaluate = false;
  const api::FitResult fit = engine.fit(ds, options);
  ASSERT_TRUE(fit.ok());

  const api::Json saved = fit.model.to_json();
  serve::ModelServer server(std::make_shared<const api::Model>(fit.model));
  server.swap_json(saved);

  // The reloaded snapshot re-serialises to the identical document — every
  // histogram cell, dictionary entry, kappa step and theta weight made the
  // round trip.
  const api::Json reloaded = server.snapshot()->to_json();
  EXPECT_EQ(saved.dump(2), reloaded.dump(2));
  EXPECT_EQ(server.stats().swaps, 1u);

  // And it serves the same labels.
  const std::vector<int> expected = fit.model.predict(ds);
  std::vector<data::Value> row(ds.num_features());
  for (std::size_t i = 0; i < ds.num_objects(); ++i) {
    ds.gather_row(i, row.data());
    EXPECT_EQ(server.predict(row.data()), expected[i]) << "row " << i;
  }
}

TEST(ModelServer, SwapJsonRejectsMalformedModels) {
  serve::ModelServer server(model_always_zero());
  api::Json bogus = api::Json::object();
  bogus["method"] = "broken";
  EXPECT_THROW(server.swap_json(bogus), std::runtime_error);
  const data::Value row[] = {0};
  EXPECT_EQ(server.predict(row), 0);  // old snapshot untouched
}

TEST(BatchQueue, CoalescesUpToMaxBatch) {
  serve::BatchQueue queue(1, /*max_batch=*/4);

  std::vector<std::future<int>> futures;
  for (data::Value v = 0; v < 10; ++v) futures.push_back(queue.submit(&v));

  serve::BatchQueue::Batch batch;
  ASSERT_TRUE(queue.next_batch(batch));
  EXPECT_EQ(batch.count, 4u);
  EXPECT_EQ(batch.rows, (std::vector<data::Value>{0, 1, 2, 3}));
  for (std::size_t i = 0; i < batch.count; ++i) {
    batch.promises[i].set_value(static_cast<int>(i));
  }
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(futures[i].get(), static_cast<int>(i));
  }
  // The other 6 wait for the next drains: a full batch, then the rest.
  queue.close();
  for (const std::size_t expected : {4u, 2u}) {
    ASSERT_TRUE(queue.next_batch(batch));
    EXPECT_EQ(batch.count, expected);
  }
  EXPECT_FALSE(queue.next_batch(batch));
}

TEST(BatchQueue, KeepsSubmitOrderAcrossCompaction) {
  // Fill the queue to its backpressure bound, drain one batch, then queue
  // more behind the rest. The drains that follow carry the head cursor
  // past kMaxPending while requests are still staged, so the dead prefix
  // is compacted mid-stream; every batch must still hand out rows in
  // submit order, each with its own request's promise.
  serve::BatchQueue queue(1);
  const std::size_t first = serve::BatchQueue::kMaxPending;
  const std::size_t more = 256;
  std::vector<std::future<int>> futures;
  futures.reserve(first + more);
  data::Value next = 0;
  for (std::size_t i = 0; i < first; ++i, ++next) {
    futures.push_back(queue.submit(&next));
  }

  serve::BatchQueue::Batch batch;
  data::Value expected = 0;
  const auto answer_in_order = [&] {
    for (std::size_t j = 0; j < batch.count; ++j, ++expected) {
      EXPECT_EQ(batch.rows[j], expected);
      batch.promises[j].set_value(batch.rows[j]);
    }
  };
  ASSERT_TRUE(queue.next_batch(batch));
  answer_in_order();
  for (std::size_t i = 0; i < more; ++i, ++next) {
    futures.push_back(queue.submit(&next));
  }
  queue.close();
  std::size_t batches = 1;
  while (queue.next_batch(batch)) {
    answer_in_order();
    ++batches;
  }
  EXPECT_EQ(static_cast<std::size_t>(expected), first + more);
  EXPECT_EQ(batches, (first + more) / serve::BatchQueue::kDefaultMaxBatch);
  for (std::size_t i = 0; i < futures.size(); ++i) {
    EXPECT_EQ(futures[i].get(), static_cast<int>(i));
  }
}

TEST(BatchQueue, CloseDrainsThenStops) {
  serve::BatchQueue queue(1);
  const data::Value v = 7;
  std::future<int> pending = queue.submit(&v);
  queue.close();
  EXPECT_THROW(queue.submit(&v), std::runtime_error);

  // The request accepted before close is still served.
  serve::BatchQueue::Batch batch;
  ASSERT_TRUE(queue.next_batch(batch));
  ASSERT_EQ(batch.count, 1u);
  batch.promises[0].set_value(42);
  EXPECT_EQ(pending.get(), 42);
  EXPECT_FALSE(queue.next_batch(batch));  // closed and drained
}

TEST(BatchQueue, RejectsDegenerateConfigs) {
  EXPECT_THROW(serve::BatchQueue(0), std::invalid_argument);
  EXPECT_THROW(serve::BatchQueue(1, /*max_batch=*/0), std::invalid_argument);
}

TEST(ModelServer, LatencyRingKeepsTheNewestSamples) {
  // More requests than the ring holds: every request is counted, and the
  // ring stays at exactly kLatencySamples (newer samples overwrite older).
  const std::size_t n = 20000;
  static_assert(20000 > serve::ModelServer::kLatencySamples);
  serve::ModelServer server(model_always_zero());
  const data::Value row[] = {2};
  std::vector<std::future<int>> futures;
  futures.reserve(n);
  for (std::size_t i = 0; i < n; ++i) futures.push_back(server.submit(row));
  for (std::future<int>& label : futures) EXPECT_EQ(label.get(), 0);

  EXPECT_EQ(server.stats().requests, n);
  EXPECT_EQ(server.latency_samples().size(),
            serve::ModelServer::kLatencySamples);
}

TEST(ModelServer, StopIsIdempotentAndDestructorSafe) {
  auto server = std::make_unique<serve::ModelServer>(model_always_zero());
  const data::Value row[] = {2};
  EXPECT_EQ(server->predict(row), 0);
  server->stop();
  server->stop();           // idempotent
  EXPECT_THROW(server->predict(row), std::runtime_error);  // queue closed
  server.reset();           // destructor after stop: no double join
}

// --- ServingCluster -------------------------------------------------------

TEST(ServingCluster, RejectsNullUnfittedAndZeroShards) {
  EXPECT_THROW(serve::ServingCluster(nullptr), std::invalid_argument);
  EXPECT_THROW(
      serve::ServingCluster(std::make_shared<const api::Model>()),
      std::invalid_argument);
  serve::ClusterConfig config;
  config.num_shards = 0;
  EXPECT_THROW(serve::ServingCluster(model_always_zero(), config),
               std::invalid_argument);
}

TEST(ServingCluster, HashRouteIsDeterministicAndInRange) {
  serve::ClusterConfig config;
  config.num_shards = 4;
  serve::ServingCluster cluster(model_always_zero(), config);
  for (data::Value v = 0; v < 3; ++v) {
    const data::Value row[] = {v};
    const std::size_t s = cluster.route(row);
    EXPECT_LT(s, 4u);
    EXPECT_EQ(cluster.route(row), s);  // same bytes, same shard, always
  }
}

TEST(ServingCluster, ShardedPredictMatchesModelPredict) {
  const data::Dataset ds = data::syn_n(400);
  api::Engine engine;
  api::FitOptions options;
  options.method = "mcdc1";
  options.k = 4;
  options.seed = 11;
  options.evaluate = false;
  const api::FitResult fit = engine.fit(ds, options);
  ASSERT_TRUE(fit.ok());
  auto model = std::make_shared<const api::Model>(fit.model);
  const std::vector<int> expected = model->predict(ds);

  serve::ClusterConfig config;
  config.num_shards = 4;
  serve::ServingCluster cluster(model, config);

  // Single-row traffic through the batching queues equals the model's own
  // answer row for row.
  std::vector<data::Value> row(ds.num_features());
  for (std::size_t i = 0; i < ds.num_objects(); ++i) {
    ds.gather_row(i, row.data());
    EXPECT_EQ(cluster.predict(row.data()), expected[i]) << "row " << i;
  }

  cluster.stop();
  const api::ServeEvidence evidence = cluster.stats();
  EXPECT_EQ(evidence.shards, 4);
  EXPECT_EQ(evidence.generation, 1u);
  ASSERT_EQ(evidence.routed.size(), 4u);
  std::uint64_t routed_total = 0;
  for (const std::uint64_t r : evidence.routed) routed_total += r;
  EXPECT_EQ(routed_total, ds.num_objects());
}

TEST(ServingCluster, LocalityRoutingKeepsClustersOnOneShard) {
  // Two clusters with disjoint value domains: rows of cluster 0 are all
  // (0, 0), rows of cluster 1 all (1, 1). Each row matches its own
  // cluster's mode in both positions and the other's in none, so locality
  // routing must achieve perfect co-residency — the dist layer's own
  // locality_of metric over the training rows reads 1.0.
  const data::Dataset ds(6, 2, {0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1}, {2, 2});
  const std::vector<int> labels = {0, 0, 0, 1, 1, 1};
  auto model = std::make_shared<const api::Model>(api::Model::from_fit(
      "loc", ds, labels, 2, {}, {}, /*refine=*/false));

  serve::ClusterConfig config;
  config.num_shards = 2;
  config.routing = serve::RoutingMode::kLocality;
  serve::ServingCluster cluster(model, config);
  EXPECT_EQ(cluster.routing(), serve::RoutingMode::kLocality);

  std::vector<int> shard_of_row(ds.num_objects());
  std::vector<data::Value> row(ds.num_features());
  for (std::size_t i = 0; i < ds.num_objects(); ++i) {
    ds.gather_row(i, row.data());
    shard_of_row[i] = static_cast<int>(cluster.route(row.data()));
  }
  EXPECT_EQ(dist::locality_of(shard_of_row, labels), 1.0);
  // Two equal-mass clusters over two shards: LPT spreads them apart.
  EXPECT_NE(shard_of_row[0], shard_of_row[3]);
}

TEST(ServingCluster, RollingSwapExposesABoundedMixedWindow) {
  // Shard 0 flips first. Inside the hook for that flip, shard 1 still
  // serves the construction model — the mixed window the cluster promises
  // to make explicit. Row {1}: the old model answers 1, the new one 0.
  auto old_model = model_prefers_one();
  auto new_model = model_always_zero();
  const data::Value probe[] = {1};

  serve::ClusterConfig config;
  config.num_shards = 2;
  serve::ServingCluster* cluster_ptr = nullptr;
  int mid_window_checks = 0;
  config.on_shard_swap = [&](std::size_t s) {
    if (s != 0) return;
    const serve::GenerationStatus mid = cluster_ptr->generations();
    EXPECT_TRUE(mid.mixed);
    EXPECT_EQ(mid.target, 2u);
    EXPECT_EQ(mid.shard[0], 2u);
    EXPECT_EQ(mid.shard[1], 1u);
    // Traffic on the untouched shard is neither stalled nor mislabeled:
    // it still answers with the old generation's label.
    EXPECT_EQ(cluster_ptr->shard(1).predict(probe), 1);
    EXPECT_EQ(cluster_ptr->shard(0).predict(probe), 0);
    ++mid_window_checks;
  };
  serve::ServingCluster cluster(old_model, config);
  cluster_ptr = &cluster;

  EXPECT_EQ(cluster.shard(0).predict(probe), 1);
  cluster.rolling_swap(new_model);
  EXPECT_EQ(mid_window_checks, 1);

  const serve::GenerationStatus after = cluster.generations();
  EXPECT_FALSE(after.mixed);
  EXPECT_EQ(after.target, 2u);
  EXPECT_EQ(after.rolling_swaps, 1u);
  EXPECT_GE(after.last_window_seconds, 0.0);
  EXPECT_EQ(cluster.shard(0).predict(probe), 0);
  EXPECT_EQ(cluster.shard(1).predict(probe), 0);
}

TEST(ServingCluster, RollingSwapWidthMismatchNamesBothCounts) {
  const data::Dataset wide_ds(2, 3, {0, 1, 0, 1, 0, 1}, {2, 2, 2});
  auto wide = std::make_shared<const api::Model>(api::Model::from_fit(
      "wide", wide_ds, {0, 1}, 2, {}, {}, /*refine=*/false));
  serve::ServingCluster cluster(model_always_zero());  // width 1
  try {
    cluster.rolling_swap(wide);
    FAIL() << "rolling_swap accepted a 3-feature model on a width-1 cluster";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("ServingCluster::rolling_swap"), std::string::npos)
        << what;
    EXPECT_NE(what.find("expected 1 features"), std::string::npos) << what;
    EXPECT_NE(what.find("got 3"), std::string::npos) << what;
  }
  // The rejected roll published nothing: no phantom generation.
  EXPECT_EQ(cluster.generations().target, 1u);
  EXPECT_FALSE(cluster.generations().mixed);
}

TEST(ServingCluster, ConcurrentPredictsDuringRollsNeverTearOrStall) {
  // The cluster-level torn-read gate (runs under TSan in CI): while rolls
  // alternate between a model answering 0 and one answering 1 for row
  // {1}, every concurrent predict must return one of those two published
  // answers — never -1, never garbage — and the cluster must end aligned.
  auto zero = model_always_zero();
  auto one = model_prefers_one();
  serve::ClusterConfig config;
  config.num_shards = 2;
  serve::ServingCluster cluster(one, config);

  std::atomic<bool> stop_traffic{false};
  std::atomic<int> bad_answers{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 3; ++t) {
    clients.emplace_back([&] {
      const data::Value row[] = {1};
      while (!stop_traffic.load(std::memory_order_relaxed)) {
        const int label = cluster.predict(row);
        if (label != 0 && label != 1) {
          bad_answers.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (int roll = 0; roll < 20; ++roll) {
    cluster.rolling_swap(roll % 2 == 0 ? zero : one);
  }
  stop_traffic.store(true);
  for (std::thread& client : clients) client.join();

  EXPECT_EQ(bad_answers.load(), 0);
  const serve::GenerationStatus end = cluster.generations();
  EXPECT_FALSE(end.mixed);
  EXPECT_EQ(end.target, 21u);
  EXPECT_EQ(end.rolling_swaps, 20u);
}

// --- exactness under load ---------------------------------------------------
//
// Every served label equals the bulk Model::predict label of its row,
// however the requests were batched, paced, sharded or swapped under.

// Pipelined producers: row i goes to producer i % producers, and each
// producer keeps up to 128 requests in flight, so the dispatcher has
// batches to coalesce (a blocking producer caps every batch at
// `producers` rows). A producer repeats its pass while `more()` holds.
// Returns how many answers differ from the bulk labels.
template <typename Server, typename More>
std::size_t drive(Server& server, const test::ServingCase& c, int producers,
                  More more) {
  std::atomic<std::size_t> wrong{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < producers; ++t) {
    threads.emplace_back([&, t] {
      std::vector<std::pair<std::size_t, std::future<int>>> window;
      std::size_t mismatches = 0;
      const auto drain = [&] {
        for (auto& [i, label] : window) {
          if (label.get() != c.reference[i]) ++mismatches;
        }
        window.clear();
      };
      do {
        for (auto i = static_cast<std::size_t>(t); i < c.n();
             i += static_cast<std::size_t>(producers)) {
          window.emplace_back(i, server.submit(c.row(i)));
          if (window.size() >= 128) drain();
        }
        drain();
      } while (more());
      wrong.fetch_add(mismatches);
    });
  }
  for (std::thread& thread : threads) thread.join();
  return wrong.load();
}

const auto one_pass = [] { return false; };

TEST(ServingExactness, PipelinedProducersGetBulkLabelsAtBatchOneAnd256) {
  const test::ServingCase c = test::serving_case(2000);
  for (const std::size_t max_batch : {std::size_t{1}, std::size_t{256}}) {
    SCOPED_TRACE(testing::Message() << "max_batch " << max_batch);
    serve::ServeConfig config;
    config.max_batch = max_batch;
    serve::ModelServer server(c.model, config);
    EXPECT_EQ(drive(server, c, 4, one_pass), 0u);
    server.stop();
    const api::ServeEvidence stats = server.stats();
    EXPECT_EQ(stats.requests, c.n());
    if (max_batch == 1) {
      EXPECT_EQ(stats.batches, stats.requests);
    }
  }
}

TEST(ServingExactness, PacedOpenLoopGetsBulkLabels) {
  // One request every 25 us whatever the completions, redeemed only after
  // the last submit: the submitter never waits on the server, so batches
  // hold whatever arrived within a linger.
  const test::ServingCase c = test::serving_case(2000);
  serve::ModelServer server(c.model);
  std::vector<std::future<int>> labels;
  labels.reserve(c.n());
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < c.n(); ++i) {
    std::this_thread::sleep_until(
        start + std::chrono::microseconds(25 * static_cast<long>(i)));
    labels.push_back(server.submit(c.row(i)));
  }
  for (std::size_t i = 0; i < c.n(); ++i) {
    EXPECT_EQ(labels[i].get(), c.reference[i]) << "row " << i;
  }
}

TEST(ServingExactness, SwapJsonStormKeepsBulkLabels) {
  // The swapper reloads the same model from its JSON every 200 us once a
  // producer has finished a pass, and the producers repeat their passes
  // until it has published twice: the swaps land mid-traffic however the
  // threads are scheduled.
  const test::ServingCase c = test::serving_case(2000);
  serve::ModelServer server(c.model);
  const api::Json reload = c.model->to_json(false);
  std::atomic<bool> started{false};
  std::atomic<bool> done{false};
  std::atomic<int> swaps{0};
  std::thread swapper([&] {
    while (!started.load()) std::this_thread::yield();
    while (!done.load()) {
      server.swap_json(reload);
      swaps.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  const auto until_two_swaps = [&] {
    started.store(true);
    return swaps.load() < 2;
  };
  EXPECT_EQ(drive(server, c, 4, until_two_swaps), 0u);
  done.store(true);
  swapper.join();
  server.stop();
  EXPECT_GE(server.stats().swaps, 2u);
}

TEST(ServingExactness, OneAndFourShardClustersGetBulkLabels) {
  const test::ServingCase c = test::serving_case(2000);
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(testing::Message() << shards << " shard(s)");
    serve::ClusterConfig config;
    config.num_shards = shards;
    serve::ServingCluster cluster(c.model, config);
    EXPECT_EQ(drive(cluster, c, 4, one_pass), 0u);
    cluster.stop();
    std::uint64_t routed = 0;
    for (const std::uint64_t r : cluster.stats().routed) routed += r;
    EXPECT_EQ(routed, c.n());
  }
}

TEST(ServingExactness, RollingSwapsMidTrafficKeepBulkLabels) {
  // Same scheme as the swap storm: the roller republishes across all four
  // shards every millisecond once a pass is done, and traffic lasts until
  // two rolls have completed.
  const test::ServingCase c = test::serving_case(2000);
  serve::ClusterConfig config;
  config.num_shards = 4;
  serve::ServingCluster cluster(c.model, config);
  std::atomic<bool> started{false};
  std::atomic<bool> done{false};
  std::atomic<int> rolls{0};
  std::thread roller([&] {
    while (!started.load()) std::this_thread::yield();
    while (!done.load()) {
      cluster.rolling_swap(c.model);
      rolls.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  const auto until_two_rolls = [&] {
    started.store(true);
    return rolls.load() < 2;
  };
  EXPECT_EQ(drive(cluster, c, 4, until_two_rolls), 0u);
  done.store(true);
  roller.join();
  cluster.stop();
  const serve::GenerationStatus gen = cluster.generations();
  EXPECT_GE(gen.rolling_swaps, 2u);
  EXPECT_EQ(gen.target, gen.rolling_swaps + 1);
  EXPECT_FALSE(gen.mixed);
}

}  // namespace
}  // namespace mcdc

// Concurrent serving throughput: N producer threads firing single-row
// predict requests, unbatched (max_batch = 1, every request its own sweep)
// vs batched (requests coalesced into frozen Model::predict_rows sweeps),
// plus a swap-storm phase that hot-reloads the snapshot mid-traffic, an
// open-loop phase that fires requests at a fixed arrival rate and reports
// tail latency (p50/p99/p99.9) free of coordinated omission, a binary
// model-artifact round trip (save_binary/load_binary vs the JSON path),
// and a cluster phase driving a serve::ServingCluster at 1 shard vs
// --shards shards, with a rolling swap mid-traffic.
//
//   bench_serve [--smoke] [--strict] [--json [file]] [--n N] [--k K]
//               [--producers P] [--batch B] [--repeats R] [--shards S]
//               [--soak [--seconds S]]
//
// Every phase must answer every request with the label the bulk
// Model::predict path assigns (the serving determinism contract); the bench
// exits non-zero on any mismatch, and the artifact phase additionally
// requires the reloaded model to predict byte-identical labels. --strict
// gates batched throughput >= 2x unbatched (ISSUE 5) and, on hardware with
// at least --shards cores, cluster throughput >= 2x single-shard (ISSUE 6).
// --smoke shrinks the workload for CI and keeps every correctness check.
// --json writes the machine-readable record (default BENCH_serve.json).
//
// The closing online-loop phase drives a serve::OnlineUpdater (the
// continuous-learning pipeline) while producers keep predicting: the
// updater absorbs the whole trace on its row-counted cadence and its
// drift-gated swaps publish back mid-traffic. Metrics only — the phase
// contributes no gated ratio.
//
// --soak replaces the phase sweep with a sustained storm for --seconds S
// (default 5): producers hammer single-row predicts while the updater
// thread cycles the trace, alternating original and code-shifted passes so
// drift-triggered refits (not just incremental swaps) land under load.
// Built for the sanitizer jobs — every ASan/TSan-visible interleaving of
// submit/swap/observe/tick gets exercised; exits non-zero if the loop
// never ticks or never publishes.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <algorithm>
#include <exception>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/model.h"
#include "bench_io.h"
#include "common/cli.h"
#include "common/rng.h"
#include "common/timer.h"
#include "data/synthetic.h"
#include "serve/cluster.h"
#include "serve/online.h"
#include "serve/server.h"

namespace {

using namespace mcdc;

// Replays every row `repeats` times from `producers` threads against the
// server (ModelServer or ServingCluster — anything with submit()); returns
// wall-clock seconds. Labels land in `labels` (last repeat wins; all
// repeats see the same snapshot contents, so they agree).
template <typename Server>
double drive(Server& server, const std::vector<data::Value>& rows,
             std::size_t n, std::size_t d, int producers, int repeats,
             std::vector<int>& labels) {
  Timer timer;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(producers));
  for (int t = 0; t < producers; ++t) {
    threads.emplace_back([&, t] {
      // Pipelined producer: keep a window of requests in flight so the
      // dispatcher has something to coalesce (a strictly blocking producer
      // caps every batch at `producers` rows).
      std::vector<std::pair<std::size_t, std::future<int>>> window;
      const std::size_t window_cap = 128;
      const auto drain = [&] {
        for (auto& [row, future] : window) labels[row] = future.get();
        window.clear();
      };
      for (int rep = 0; rep < repeats; ++rep) {
        for (std::size_t i = static_cast<std::size_t>(t); i < n;
             i += static_cast<std::size_t>(producers)) {
          window.emplace_back(i, server.submit(rows.data() + i * d));
          if (window.size() >= window_cap) drain();
        }
      }
      drain();
    });
  }
  for (auto& thread : threads) thread.join();
  return timer.elapsed_seconds();
}

// Open-loop arrival: one request every 1/arrival_rps seconds regardless of
// completions (a late submit bursts to catch up rather than skipping —
// queueing delay lands in the latency samples, where it belongs). Futures
// are redeemed only after the last submit, so the producer never
// back-pressures the server.
double open_loop(serve::ModelServer& server,
                 const std::vector<data::Value>& rows, std::size_t n,
                 std::size_t d, double arrival_rps, std::vector<int>& labels) {
  using clock = std::chrono::steady_clock;
  std::vector<std::future<int>> futures;
  futures.reserve(n);
  const double interval_ns = 1e9 / arrival_rps;
  Timer timer;
  const auto start = clock::now();
  for (std::size_t i = 0; i < n; ++i) {
    std::this_thread::sleep_until(
        start + std::chrono::nanoseconds(static_cast<long long>(
                    interval_ns * static_cast<double>(i))));
    futures.push_back(server.submit(rows.data() + i * d));
  }
  for (std::size_t i = 0; i < n; ++i) labels[i] = futures[i].get();
  return timer.elapsed_seconds();
}

bool check(const std::vector<int>& got, const std::vector<int>& want,
           const char* phase) {
  if (got == want) return true;
  std::fprintf(stderr,
               "FAIL: %s labels diverge from bulk Model::predict (serving "
               "determinism contract broken)\n",
               phase);
  return false;
}

// The trace under an abrupt concept drift: every value code shifted by one
// (mod cardinality), same geometry under codes the model never counted.
std::vector<data::Value> shift_codes(const std::vector<data::Value>& rows,
                                     const std::vector<int>& cardinalities,
                                     std::size_t n, std::size_t d) {
  std::vector<data::Value> shifted(rows);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t r = 0; r < d; ++r) {
      const data::Value v = rows[i * d + r];
      if (v != data::kMissing && cardinalities[r] > 1) {
        shifted[i * d + r] = (v + 1) % cardinalities[r];
      }
    }
  }
  return shifted;
}

// --soak: predict + observe + swap storm for a fixed wall-clock budget.
int run_soak(const std::shared_ptr<const api::Model>& model,
             const std::vector<int>& cardinalities,
             const std::vector<data::Value>& rows, std::size_t n,
             std::size_t d, int producers, std::size_t batch, double seconds) {
  serve::ServeConfig config;
  config.max_batch = batch;
  auto server = std::make_shared<serve::ModelServer>(model, config);
  serve::OnlineConfig online;
  online.tick_every = 256;
  online.window_capacity = 512;
  serve::OnlineUpdater updater(
      server, serve::make_online_learner(online, cardinalities), online);

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> requests{0};
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(producers));
  for (int t = 0; t < producers; ++t) {
    threads.emplace_back([&, t] {
      std::vector<std::future<int>> window;
      std::uint64_t count = 0;
      std::size_t i = static_cast<std::size_t>(t);
      while (!done.load(std::memory_order_relaxed)) {
        window.push_back(server->submit(rows.data() + (i % n) * d));
        i += static_cast<std::size_t>(producers);
        ++count;
        if (window.size() >= 128) {
          for (auto& future : window) future.get();
          window.clear();
        }
      }
      for (auto& future : window) future.get();
      requests.fetch_add(count);
    });
  }

  // This thread is the updater's single writer: cycle the trace, flipping
  // between the original codes and a shifted recode each pass so the drift
  // detector fires refits (not just incremental swaps) while traffic runs.
  const std::vector<data::Value> shifted =
      shift_codes(rows, cardinalities, n, d);
  Timer timer;
  std::uint64_t observed = 0;
  std::size_t pass = 0;
  const std::size_t chunk = 64;
  while (timer.elapsed_seconds() < seconds) {
    const std::vector<data::Value>& src = pass % 2 == 0 ? rows : shifted;
    for (std::size_t i = 0; i + chunk <= n; i += chunk) {
      updater.observe(src.data() + i * d, chunk);
      observed += chunk;
      if (timer.elapsed_seconds() >= seconds) break;
    }
    ++pass;
  }
  done.store(true);
  for (auto& thread : threads) thread.join();
  server->stop();
  const double elapsed = timer.elapsed_seconds();

  const auto stats = server->stats();
  const auto evidence = updater.evidence();
  std::printf(
      "soak %.1fs: %llu predicts (%0.f req/s), %llu rows absorbed "
      "(%0.f rows/s)\n",
      elapsed, static_cast<unsigned long long>(requests.load()),
      static_cast<double>(requests.load()) / elapsed,
      static_cast<unsigned long long>(evidence.rows_observed),
      static_cast<double>(observed) / elapsed);
  std::printf(
      "ticks %llu: %llu swap(s), %llu refit(s), %llu hold(s); generation "
      "%llu, max drift %.3f\n",
      static_cast<unsigned long long>(evidence.ticks),
      static_cast<unsigned long long>(evidence.swaps),
      static_cast<unsigned long long>(evidence.refits),
      static_cast<unsigned long long>(evidence.holds),
      static_cast<unsigned long long>(evidence.generation), evidence.max_drift);
  std::printf("latency p50 %7.1fus  p99 %7.1fus  p99.9 %7.1fus\n",
              stats.p50_latency_us, stats.p99_latency_us,
              stats.p999_latency_us);
  if (evidence.ticks == 0 || evidence.generation == 0) {
    std::fprintf(stderr,
                 "FAIL: soak loop never ticked or never published "
                 "(%llu ticks, generation %llu)\n",
                 static_cast<unsigned long long>(evidence.ticks),
                 static_cast<unsigned long long>(evidence.generation));
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) try {
  const Cli cli(argc, argv);
  const bool smoke = cli.has("smoke");
  const bool strict = cli.has("strict");
  const std::size_t n =
      static_cast<std::size_t>(cli.get_int("n", smoke ? 2000 : 20000));
  const int k = static_cast<int>(cli.get_int("k", 32));
  const int producers = static_cast<int>(cli.get_int("producers", 4));
  const std::size_t batch =
      static_cast<std::size_t>(cli.get_int("batch", 256));
  const int repeats = static_cast<int>(cli.get_int("repeats", smoke ? 1 : 2));
  const std::size_t shards =
      static_cast<std::size_t>(cli.get_int("shards", 4));

  const data::Dataset ds = data::syn_n(n);
  const std::size_t d = ds.num_features();

  // A fixed random partition is all the server cares about — it serves
  // whatever frozen histograms it is given.
  Rng rng(42);
  std::vector<int> assignment(n);
  for (auto& l : assignment) {
    l = static_cast<int>(rng.below(static_cast<std::uint64_t>(k)));
  }
  const auto model = std::make_shared<const api::Model>(api::Model::from_fit(
      "bench-serve", ds, assignment, k, {}, {}, /*refine=*/false));

  // The model was fitted on ds itself, so ds codes are already the model's
  // encoding: requests can replay raw gathered rows.
  std::vector<data::Value> rows(n * d);
  for (std::size_t i = 0; i < n; ++i) ds.gather_row(i, rows.data() + i * d);
  const std::vector<int> reference = model->predict(ds);

  if (cli.has("soak")) {
    const double seconds = cli.get_double("seconds", 5.0);
    return run_soak(model, ds.cardinalities(), rows, n, d, producers, batch,
                    seconds);
  }

  std::printf(
      "serving throughput, Syn_n n=%zu d=%zu k=%d, %d producers, %d "
      "repeat(s)\n",
      n, d, k, producers, repeats);

  bool ok = true;
  std::vector<int> labels(n, -2);

  // --- unbatched: every request is its own dispatch + 1-row sweep --------
  double unbatched_rps = 0.0;
  {
    serve::ServeConfig config;
    config.max_batch = 1;
    serve::ModelServer server(model, config);
    const double seconds =
        drive(server, rows, n, d, producers, repeats, labels);
    server.stop();
    unbatched_rps = static_cast<double>(n) * repeats / seconds;
    const auto stats = server.stats();
    std::printf(
        "%-12s %12.0f req/s  occupancy %6.1f  p50 %7.1fus  p99 %7.1fus\n",
        "unbatched", unbatched_rps, stats.batch_occupancy,
        stats.p50_latency_us, stats.p99_latency_us);
    ok = check(labels, reference, "unbatched") && ok;
  }

  // --- batched: coalesced into frozen predict_rows sweeps ----------------
  double batched_rps = 0.0;
  {
    serve::ServeConfig config;
    config.max_batch = batch;
    serve::ModelServer server(model, config);
    labels.assign(n, -2);
    const double seconds =
        drive(server, rows, n, d, producers, repeats, labels);
    server.stop();
    batched_rps = static_cast<double>(n) * repeats / seconds;
    const auto stats = server.stats();
    std::printf(
        "%-12s %12.0f req/s  occupancy %6.1f  p50 %7.1fus  p99 %7.1fus\n",
        "batched", batched_rps, stats.batch_occupancy, stats.p50_latency_us,
        stats.p99_latency_us);
    ok = check(labels, reference, "batched") && ok;
  }

  // --- swap storm: hot-reload the snapshot while traffic is in flight ----
  double swap_storm_rps = 0.0;
  {
    serve::ServeConfig config;
    config.max_batch = batch;
    serve::ModelServer server(model, config);
    const api::Json reload = model->to_json(false);
    std::atomic<bool> done{false};
    std::thread swapper([&] {
      while (!done.load()) {
        server.swap_json(reload);  // field-exact reload: labels must hold
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });
    labels.assign(n, -2);
    const double seconds =
        drive(server, rows, n, d, producers, repeats, labels);
    done.store(true);
    swapper.join();
    server.stop();
    swap_storm_rps = static_cast<double>(n) * repeats / seconds;
    const auto stats = server.stats();
    std::printf(
        "%-12s %12.0f req/s  occupancy %6.1f  %llu swaps mid-traffic\n",
        "swap-storm", swap_storm_rps, stats.batch_occupancy,
        static_cast<unsigned long long>(stats.swaps));
    ok = check(labels, reference, "swap-storm") && ok;
  }

  // --- open loop: fixed arrival rate, tail latency under load ------------
  // Arrivals at half the measured closed-loop capacity: a sustainable rate
  // where the queue stays shallow, so the reported tail is scheduling +
  // sweep cost, not saturation collapse.
  const double arrival_rps = std::max(1000.0, 0.5 * batched_rps);
  api::ServeEvidence open_stats;
  {
    serve::ServeConfig config;
    config.max_batch = batch;
    serve::ModelServer server(model, config);
    labels.assign(n, -2);
    open_loop(server, rows, n, d, arrival_rps, labels);
    server.stop();
    open_stats = server.stats();
    std::printf(
        "%-12s %12.0f req/s arrival  p50 %7.1fus  p99 %7.1fus  p99.9 "
        "%7.1fus\n",
        "open-loop", arrival_rps, open_stats.p50_latency_us,
        open_stats.p99_latency_us, open_stats.p999_latency_us);
    ok = check(labels, reference, "open-loop") && ok;
  }

  // --- binary artifact round trip ----------------------------------------
  // Timed over several iterations: the loads are sub-millisecond, so a
  // single sample would be all noise.
  double json_roundtrip_seconds = 0.0;
  double binary_roundtrip_seconds = 0.0;
  std::size_t artifact_bytes = 0;
  {
    const std::string path = "bench_serve_model.bin";
    const int iterations = 5;
    bool artifact_ok = true;
    for (int it = 0; it < iterations; ++it) {
      Timer json_timer;
      const std::string text = model->to_json(true).dump();
      const api::Model via_json = api::Model::from_json(api::Json::parse(text));
      json_roundtrip_seconds += json_timer.elapsed_seconds();

      Timer binary_timer;
      model->save_binary(path);
      const api::Model via_binary = api::Model::load_binary(path);
      binary_roundtrip_seconds += binary_timer.elapsed_seconds();

      if (it == 0) {
        artifact_bytes = model->to_binary(true).size();
        artifact_ok = via_binary.predict(ds) == reference &&
                      via_json.predict(ds) == reference;
      }
    }
    std::remove(path.c_str());
    const double speedup = binary_roundtrip_seconds > 0.0
                               ? json_roundtrip_seconds /
                                     binary_roundtrip_seconds
                               : 0.0;
    std::printf(
        "%-12s %8.2fms json vs %8.2fms binary per round trip (%.1fx, "
        "%zu bytes)\n",
        "artifact", 1e3 * json_roundtrip_seconds / iterations,
        1e3 * binary_roundtrip_seconds / iterations, speedup, artifact_bytes);
    if (!artifact_ok) {
      std::fprintf(stderr,
                   "FAIL: artifact round trip does not reproduce bulk "
                   "predict labels\n");
      ok = false;
    }
  }

  // --- cluster: 1 shard vs --shards shards, then a rolling swap ----------
  double single_shard_rps = 0.0;
  double cluster_rps = 0.0;
  std::uint64_t roll_count = 0;
  {
    serve::ClusterConfig config;
    config.num_shards = 1;
    config.shard.max_batch = batch;
    serve::ServingCluster single(model, config);
    labels.assign(n, -2);
    const double seconds =
        drive(single, rows, n, d, producers, repeats, labels);
    single.stop();
    single_shard_rps = static_cast<double>(n) * repeats / seconds;
    std::printf("%-12s %12.0f req/s  (1 shard)\n", "cluster-1",
                single_shard_rps);
    ok = check(labels, reference, "cluster-1") && ok;
  }
  {
    serve::ClusterConfig config;
    config.num_shards = shards;
    config.shard.max_batch = batch;
    serve::ServingCluster cluster(model, config);
    // Shards drain concurrently, so give every shard a producer to feed it.
    const int cluster_producers =
        std::max(producers, static_cast<int>(shards));
    labels.assign(n, -2);
    const double seconds =
        drive(cluster, rows, n, d, cluster_producers, repeats, labels);
    cluster_rps = static_cast<double>(n) * repeats / seconds;
    const auto stats = cluster.stats();
    std::printf(
        "%-12s %12.0f req/s  (%zu shards)  p50 %7.1fus  p99 %7.1fus  "
        "p99.9 %7.1fus\n",
        "cluster", cluster_rps, shards, stats.p50_latency_us,
        stats.p99_latency_us, stats.p999_latency_us);
    ok = check(labels, reference, "cluster") && ok;

    // Rolling swap mid-traffic: republish the same model across all shards
    // while requests are in flight — labels must hold, generations advance.
    std::atomic<bool> done{false};
    std::thread roller([&] {
      while (!done.load()) {
        cluster.rolling_swap(model);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
    labels.assign(n, -2);
    drive(cluster, rows, n, d, cluster_producers, 1, labels);
    done.store(true);
    roller.join();
    cluster.stop();
    const serve::GenerationStatus gen = cluster.generations();
    roll_count = gen.rolling_swaps;
    std::printf(
        "%-12s generation %llu after %llu rolling swap(s), last window "
        "%.3fms, mixed now: %s\n",
        "cluster-roll", static_cast<unsigned long long>(gen.target),
        static_cast<unsigned long long>(gen.rolling_swaps),
        gen.last_window_seconds * 1e3, gen.mixed ? "yes" : "no");
    ok = check(labels, reference, "cluster-roll") && ok;
    if (roll_count == 0 || gen.mixed) {
      std::fprintf(stderr,
                   "FAIL: rolling swap did not complete cleanly "
                   "(%llu rolls, mixed=%d)\n",
                   static_cast<unsigned long long>(roll_count),
                   static_cast<int>(gen.mixed));
      ok = false;
    }
  }

  // --- online loop: the updater absorbs the trace while traffic runs -----
  // Once the updater publishes, served labels legitimately diverge from the
  // original model's bulk predict, so this phase checks liveness and the
  // loop's own evidence instead of label equality. Metrics only — no gated
  // ratio rides on it.
  double online_rows_ps = 0.0;
  api::OnlineEvidence online_evidence;
  {
    serve::ServeConfig config;
    config.max_batch = batch;
    auto server = std::make_shared<serve::ModelServer>(model, config);
    serve::OnlineConfig online;
    online.tick_every = 256;
    online.window_capacity = 512;
    serve::OnlineUpdater updater(
        server, serve::make_online_learner(online, ds.cardinalities()),
        online);
    std::atomic<bool> done{false};
    std::atomic<std::uint64_t> answered{0};
    std::vector<std::thread> hammers;
    const int hammer_threads = std::max(1, producers - 1);
    hammers.reserve(static_cast<std::size_t>(hammer_threads));
    for (int t = 0; t < hammer_threads; ++t) {
      hammers.emplace_back([&, t] {
        std::size_t i = static_cast<std::size_t>(t);
        std::uint64_t count = 0;
        while (!done.load(std::memory_order_relaxed)) {
          if (server->predict(rows.data() + (i % n) * d) < -1) break;
          i += static_cast<std::size_t>(hammer_threads);
          ++count;
        }
        answered.fetch_add(count);
      });
    }
    Timer timer;
    const std::size_t chunk = 256;
    std::size_t absorbed = 0;
    for (std::size_t i = 0; i + chunk <= n; i += chunk) {
      updater.observe(rows.data() + i * d, chunk);
      absorbed += chunk;
    }
    updater.tick();
    const double seconds = timer.elapsed_seconds();
    done.store(true);
    for (auto& thread : hammers) thread.join();
    server->stop();
    online_rows_ps = static_cast<double>(absorbed) / seconds;
    online_evidence = updater.evidence();
    std::printf(
        "%-12s %12.0f rows/s absorbed  %llu tick(s), %llu swap(s), %llu "
        "refit(s), generation %llu; %llu predicts alongside\n",
        "online-loop", online_rows_ps,
        static_cast<unsigned long long>(online_evidence.ticks),
        static_cast<unsigned long long>(online_evidence.swaps),
        static_cast<unsigned long long>(online_evidence.refits),
        static_cast<unsigned long long>(online_evidence.generation),
        static_cast<unsigned long long>(answered.load()));
    if (online_evidence.ticks == 0 ||
        online_evidence.rows_observed != absorbed) {
      std::fprintf(stderr,
                   "FAIL: online loop lost rows or never ticked (%llu "
                   "observed, %zu fed, %llu ticks)\n",
                   static_cast<unsigned long long>(
                       online_evidence.rows_observed),
                   absorbed,
                   static_cast<unsigned long long>(online_evidence.ticks));
      ok = false;
    }
  }

  // --- drift trigger latency: rows from injection to refit, per bank -----
  // Deterministic by construction (single-threaded, row-counted, no wall
  // clock): settle the baseline on two clean windows, then feed the
  // code-shifted trace one row at a time until the bank refits. The gated
  // ratio is the inverted margin budget / latency_rows (higher is better,
  // 0 on a miss), one per detector bank, so a change that slows any
  // detector's reaction past tolerance fails the tools/bench_diff gate.
  const std::vector<std::string> detector_specs = {"mean", "hist", "ph",
                                                   "quantile", "ensemble"};
  std::vector<double> trigger_latency_rows(detector_specs.size(), 0.0);
  std::vector<double> trigger_margin(detector_specs.size(), 0.0);
  {
    const std::vector<data::Value> shifted =
        shift_codes(rows, ds.cardinalities(), n, d);
    const std::size_t window = 512;
    const std::size_t chunk = 256;
    const std::size_t cadence = 512;
    // The warmup deliberately runs half a tick PAST the last cadence point:
    // a publish rebases every detector, and an injection landing exactly on
    // a rebase would hand the sequential tests a stream that is uniformly
    // at the new level from their first post-reset observation (nothing to
    // detect). Real drift never phase-locks to the publish cadence either.
    // The half-cadence tail also puts the first post-injection tick at a
    // 50% drifted window mix, which the windowed detectors need to clear
    // their default thresholds before incremental swaps absorb the shift.
    const std::size_t warmup = std::min(n, window * 2 + cadence / 2);
    const std::size_t budget = std::min(n, window * 4);
    for (std::size_t s = 0; s < detector_specs.size(); ++s) {
      serve::OnlineConfig online;
      online.tick_every = cadence;
      online.window_capacity = window;
      online.detector = detector_specs[s];
      auto server = std::make_shared<serve::ModelServer>(model);
      serve::OnlineUpdater updater(
          server, serve::make_online_learner(online, ds.cardinalities()),
          online);
      for (std::size_t i = 0; i < warmup; i += chunk) {
        updater.observe(rows.data() + i * d, std::min(chunk, warmup - i));
      }
      const std::uint64_t clean_refits = updater.evidence().refits;
      std::size_t fed = 0;
      while (fed < budget) {
        updater.observe(shifted.data() + fed * d, 1);
        ++fed;
        if (updater.evidence().refits > clean_refits) break;
      }
      server->stop();
      const bool fired = updater.evidence().refits > clean_refits;
      trigger_latency_rows[s] = static_cast<double>(fed);
      trigger_margin[s] =
          fired ? static_cast<double>(budget) / static_cast<double>(fed) : 0.0;
      std::printf(
          "%-12s %-8s bank refit after %5zu drifted row(s)%s  margin %.2fx\n",
          "trigger", detector_specs[s].c_str(), fed, fired ? "" : " (miss)",
          trigger_margin[s]);
      // A solo bank may legitimately sleep through this workload (e.g. a
      // cyclic shift on near-uniform pooled marginals is invisible to hist;
      // the loop then absorbs the drift through incremental swaps instead).
      // Only the ensemble must react — it carries every signal at once.
      if (!fired && detector_specs[s] == "ensemble") {
        std::fprintf(stderr,
                     "FAIL: ensemble bank never refitted within %zu drifted "
                     "rows\n",
                     budget);
        ok = false;
      }
    }
  }

  if (!ok) return 1;
  std::printf("labels identical to bulk predict across all phases: yes\n");

  const double batched_ratio =
      unbatched_rps > 0.0 ? batched_rps / unbatched_rps : 0.0;
  const double cluster_ratio =
      single_shard_rps > 0.0 ? cluster_rps / single_shard_rps : 0.0;
  const double artifact_ratio =
      binary_roundtrip_seconds > 0.0
          ? json_roundtrip_seconds / binary_roundtrip_seconds
          : 0.0;
  const unsigned cores = std::thread::hardware_concurrency();
  // The shard scale-out gate needs a core per shard to mean anything; on
  // narrower hosts the ratio is reported but not enforced (and not
  // recorded, so bench_diff never compares it across disparate hardware).
  const bool gate_cluster = cores >= shards;
  std::printf("batched vs unbatched: %.2fx (target >= 2x)\n", batched_ratio);
  std::printf("cluster vs single shard: %.2fx (target >= 2x on >= %zu "
              "cores; this host: %u)\n",
              cluster_ratio, shards, cores);

  std::string json_path = cli.get("json", "");
  if (cli.has("json") && json_path.empty()) json_path = "BENCH_serve.json";
  if (cli.has("json")) {
    api::Json doc = api::Json::object();
    doc["bench"] = std::string("serve");
    doc["build"] = bench::build_info(smoke);
    api::Json workload = api::Json::object();
    workload["n"] = n;
    workload["d"] = d;
    workload["k"] = k;
    workload["producers"] = producers;
    workload["batch"] = batch;
    workload["repeats"] = repeats;
    workload["shards"] = shards;
    workload["cores"] = static_cast<std::size_t>(cores);
    doc["workload"] = std::move(workload);
    api::Json metrics = api::Json::object();
    metrics["unbatched_rps"] = unbatched_rps;
    metrics["batched_rps"] = batched_rps;
    metrics["swap_storm_rps"] = swap_storm_rps;
    api::Json open_json = api::Json::object();
    open_json["arrival_rps"] = arrival_rps;
    open_json["p50_latency_us"] = open_stats.p50_latency_us;
    open_json["p99_latency_us"] = open_stats.p99_latency_us;
    open_json["p999_latency_us"] = open_stats.p999_latency_us;
    metrics["open_loop"] = std::move(open_json);
    api::Json artifact_json = api::Json::object();
    artifact_json["json_roundtrip_ms"] = 1e3 * json_roundtrip_seconds / 5;
    artifact_json["binary_roundtrip_ms"] = 1e3 * binary_roundtrip_seconds / 5;
    artifact_json["bytes"] = artifact_bytes;
    metrics["artifact"] = std::move(artifact_json);
    api::Json cluster_json = api::Json::object();
    cluster_json["single_shard_rps"] = single_shard_rps;
    cluster_json["cluster_rps"] = cluster_rps;
    cluster_json["rolling_swaps"] = static_cast<double>(roll_count);
    metrics["cluster"] = std::move(cluster_json);
    api::Json online_json = api::Json::object();
    online_json["absorb_rows_ps"] = online_rows_ps;
    online_json["ticks"] = online_evidence.ticks;
    online_json["swaps"] = online_evidence.swaps;
    online_json["refits"] = online_evidence.refits;
    online_json["generation"] = online_evidence.generation;
    api::Json latency_json = api::Json::object();
    for (std::size_t s = 0; s < detector_specs.size(); ++s) {
      latency_json[detector_specs[s]] = trigger_latency_rows[s];
    }
    online_json["trigger_latency_rows"] = std::move(latency_json);
    metrics["online"] = std::move(online_json);
    doc["metrics"] = std::move(metrics);
    api::Json ratios = api::Json::object();
    ratios["batched_vs_unbatched"] = batched_ratio;
    ratios["binary_vs_json_roundtrip"] = artifact_ratio;
    if (gate_cluster) ratios["cluster_vs_single_shard"] = cluster_ratio;
    // Row counts, not wall clock: these margins reproduce bit-exactly on
    // any host, so bench_diff can gate them at zero hardware tolerance.
    for (std::size_t s = 0; s < detector_specs.size(); ++s) {
      ratios["online_trigger_margin_" + detector_specs[s]] = trigger_margin[s];
    }
    doc["ratios"] = std::move(ratios);
    if (!bench::write_json(json_path, doc)) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("record written to %s\n", json_path.c_str());
  }

  if (strict && batched_ratio < 2.0) {
    std::fprintf(stderr, "FAIL: batched < 2x unbatched throughput\n");
    return 2;
  }
  if (strict && gate_cluster && cluster_ratio < 2.0) {
    std::fprintf(stderr, "FAIL: cluster < 2x single-shard throughput on "
                         "%u cores\n",
                 cores);
    return 2;
  }
  return 0;
} catch (const std::exception& error) {
  std::fprintf(stderr, "bench_serve: %s\n", error.what());
  return 1;
}

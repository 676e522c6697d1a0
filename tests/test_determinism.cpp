// Thread-count determinism: every parallel_chunks consumer in the library
// must produce byte-identical results at 1, 2 and 8 workers. The chunks
// partition the index range and bodies write disjoint slots, so this is a
// contract, not a hope — the suite sweeps set_parallel_width over a pool
// forced to 8 workers (MCDC_THREADS, set before the pool exists) and
// compares:
//
//   - Engine::fit of "mcdc1" (Model::from_fit refinement sweeps) and of
//     "mcdc" (CAME assignment sweeps + refinement),
//   - Model::predict over a foreign dataset (dictionary re-coding path),
//   - StreamingMgcpl::classify over a window,
//   - serve::ModelServer batched predicts (BatchQueue -> predict_rows),
//   - the full serve::OnlineUpdater loop (observe -> drift -> swap/refit)
//     over a fixed two-act replay, snapshot predictions and every evidence
//     counter included,
//   - the multi-detector drift bank (hist, ph, quantile) over a drifting
//     stream at both SIMD dispatch levels, statistic bits included,
//   - every registered method's frozen Model::predict under each SIMD
//     dispatch level × thread width (the core/simd.h byte-identity
//     contract).
//
// Scores are pinned too: the IEEE-754 bit patterns of every internal and
// external index and every estimate_k candidate silhouette, at each SIMD
// dispatch level (the silhouette sweep runs through the kernel table), and
// of every anomaly score on an identity and on an indirect view. So are
// the two histogram consumers no method golden reaches bit for bit:
// dist::group_nodes (dominant values and consistency bits) and the k-modes
// labels where a cluster observes no value of a feature.
//
// The width-1 results are additionally pinned as FNV-1a goldens (the same
// hash and guard as the 18-method table in test_profile_set.cpp): a moved
// hash means single-thread behaviour itself drifted, which is a different
// failure than a thread-count divergence and must be just as deliberate.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <future>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "api/engine.h"
#include "baselines/kmodes.h"
#include "common/thread_pool.h"
#include "core/simd.h"
#include "core/anomaly.h"
#include "core/kestimate.h"
#include "core/mgcpl.h"
#include "core/rgcl.h"
#include "core/streaming.h"
#include "data/noise.h"
#include "data/registry.h"
#include "data/synthetic.h"
#include "dist/node_grouping.h"
#include "metrics/indices.h"
#include "metrics/internal.h"
#include "serve/online.h"
#include "serve/server.h"

namespace mcdc {
namespace {

// An 8-worker pool regardless of the machine (single-core CI runners would
// otherwise collapse every width to the inline path). Runs before main(),
// hence before the first global_pool() call anywhere in this binary; an
// explicit MCDC_THREADS in the environment wins.
const bool kForcePoolWidth = [] {
  ::setenv("MCDC_THREADS", "8", /*overwrite=*/0);
  return true;
}();

constexpr std::size_t kWidths[] = {1, 2, 8};

std::uint64_t fnv1a(std::uint64_t h, const std::vector<int>& v) {
  for (const int x : v) {
    auto u = static_cast<std::uint32_t>(x);
    for (int b = 0; b < 4; ++b) {
      h ^= (u >> (8 * b)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

constexpr std::uint64_t kFnvSeed = 0xcbf29ce484222325ULL;

// FNV-1a over the IEEE-754 bit patterns of `values`: a score golden that
// any change in the last bit of any value moves.
std::uint64_t fnv1a_bits(std::uint64_t h,
                         std::initializer_list<double> values) {
  for (const double x : values) {
    std::uint64_t u = 0;
    std::memcpy(&u, &x, sizeof u);
    for (int b = 0; b < 8; ++b) {
      h ^= (u >> (8 * b)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

// Runs `consumer` at each width, asserts byte-identity against width 1 and
// returns the width-1 labels (for the golden pins).
std::vector<int> sweep_widths(
    const char* what, const std::function<std::vector<int>()>& consumer) {
  std::vector<int> reference;
  for (const std::size_t width : kWidths) {
    const std::size_t previous = set_parallel_width(width);
    std::vector<int> got = consumer();
    set_parallel_width(previous);
    if (width == kWidths[0]) {
      reference = std::move(got);
    } else {
      EXPECT_EQ(got, reference)
          << what << ": labels diverged between 1 and " << width
          << " workers";
    }
  }
  return reference;
}

data::Dataset fit_dataset() {
  data::WellSeparatedConfig config;
  config.num_objects = 240;
  config.num_features = 8;
  config.num_clusters = 3;
  config.cardinality = 5;
  config.purity = 0.72;
  config.seed = 13;
  return data::with_missing_cells(data::well_separated(config), 0.08, 99);
}

data::Dataset foreign_dataset() {
  data::WellSeparatedConfig config;
  config.num_objects = 300;
  config.num_features = 8;
  config.num_clusters = 3;
  config.cardinality = 5;
  config.purity = 0.6;
  config.seed = 31;
  return data::with_missing_cells(data::well_separated(config), 0.1, 7);
}

api::FitResult fit(const data::DatasetView& ds, const char* method) {
  api::Engine engine;
  api::FitOptions options;
  options.method = method;
  options.k = 3;
  options.seed = 17;
  options.evaluate = false;
  options.stage_reports = false;
  return engine.fit(ds, options);
}

TEST(ThreadDeterminism, PoolHasEightWorkers) {
  ASSERT_TRUE(kForcePoolWidth);
  EXPECT_GE(global_pool().size(), 8u);
}

TEST(ThreadDeterminism, EngineFitsAreWidthInvariant) {
  const data::Dataset ds = fit_dataset();
  std::uint64_t h = kFnvSeed;
  for (const char* method : {"mcdc1", "mcdc"}) {
    const std::vector<int> labels = sweep_widths(method, [&] {
      const api::FitResult result = fit(ds, method);
      EXPECT_TRUE(result.ok()) << method;
      return result.report.labels;
    });
    h = fnv1a(h, labels);
  }
#if defined(__linux__) && defined(__GLIBC__)
  EXPECT_EQ(h, 0x4551e46199e0a005ULL) << "single-thread fit labels drifted";
#endif
}

TEST(ThreadDeterminism, ModelPredictIsWidthInvariant) {
  const data::Dataset ds = fit_dataset();
  const data::Dataset foreign = foreign_dataset();
  const api::FitResult result = fit(ds, "mcdc1");
  ASSERT_TRUE(result.ok());
  const std::vector<int> labels = sweep_widths(
      "Model::predict", [&] { return result.model.predict(foreign); });
#if defined(__linux__) && defined(__GLIBC__)
  EXPECT_EQ(fnv1a(kFnvSeed, labels), 0x7f1d7b9d3972d665ULL)
      << "single-thread predict labels drifted";
#endif
}

TEST(ThreadDeterminism, StreamingClassifyIsWidthInvariant) {
  const data::Dataset ds = fit_dataset();
  core::StreamingMgcpl stream(ds.cardinalities());
  stream.observe_chunk(ds);
  const data::Dataset window = foreign_dataset();
  const std::vector<int> labels = sweep_widths(
      "StreamingMgcpl::classify", [&] { return stream.classify(window); });
#if defined(__linux__) && defined(__GLIBC__)
  EXPECT_EQ(fnv1a(kFnvSeed, labels), 0x3e88a1b7bdc27525ULL)
      << "single-thread classify labels drifted";
#endif
}

TEST(ThreadDeterminism, ServingSweepsAreWidthInvariant) {
  const data::Dataset ds = fit_dataset();
  const api::FitResult result = fit(ds, "mcdc1");
  ASSERT_TRUE(result.ok());
  const auto model = std::make_shared<const api::Model>(result.model);

  const std::size_t n = ds.num_objects();
  const std::size_t d = ds.num_features();
  std::vector<data::Value> rows(n * d);
  for (std::size_t i = 0; i < n; ++i) ds.gather_row(i, rows.data() + i * d);

  const std::vector<int> labels = sweep_widths("ModelServer", [&] {
    serve::ServeConfig config;
    config.max_batch = 64;
    serve::ModelServer server(model, config);
    // Pipelined submits so the dispatcher drains real multi-row batches
    // (each batch is one parallel predict_rows sweep).
    std::vector<std::future<int>> futures;
    futures.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      futures.push_back(server.submit(rows.data() + i * d));
    }
    std::vector<int> out(n);
    for (std::size_t i = 0; i < n; ++i) out[i] = futures[i].get();
    return out;
  });
  EXPECT_EQ(labels, model->predict(ds));
#if defined(__linux__) && defined(__GLIBC__)
  EXPECT_EQ(fnv1a(kFnvSeed, labels), 0x4e5430f4751796a5ULL)
      << "single-thread served labels drifted";
#endif
}

// Dispatch-level determinism: core/simd.h promises byte-identical labels
// across the scalar and AVX2 kernel tables at every thread width. For
// every registered method this fits once (the fit itself is level-
// invariant — the registry goldens in test_profile_set.cpp pin it), then
// sweeps the frozen consumer Model::predict over a foreign dataset under
// {scalar, avx2} × {1, 2, 8 workers}, asserting label identity and
// accumulating one FNV golden per dispatch level. On hosts without AVX2
// the avx2 leg degrades to scalar (set_level's documented behaviour), so
// the comparison is trivially green there and the golden still holds; on
// AVX2 hardware a split between the two hashes means the vector path
// reassociated or fused where the scalar path does not.
TEST(ThreadDeterminism, FrozenPredictsMatchAcrossSimdLevelsAndWidths) {
  const data::Dataset ds = fit_dataset();
  const data::Dataset foreign = foreign_dataset();
  const core::simd::Level entry = core::simd::level();

  std::uint64_t hashes[2] = {kFnvSeed, kFnvSeed};
  std::size_t covered = 0;
  for (const api::MethodInfo& method : api::registry().methods()) {
    const api::FitResult result = fit(ds, method.key.c_str());
    std::vector<int> per_level[2];
    for (const core::simd::Level level :
         {core::simd::Level::kScalar, core::simd::Level::kAvx2}) {
      const auto idx = static_cast<std::size_t>(level);
      core::simd::set_level(level);
      per_level[idx] = sweep_widths(method.key.c_str(), [&] {
        return result.ok() ? result.model.predict(foreign)
                           : std::vector<int>();
      });
      hashes[idx] = fnv1a(hashes[idx], per_level[idx]);
    }
    EXPECT_EQ(per_level[0], per_level[1])
        << method.key << ": labels diverged between the scalar and "
        << core::simd::level_name(core::simd::level()) << " kernel tables";
    ++covered;
  }
  core::simd::set_level(entry);
  // Every registered method must take part; a new registration is covered
  // automatically but still has to keep the goldens below in place.
  EXPECT_EQ(covered, api::registry().methods().size());
#if defined(__linux__) && defined(__GLIBC__)
  EXPECT_EQ(hashes[0], 0xdde65f00d377d996ULL)
      << "scalar frozen predict labels drifted";
  EXPECT_EQ(hashes[1], hashes[0])
      << "AVX2 kernels diverged from the scalar baseline";
#endif
}

// The whole continuous-learning loop, replayed twice per width: a clean
// act then a code-shifted act (the standard injected drift), closed by a
// manual tick. The decision sequence is row-counted and every parallel
// consumer inside it (learner classify, snapshot predict_rows) is
// width-invariant, so ticks, swaps, refits, the published generation and
// the final snapshot's predictions must all reproduce bit-exactly.
TEST(ThreadDeterminism, OnlineLoopIsWidthInvariant) {
  const data::Dataset ds = fit_dataset();
  const std::size_t n = ds.num_objects();
  const std::size_t d = ds.num_features();
  std::vector<data::Value> rows(n * d);
  for (std::size_t i = 0; i < n; ++i) ds.gather_row(i, rows.data() + i * d);
  std::vector<data::Value> shifted(rows);
  for (std::size_t i = 0; i < shifted.size(); ++i) {
    const int card = ds.cardinalities()[i % d];
    if (shifted[i] != data::kMissing && card > 1) {
      shifted[i] = (shifted[i] + 1) % card;
    }
  }

  const std::vector<int> outcome = sweep_widths("OnlineUpdater", [&] {
    api::Engine engine;
    api::FitOptions options;
    options.method = "mcdc1";
    options.k = 3;
    options.seed = 17;
    options.evaluate = false;
    options.stage_reports = false;
    EXPECT_TRUE(engine.fit(ds, options).ok());
    serve::OnlineConfig config;
    config.tick_every = 64;
    config.window_capacity = 64;
    config.min_refit_rows = 32;
    config.drift_threshold = 0.1;
    const auto updater = engine.serve_online(config);
    std::vector<int> out = updater->observe(rows.data(), n);
    const std::vector<int> drifted = updater->observe(shifted.data(), n);
    out.insert(out.end(), drifted.begin(), drifted.end());
    updater->tick();
    const api::OnlineEvidence evidence = updater->evidence();
    const auto snapshot = updater->server()->snapshot();
    std::vector<int> served(n);
    snapshot->predict_rows(shifted.data(), n, served.data());
    out.insert(out.end(), served.begin(), served.end());
    out.push_back(static_cast<int>(evidence.ticks));
    out.push_back(static_cast<int>(evidence.swaps));
    out.push_back(static_cast<int>(evidence.refits));
    out.push_back(static_cast<int>(evidence.holds));
    // rows_absorbed counts distinct stream rows (refit replays do not
    // re-count), so both counters equal the 2n rows this replay feeds.
    out.push_back(static_cast<int>(evidence.rows_observed));
    out.push_back(static_cast<int>(evidence.rows_absorbed));
    out.push_back(static_cast<int>(evidence.generation));
    out.push_back(static_cast<int>(evidence.first_refit_tick));
    out.push_back(evidence.clusters);
    updater->server()->stop();
    return out;
  });
#if defined(__linux__) && defined(__GLIBC__)
  // Golden re-pinned when rows_observed/rows_absorbed joined the outcome
  // vector (and the absorb counter stopped double-counting refit replays);
  // the decision sequence itself is unchanged from the previous pin.
  EXPECT_EQ(fnv1a(kFnvSeed, outcome), 0x010924e709361159ULL)
      << "single-thread online loop drifted";
#endif
}

// The drift-detector bank, bit for bit. OnlineLoopIsWidthInvariant runs
// the default bank (the mean detector alone); this golden pins the other
// three detectors' statistics and the decisions they drive. A seeded
// nested stream (12 segments of 800 rows, every other one code-shifted,
// 6% missing cells, every 97th row all-missing, scattered out-of-domain
// codes) runs through five updaters whose chunk sizes straddle the tick
// cadence: both learners, both multi-detector banks, a window smaller
// than the cadence, k-of-n voting, two empty-server starts and two
// external swaps behind the updater's back. Per chunk the hash takes every
// counter, the baseline and drift statistics, and each detector's fired
// ticks, refits and last/max statistic bits; per case the drift trace,
// the refit triggers, the observe ids and the final snapshot's labels.
struct BankCase {
  const char* learner;
  const char* detector;
  std::size_t chunk;
  std::size_t tick_every;
  std::size_t window = 1024;
  std::size_t trigger_k = 1;
  bool empty_start = false;  // the server holds no snapshot at the start
  std::size_t swap_after = 0;  // chunks before an external swap; 0 = none
  bool swap_clean = true;      // swap in the clean fit (else the shift export)
};

std::uint64_t fnv1a_u64(std::uint64_t h,
                        std::initializer_list<std::uint64_t> values) {
  for (const std::uint64_t u : values) {
    for (int b = 0; b < 8; ++b) {
      h ^= (u >> (8 * b)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

std::uint64_t fnv1a_text(std::uint64_t h, const std::string& text) {
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return fnv1a_u64(h, {text.size()});
}

std::uint64_t hash_online_evidence(std::uint64_t h,
                                   const api::OnlineEvidence& ev) {
  h = fnv1a_u64(h, {ev.ticks, ev.swaps, ev.refits, ev.holds,
                    ev.rows_observed, ev.rows_absorbed, ev.generation,
                    ev.first_refit_tick,
                    static_cast<std::uint64_t>(ev.clusters)});
  h = fnv1a_bits(h, {ev.baseline_score, ev.last_drift, ev.max_drift});
  for (const api::DriftDetectorEvidence& det : ev.detectors) {
    h = fnv1a_u64(h, {det.fired_ticks, det.refits});
    h = fnv1a_bits(h, {det.last_statistic, det.max_statistic});
  }
  return h;
}

std::uint64_t bank_case_hash(const BankCase& c,
                             const std::vector<data::Value>& stream,
                             const std::vector<int>& cardinalities,
                             const std::shared_ptr<const api::Model>& clean,
                             const std::shared_ptr<const api::Model>& shift) {
  const std::size_t d = cardinalities.size();
  const std::size_t n = stream.size() / d;
  serve::OnlineConfig config;
  config.learner = c.learner;
  config.detector = c.detector;
  config.tick_every = c.tick_every;
  config.window_capacity = c.window;
  config.trigger_k = c.trigger_k;
  config.seed = 29;
  auto server = std::make_shared<serve::ModelServer>(
      c.empty_start ? nullptr : clean, serve::ServeConfig{.row_width = d});
  serve::OnlineUpdater updater(
      server, serve::make_online_learner(config, cardinalities), config);
  std::uint64_t h = kFnvSeed;
  std::vector<int> ids;
  std::size_t chunks = 0;
  for (std::size_t lo = 0; lo < n; lo += c.chunk) {
    const std::size_t m = std::min(c.chunk, n - lo);
    const std::vector<int> got = updater.observe(&stream[lo * d], m);
    ids.insert(ids.end(), got.begin(), got.end());
    h = hash_online_evidence(h, updater.evidence());
    if (++chunks == c.swap_after) server->swap(c.swap_clean ? clean : shift);
  }
  const api::OnlineEvidence ev = updater.evidence();
  for (const double drift : ev.drift_scores) h = fnv1a_bits(h, {drift});
  for (const std::string& names : ev.refit_detectors) h = fnv1a_text(h, names);
  h = fnv1a(h, ids);
  std::vector<int> labels(n);
  server->snapshot()->predict_rows(stream.data(), n, labels.data());
  h = fnv1a(h, labels);
  server->stop();
  return h;
}

TEST(DetectorDeterminism, DetectorBankIsPinnedAtBothDispatchLevels) {
  data::NestedConfig table_config;
  table_config.num_objects = 9600;
  table_config.num_features = 12;
  table_config.coarse_features = 8;
  table_config.num_coarse = 4;
  table_config.fine_per_coarse = 2;
  table_config.cardinality = 8;
  table_config.purity = 0.9;
  table_config.seed = 1801;
  const data::Dataset ds = data::with_missing_cells(
      data::nested(table_config).dataset, 0.06, 1802);
  const std::size_t n = ds.num_objects();
  const std::size_t d = ds.num_features();
  const std::vector<int>& cards = ds.cardinalities();
  constexpr std::size_t kSegment = 800;
  std::vector<data::Value> stream(n * d);
  for (std::size_t i = 0; i < n; ++i) {
    data::Value* row = &stream[i * d];
    ds.gather_row(i, row);
    for (std::size_t r = 0; r < d; ++r) {
      if (i % 97 == 0) {
        row[r] = data::kMissing;
      } else if ((i / kSegment) % 2 == 1 && row[r] != data::kMissing) {
        row[r] = (row[r] + 1) % cards[r];
      }
    }
    // Codes outside the domain, which every scorer, learner and the hist
    // detector must treat as missing.
    if (i % 41 == 7) row[i % d] = cards[i % d] + static_cast<int>(i % 3);
    if (i % 43 == 5) row[(i + 1) % d] = -2;
  }

  // The clean fit serves the fitted starts; the shift export is a streaming
  // learner's snapshot of the first shifted segment.
  std::vector<std::size_t> head(kSegment);
  for (std::size_t i = 0; i < kSegment; ++i) head[i] = i;
  const api::FitResult fitted = fit(ds.subset(head), "mcdc1");
  ASSERT_TRUE(fitted.ok());
  const auto clean = std::make_shared<const api::Model>(fitted.model);
  std::unique_ptr<serve::OnlineLearner> exporter =
      serve::make_online_learner(serve::OnlineConfig{}, cards);
  for (std::size_t i = kSegment; i < 2 * kSegment; ++i) {
    exporter->observe(&stream[i * d]);
  }
  exporter->end_chunk();
  const auto shift = std::make_shared<const api::Model>(exporter->to_model());

  const BankCase cases[] = {
      {.learner = "streaming", .detector = "ensemble", .chunk = 100,
       .tick_every = 256, .swap_after = 19, .swap_clean = false},
      {.learner = "mcdc-online", .detector = "ensemble", .chunk = 1000,
       .tick_every = 128, .window = 100},
      {.learner = "streaming", .detector = "ph,quantile", .chunk = 1000,
       .tick_every = 128, .empty_start = true, .swap_after = 2},
      {.learner = "mcdc-online", .detector = "ph,quantile", .chunk = 100,
       .tick_every = 256, .empty_start = true},
      {.learner = "streaming", .detector = "ensemble", .chunk = 77,
       .tick_every = 300, .trigger_k = 2},
  };
  const core::simd::Level entry = core::simd::level();
  std::uint64_t hashes[2] = {kFnvSeed, kFnvSeed};
  for (const core::simd::Level level :
       {core::simd::Level::kScalar, core::simd::Level::kAvx2}) {
    core::simd::set_level(level);
    std::uint64_t& h = hashes[static_cast<std::size_t>(level)];
    for (const BankCase& c : cases) {
      h = fnv1a_u64(h, {bank_case_hash(c, stream, cards, clean, shift)});
    }
  }
  core::simd::set_level(entry);
  EXPECT_EQ(hashes[1], hashes[0])
      << "detector bank diverged between the scalar and "
      << core::simd::level_name(core::simd::level()) << " kernel tables";
#if defined(__linux__) && defined(__GLIBC__)
  EXPECT_EQ(hashes[0], 0x97948f326e6ba375ULL) << "detector bank drifted";
#endif
}

// Learner golden: both online learners driven directly, row by row, over
// `stream`, consolidating every 150 rows. The hash takes every returned
// stable id; after each chunk the live count, the live ids and the bits of
// the total mass; at the end the classify labels over `ds` and the
// exported artifact's bytes; then, after `reset`, the ids of a replay of
// the last 300 rows.
template <class Learner, class Reset>
std::uint64_t learner_hash(std::uint64_t h, Learner& learner, Reset reset,
                           const data::Dataset& ds,
                           const std::vector<data::Value>& stream) {
  const std::size_t d = ds.num_features();
  const std::size_t n = stream.size() / d;
  std::vector<int> ids(n);
  for (std::size_t i = 0; i < n; ++i) {
    ids[i] = learner.observe(&stream[i * d]);
    if ((i + 1) % 150 == 0) {
      learner.end_chunk();
      h = fnv1a_u64(h, {learner.num_clusters()});
      h = fnv1a(h, learner.cluster_ids());
      h = fnv1a_bits(h, {learner.total_mass()});
    }
  }
  h = fnv1a(h, ids);
  h = fnv1a(h, learner.classify(ds));
  for (const std::uint8_t byte : learner.to_model().to_binary()) {
    h = fnv1a_u64(h, {byte});
  }
  reset();
  std::vector<int> replay;
  for (std::size_t i = n - 300; i < n; ++i) {
    replay.push_back(learner.observe(&stream[i * d]));
  }
  return fnv1a(h, replay);
}

TEST(LearnerDeterminism, OnlineLearnersArePinnedAtBothDispatchLevels) {
  data::NestedConfig table_config;
  table_config.num_objects = 1800;
  table_config.num_features = 10;
  table_config.coarse_features = 6;
  table_config.num_coarse = 4;
  table_config.fine_per_coarse = 3;
  table_config.cardinality = 12;
  table_config.purity = 0.85;
  table_config.seed = 1901;
  const data::Dataset table = data::with_missing_cells(
      data::nested(table_config).dataset, 0.07, 1902);
  const std::size_t n = table.num_objects();
  const std::size_t d = table.num_features();
  const std::vector<int>& cards = table.cardinalities();
  // Every 89th row is all-missing; the learners see scattered codes
  // outside the domain too, which they must treat as missing (classify
  // runs over the in-domain table).
  std::vector<data::Value> cells(n * d);
  for (std::size_t i = 0; i < n; ++i) {
    table.gather_row(i, &cells[i * d]);
    if (i % 89 == 0) std::fill_n(&cells[i * d], d, data::kMissing);
  }
  const data::Dataset ds(n, d, cells, cards);
  std::vector<data::Value> stream = cells;
  for (std::size_t i = 0; i < n; ++i) {
    if (i % 37 == 3) {
      stream[i * d + i % d] = cards[i % d] + static_cast<int>(i % 2);
    }
    if (i % 53 == 11) stream[i * d + (i + 3) % d] = -3;
  }

  struct Budget {
    std::size_t max_clusters;
    double decay;
  };
  const Budget budgets[] = {{6, 0.7}, {256, 0.9}};
  const core::simd::Level entry = core::simd::level();
  std::uint64_t hashes[2] = {kFnvSeed, kFnvSeed};
  for (const core::simd::Level level :
       {core::simd::Level::kScalar, core::simd::Level::kAvx2}) {
    core::simd::set_level(level);
    std::uint64_t& h = hashes[static_cast<std::size_t>(level)];
    for (const Budget& budget : budgets) {
      core::StreamingConfig streaming;
      streaming.max_clusters = budget.max_clusters;
      streaming.decay = budget.decay;
      core::StreamingMgcpl mgcpl(cards, streaming);
      h = learner_hash(
          h, mgcpl, [&] { mgcpl = core::StreamingMgcpl(cards, streaming); },
          ds, stream);

      core::RgclConfig rgcl_config;
      rgcl_config.max_clusters = budget.max_clusters;
      rgcl_config.decay = budget.decay;
      core::RgclLearner rgcl(cards, 23, rgcl_config);
      h = learner_hash(h, rgcl, [&] { rgcl.reset(); }, ds, stream);
    }
  }
  core::simd::set_level(entry);
  EXPECT_EQ(hashes[1], hashes[0])
      << "online learners diverged between the scalar and "
      << core::simd::level_name(core::simd::level()) << " kernel tables";
#if defined(__linux__) && defined(__GLIBC__)
  EXPECT_EQ(hashes[0], 0xdca25c6ba197106fULL) << "online learners drifted";
#endif
}

// Anomaly golden: score_anomalies, the consumer of ProfileSet's score_one
// that no registry method reaches, hashed bit for bit — the bits of every
// score, then the ranking. Each view gets its own MGCPL analysis.
std::uint64_t anomaly_hash(std::uint64_t h, const data::DatasetView& view) {
  const core::MgcplResult mgcpl = core::Mgcpl().run(view, 17);
  const core::AnomalyResult anomalies = core::score_anomalies(view, mgcpl);
  for (const double score : anomalies.scores) h = fnv1a_bits(h, {score});
  for (const std::size_t i : anomalies.ranking) h = fnv1a_u64(h, {i});
  return h;
}

TEST(RowOpDeterminism, AnomalyScoresArePinnedAtBothDispatchLevels) {
  data::NestedConfig config;
  config.num_objects = 900;
  config.num_features = 10;
  config.coarse_features = 6;
  config.num_coarse = 4;
  config.fine_per_coarse = 3;
  config.cardinality = 12;
  config.purity = 0.85;
  config.seed = 2001;
  const data::Dataset ds =
      data::with_missing_cells(data::nested(config).dataset, 0.06, 2002);
  ASSERT_TRUE(ds.has_missing());
  // The indirect view visits every row once in a shuffled order (389 is
  // coprime to n), then the first third of that order a second time.
  const std::size_t n = ds.num_objects();
  std::vector<std::size_t> rows(n + n / 3);
  for (std::size_t j = 0; j < rows.size(); ++j) rows[j] = (j * 389 + 7) % n;
  const data::DatasetView shuffled(ds, rows);

  const core::simd::Level entry = core::simd::level();
  std::uint64_t hashes[2] = {kFnvSeed, kFnvSeed};
  for (const core::simd::Level level :
       {core::simd::Level::kScalar, core::simd::Level::kAvx2}) {
    core::simd::set_level(level);
    std::uint64_t& h = hashes[static_cast<std::size_t>(level)];
    h = anomaly_hash(h, ds);
    h = anomaly_hash(h, shuffled);
  }
  core::simd::set_level(entry);
  EXPECT_EQ(hashes[1], hashes[0])
      << "anomaly scores diverged between the scalar and "
      << core::simd::level_name(core::simd::level()) << " kernel tables";
#if defined(__linux__) && defined(__GLIBC__)
  EXPECT_EQ(hashes[0], 0xe4339875c8827cb8ULL) << "anomaly scores drifted";
#endif
}

// Score goldens: every index the library reports, hashed bit for bit.
// One MGCPL analysis per table feeds estimate_k (each candidate's
// silhouette) and supplies the partitions scored: every recorded stage
// plus the given reference partitions, each with all five internal
// indices and the four external ones against `truth`. The scoring runs
// under both kernel tables and must hash to the same golden.
std::uint64_t score_hash(const data::Dataset& ds, const std::vector<int>& truth,
                         const std::vector<std::vector<int>>& references) {
  const core::MgcplResult mgcpl = core::Mgcpl().run(ds, 17);
  std::vector<std::vector<int>> partitions = mgcpl.partitions;
  partitions.insert(partitions.end(), references.begin(), references.end());
  const core::simd::Level entry = core::simd::level();
  std::uint64_t hashes[2] = {kFnvSeed, kFnvSeed};
  for (const core::simd::Level level :
       {core::simd::Level::kScalar, core::simd::Level::kAvx2}) {
    std::uint64_t& h = hashes[static_cast<std::size_t>(level)];
    core::simd::set_level(level);
    for (const core::KCandidate& c : core::estimate_k(ds, mgcpl).candidates) {
      h = fnv1a_bits(h, {c.silhouette});
    }
    for (const std::vector<int>& labels : partitions) {
      const metrics::InternalScores in = metrics::internal_scores(ds, labels);
      h = fnv1a_bits(h, {in.compactness, in.separation, in.silhouette,
                         in.category_utility, in.davies_bouldin});
      const metrics::Scores ex = metrics::score_all(labels, truth);
      h = fnv1a_bits(h, {ex.acc, ex.ari, ex.ami, ex.fm});
    }
  }
  core::simd::set_level(entry);
  EXPECT_EQ(hashes[1], hashes[0])
      << "scores diverged between the scalar and "
      << core::simd::level_name(core::simd::level()) << " kernel tables";
  return hashes[0];
}

TEST(ScoreDeterminism, NestedTableScoresArePinned) {
  // The benchmark's table family at tier-1 size: 16 features of
  // cardinality 32, 8 coarse clusters of 4 fine ones each.
  data::NestedConfig config;
  config.num_objects = 5000;
  config.num_features = 16;
  config.coarse_features = 8;
  config.num_coarse = 8;
  config.fine_per_coarse = 4;
  config.cardinality = 32;
  config.purity = 0.9;
  config.seed = 901;
  const data::NestedDataset table = data::nested(config);
  const std::uint64_t h =
      score_hash(table.dataset, table.fine_labels,
                 {table.fine_labels, table.dataset.labels()});
#if defined(__linux__) && defined(__GLIBC__)
  EXPECT_EQ(h, 0x3119b9f205b5f765ULL) << "nested-table scores drifted";
#endif
}

TEST(ScoreDeterminism, CongressionalScoresWithMissingCellsArePinned) {
  const data::Dataset ds = data::load("Con.");
  ASSERT_TRUE(ds.has_missing());
  const std::uint64_t h = score_hash(ds, ds.labels(), {ds.labels()});
#if defined(__linux__) && defined(__GLIBC__)
  EXPECT_EQ(h, 0xc07164dab3f50f7fULL) << "Con. scores drifted";
#endif
}

// Node-grouping golden: three planted profiles of 30 nodes over four
// features. About one cell in nine of the first three features is missing
// and every seventh node strays from its profile in one feature; profile 0
// never reports `disk`, and profile 1 reports `ssd`, `hdd` and nothing
// equally often, so its dominant `disk` value is a tie.
data::Dataset gapped_node_table() {
  const char* const profiles[3][4] = {{"a100", "hi", "ib", "?"},
                                      {"v100", "mid", "eth", "ssd"},
                                      {"t4", "lo", "roce", "nvme"}};
  const char* const profile1_disks[3] = {"ssd", "hdd", "?"};
  data::DatasetBuilder builder({"gpu", "mem", "net", "disk"});
  for (int i = 0; i < 90; ++i) {
    const int p = i % 3;
    std::vector<std::string> row(profiles[p], profiles[p] + 4);
    if (p == 1) row[3] = profile1_disks[(i / 3) % 3];
    if (i % 7 == 0) row[(i / 7) % 3] = profiles[(p + 1) % 3][(i / 7) % 3];
    for (int r = 0; r < 3; ++r) {
      if ((i + 2 * r) % 9 == 0) row[static_cast<std::size_t>(r)] = "?";
    }
    builder.add_row(row);
  }
  return std::move(builder).build();
}

TEST(BankConsumerDeterminism, NodeGroupingIsPinned) {
  const data::Dataset ds = gapped_node_table();
  const std::size_t d = ds.num_features();
  std::uint64_t h = kFnvSeed;
  for (const int k : {0, 3}) {
    const dist::NodeGroupingResult result = dist::group_nodes(ds, k, 7);
    h = fnv1a(h, result.assignment);
    bool tie = false;
    bool unobserved = false;
    for (const dist::NodeGroup& group : result.groups) {
      h = fnv1a_u64(h, {static_cast<std::uint64_t>(group.id)});
      for (const std::size_t i : group.members) h = fnv1a_u64(h, {i});
      for (const std::string& name : group.dominant_values) {
        h = fnv1a_text(h, name);
      }
      for (const double c : group.consistency) h = fnv1a_bits(h, {c});
      h = fnv1a_bits(h, {group.mean_consistency});
      // The cases the golden must reach, recounted from the members.
      for (std::size_t r = 0; r < d; ++r) {
        std::vector<int> counts(static_cast<std::size_t>(ds.cardinality(r)));
        for (const std::size_t i : group.members) {
          if (ds.at(i, r) != data::kMissing) {
            ++counts[static_cast<std::size_t>(ds.at(i, r))];
          }
        }
        const int top = *std::max_element(counts.begin(), counts.end());
        unobserved = unobserved || top == 0;
        tie = tie || (top > 0 && std::count(counts.begin(), counts.end(),
                                            top) > 1);
      }
    }
    EXPECT_TRUE(tie) << "k = " << k;
    EXPECT_TRUE(unobserved) << "k = " << k;
  }
#if defined(__linux__) && defined(__GLIBC__)
  EXPECT_EQ(h, 0x1344d41c53d5e191ULL) << "node grouping drifted";
#endif
}

// k-modes golden: Huang's mode update starts from count -1, so a cluster
// that observes no value of a feature takes code 0 as its mode there.
// Planted cluster 1 of a noisy table has its last feature blanked; at both
// k some k-modes cluster gathers only blanked rows, so the rule fires, and
// the labels move if that mode is kept missing instead.
TEST(BankConsumerDeterminism, KModesLabelsArePinned) {
  data::WellSeparatedConfig config;
  config.num_objects = 240;
  config.num_features = 5;
  config.num_clusters = 3;
  config.cardinality = 4;
  config.purity = 0.85;
  config.seed = 42;
  const data::Dataset planted = data::well_separated(config);
  const std::size_t n = planted.num_objects();
  const std::size_t d = planted.num_features();
  std::vector<data::Value> cells(n * d);
  for (std::size_t i = 0; i < n; ++i) {
    planted.gather_row(i, &cells[i * d]);
    if (planted.labels()[i] == 1) cells[i * d + d - 1] = data::kMissing;
  }
  const data::Dataset ds(n, d, std::move(cells), planted.cardinalities());
  std::uint64_t h = kFnvSeed;
  for (const int k : {4, 5}) {
    const std::vector<int> labels = baselines::KModes().cluster(ds, k, 3).labels;
    h = fnv1a(h, labels);
    std::vector<int> observed(static_cast<std::size_t>(k), 0);
    std::vector<int> size(static_cast<std::size_t>(k), 0);
    for (std::size_t i = 0; i < n; ++i) {
      const auto l = static_cast<std::size_t>(labels[i]);
      ++size[l];
      if (ds.at(i, d - 1) != data::kMissing) ++observed[l];
    }
    bool fires = false;
    for (std::size_t l = 0; l < size.size(); ++l) {
      fires = fires || (size[l] > 0 && observed[l] == 0);
    }
    EXPECT_TRUE(fires) << "k = " << k;
  }
#if defined(__linux__) && defined(__GLIBC__)
  EXPECT_EQ(h, 0xcc0221f9fff004f0ULL) << "k-modes labels drifted";
#endif
}

}  // namespace
}  // namespace mcdc

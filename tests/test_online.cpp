// Tests for the continuous-learning serving loop (serve/online.h) and its
// feeders: StreamingMgcpl::to_model snapshot export (stable-id ordering,
// JSON + binary round trips, the empty-learner k = 0 contract, lossless
// export of both learners' decayed histograms), the k = 0 swap path
// through ModelServer (must not wedge in-flight batches), the
// OnlineUpdater drift detector (quiet streams never refit; an injected
// code-shift refits within a few ticks and the recovered snapshot
// re-partitions the drifted window like a from-scratch refit), the loop
// beside live predict traffic (the same decisions as with none, and a
// predict + observe + refit storm on a row budget), each detector bank's
// rows-to-refit after an injected shift, the mcdc-online registry method,
// and Engine::serve_online binding.
#include "serve/online.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "api/artifact.h"
#include "api/engine.h"
#include "api/registry.h"
#include "core/rgcl.h"
#include "core/streaming.h"
#include "data/synthetic.h"
#include "serve/server.h"
#include "serving_case.h"

namespace mcdc {
namespace {

// High purity keeps per-cluster profiles concentrated, which is what makes
// the drift signal (mean best-score under the published snapshot) sharp.
data::Dataset fixture_dataset() {
  data::WellSeparatedConfig config;
  config.num_objects = 400;
  config.num_features = 8;
  config.num_clusters = 3;
  config.cardinality = 5;
  config.purity = 0.9;
  config.seed = 13;
  return data::well_separated(config);
}

std::vector<data::Value> gather_rows(const data::Dataset& ds) {
  std::vector<data::Value> rows(ds.num_objects() * ds.num_features());
  for (std::size_t i = 0; i < ds.num_objects(); ++i) {
    ds.gather_row(i, rows.data() + i * ds.num_features());
  }
  return rows;
}

// The abrupt concept drift used throughout: every value code shifted by
// one (mod cardinality) — same geometry, codes the old model never saw.
std::vector<data::Value> shift_codes(const std::vector<data::Value>& rows,
                                     const std::vector<int>& cardinalities) {
  const std::size_t d = cardinalities.size();
  std::vector<data::Value> shifted(rows);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const int card = cardinalities[i % d];
    if (shifted[i] != data::kMissing && card > 1) {
      shifted[i] = (shifted[i] + 1) % card;
    }
  }
  return shifted;
}

// Partition equality up to cluster renaming: a bijection must relate the
// two label sets.
bool partitions_match(const std::vector<int>& a, const std::vector<int>& b) {
  if (a.size() != b.size()) return false;
  std::map<int, int> forward, reverse;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto f = forward.emplace(a[i], b[i]);
    if (!f.second && f.first->second != b[i]) return false;
    const auto r = reverse.emplace(b[i], a[i]);
    if (!r.second && r.first->second != a[i]) return false;
  }
  return true;
}

api::FitResult fit_fixture(const data::Dataset& ds, api::Engine& engine) {
  api::FitOptions options;
  options.method = "mcdc";
  options.k = 3;
  options.seed = 17;
  options.evaluate = false;
  options.stage_reports = false;
  return engine.fit(ds, options);
}

// --- StreamingMgcpl::to_model ---------------------------------------------

TEST(StreamingToModel, SnapshotPredictsLikeClassifyAndRoundTrips) {
  const data::Dataset ds = fixture_dataset();
  const std::vector<data::Value> rows = gather_rows(ds);
  const std::size_t d = ds.num_features();

  core::StreamingMgcpl learner(ds.cardinalities());
  for (std::size_t i = 0; i < ds.num_objects(); ++i) {
    learner.observe(rows.data() + i * d);
  }
  learner.end_chunk();
  ASSERT_GT(learner.num_clusters(), 0u);

  const api::Model model = learner.to_model();
  EXPECT_TRUE(model.fitted());
  EXPECT_EQ(static_cast<std::size_t>(model.k()), learner.num_clusters());

  // Model cluster j is the j-th smallest live stable id, so classify()
  // output maps onto predict output through the sorted id list.
  std::vector<int> ids = learner.cluster_ids();
  std::sort(ids.begin(), ids.end());
  std::map<int, int> dense;
  for (std::size_t j = 0; j < ids.size(); ++j) {
    dense[ids[j]] = static_cast<int>(j);
  }
  const std::vector<int> classified = learner.classify(ds);
  std::vector<int> predicted(ds.num_objects());
  model.predict_rows(rows.data(), ds.num_objects(), predicted.data());
  for (std::size_t i = 0; i < ds.num_objects(); ++i) {
    ASSERT_TRUE(dense.count(classified[i])) << "unknown stable id";
    EXPECT_EQ(predicted[i], dense[classified[i]]) << "row " << i;
  }

  // JSON and binary round trips reproduce the predictions bit-exactly.
  const api::Model via_json = api::Model::from_json(model.to_json(false));
  const std::vector<std::uint8_t> blob = model.to_binary(true);
  const api::Model via_binary = api::Model::from_binary(blob.data(), blob.size());
  std::vector<int> json_labels(ds.num_objects());
  std::vector<int> binary_labels(ds.num_objects());
  via_json.predict_rows(rows.data(), ds.num_objects(), json_labels.data());
  via_binary.predict_rows(rows.data(), ds.num_objects(), binary_labels.data());
  EXPECT_EQ(json_labels, predicted);
  EXPECT_EQ(binary_labels, predicted);
}

TEST(StreamingToModel, EmptyLearnerExportsValidKZeroModel) {
  const data::Dataset ds = fixture_dataset();
  const core::StreamingMgcpl learner(ds.cardinalities());
  const api::Model model = learner.to_model();

  EXPECT_TRUE(model.has_schema());
  EXPECT_FALSE(model.fitted());
  EXPECT_EQ(model.k(), 0);

  const std::vector<data::Value> rows = gather_rows(ds);
  EXPECT_EQ(model.predict_row(rows.data()), -1);
  EXPECT_DOUBLE_EQ(model.predict_score(rows.data()), 0.0);
  std::vector<int> labels(ds.num_objects(), 7);
  model.predict_rows(rows.data(), ds.num_objects(), labels.data());
  EXPECT_TRUE(std::all_of(labels.begin(), labels.end(),
                          [](int l) { return l == -1; }));

  // k = 0 survives both serialisations (the schema is the payload).
  const api::Model via_json = api::Model::from_json(model.to_json(false));
  EXPECT_EQ(via_json.k(), 0);
  EXPECT_EQ(via_json.cardinalities(), ds.cardinalities());
  const std::vector<std::uint8_t> blob = model.to_binary(true);
  const api::Model via_binary = api::Model::from_binary(blob.data(), blob.size());
  EXPECT_EQ(via_binary.k(), 0);
  EXPECT_EQ(via_binary.predict_row(rows.data()), -1);
}

// --- lossless export under decay ------------------------------------------
//
// With decay < 1 the learners' histograms hold fractional counts, and their
// non-null totals stop being exact row sums of those counts. A snapshot
// must carry the bank verbatim: to_model() predicts exactly what the
// learner's own classify() says (through the stable-id -> dense remap), and
// the snapshot survives the binary and JSON round trips with every size,
// non-null total and count bit-equal.

void expect_bit_equal_banks(const core::ProfileSet& a,
                            const core::ProfileSet& b) {
  ASSERT_EQ(a.num_clusters(), b.num_clusters());
  ASSERT_EQ(a.cardinalities(), b.cardinalities());
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  for (int l = 0; l < a.num_clusters(); ++l) {
    EXPECT_EQ(bits(a.size(l)), bits(b.size(l))) << "cluster " << l;
    for (std::size_t r = 0; r < a.num_features(); ++r) {
      EXPECT_EQ(bits(a.non_null(l, r)), bits(b.non_null(l, r)))
          << "cluster " << l << " feature " << r;
      for (data::Value v = 0; v < a.cardinalities()[r]; ++v) {
        EXPECT_EQ(bits(a.count(l, r, v)), bits(b.count(l, r, v)))
            << "cluster " << l << " feature " << r << " value " << v;
      }
    }
  }
}

// Feeds `ds` in chunks of 50 rows (each chunk ends with the decayed
// consolidation), then checks the export. Returns the rows whose snapshot
// label disagreed with classify().
template <class Learner>
std::size_t check_decayed_export(Learner& learner, const data::Dataset& ds) {
  const std::vector<data::Value> rows = gather_rows(ds);
  const std::size_t n = ds.num_objects();
  const std::size_t d = ds.num_features();
  for (std::size_t i = 0; i < n; ++i) {
    learner.observe(rows.data() + i * d);
    if ((i + 1) % 50 == 0) learner.end_chunk();
  }
  EXPECT_GT(learner.num_clusters(), 0u);
  const api::Model model = learner.to_model();

  std::vector<int> ids = learner.cluster_ids();
  std::sort(ids.begin(), ids.end());
  std::map<int, int> dense;
  for (std::size_t j = 0; j < ids.size(); ++j) {
    dense[ids[j]] = static_cast<int>(j);
  }
  const std::vector<int> classified = learner.classify(ds);
  std::vector<int> predicted(n);
  model.predict_rows(rows.data(), n, predicted.data());
  std::size_t disagreements = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (predicted[i] != dense.at(classified[i])) ++disagreements;
  }

  const std::vector<std::uint8_t> blob = model.to_binary();
  expect_bit_equal_banks(
      api::Model::from_binary(blob.data(), blob.size()).profile_bank(),
      model.profile_bank());
  expect_bit_equal_banks(
      api::Model::from_json(api::Json::parse(model.to_json().dump()))
          .profile_bank(),
      model.profile_bank());
  return disagreements;
}

TEST(LosslessExport, DecayedSnapshotsPredictLikeClassifyForBothLearners) {
  for (const double decay : {0.9, 0.7, 0.5}) {
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      SCOPED_TRACE(testing::Message() << "decay " << decay << " seed " << seed);
      data::WellSeparatedConfig config;
      config.num_objects = 600;
      config.num_features = 8;
      config.num_clusters = 3;
      config.cardinality = 5;
      config.purity = 0.8;
      config.seed = seed;
      const data::Dataset ds = data::well_separated(config);

      core::StreamingConfig streaming;
      streaming.decay = decay;
      core::StreamingMgcpl mgcpl(ds.cardinalities(), streaming);
      EXPECT_EQ(check_decayed_export(mgcpl, ds), 0u) << "streaming";

      core::RgclConfig rgcl_config;
      rgcl_config.decay = decay;
      core::RgclLearner rgcl(ds.cardinalities(), seed, rgcl_config);
      EXPECT_EQ(check_decayed_export(rgcl, ds), 0u) << "mcdc-online";
    }
  }
}

// --- k = 0 swap through ModelServer ---------------------------------------

TEST(ModelServerKZero, SwapToKZeroModelDoesNotWedgeInflightBatches) {
  const data::Dataset ds = fixture_dataset();
  const std::vector<data::Value> rows = gather_rows(ds);
  const std::size_t d = ds.num_features();

  api::Engine engine;
  const api::FitResult fit = fit_fixture(ds, engine);
  ASSERT_TRUE(fit.ok());
  auto server = std::make_shared<serve::ModelServer>(
      std::make_shared<const api::Model>(fit.model));

  const auto empty = std::make_shared<const api::Model>(
      core::StreamingMgcpl(ds.cardinalities()).to_model());
  ASSERT_EQ(empty->k(), 0);

  // Keep requests in flight while the k = 0 model swaps in: every future
  // must resolve (to a fitted label or -1), never hang or throw.
  std::vector<std::future<int>> futures;
  for (std::size_t i = 0; i < 64; ++i) {
    futures.push_back(server->submit(rows.data() + (i % ds.num_objects()) * d));
  }
  server->swap(empty);
  for (auto& future : futures) {
    const int label = future.get();
    EXPECT_GE(label, -1);
    EXPECT_LT(label, fit.model.k());
  }
  // Post-swap traffic answers -1 — the k = 0 contract, not an error.
  EXPECT_EQ(server->predict(rows.data()), -1);
  server->stop();
}

// --- drift detector --------------------------------------------------------

serve::OnlineConfig tight_online_config() {
  serve::OnlineConfig config;
  config.tick_every = 64;
  config.window_capacity = 64;
  config.min_refit_rows = 32;
  config.drift_threshold = 0.1;
  return config;
}

TEST(DriftDetector, QuietStreamNeverRefits) {
  const data::Dataset ds = fixture_dataset();
  const std::vector<data::Value> rows = gather_rows(ds);

  api::Engine engine;
  ASSERT_TRUE(fit_fixture(ds, engine).ok());
  const auto updater = engine.serve_online(tight_online_config());
  updater->observe(rows.data(), ds.num_objects());
  updater->tick();

  const api::OnlineEvidence evidence = updater->evidence();
  EXPECT_GT(evidence.ticks, 0u);
  EXPECT_EQ(evidence.refits, 0u) << "stationary stream triggered a refit";
  EXPECT_EQ(evidence.first_refit_tick, 0u);
  EXPECT_EQ(evidence.rows_observed, ds.num_objects());
  updater->server()->stop();
}

TEST(DriftDetector, InjectedShiftRefitsWithinTicks) {
  const data::Dataset ds = fixture_dataset();
  const std::vector<data::Value> rows = gather_rows(ds);
  const std::vector<data::Value> shifted =
      shift_codes(rows, ds.cardinalities());

  api::Engine engine;
  ASSERT_TRUE(fit_fixture(ds, engine).ok());
  const auto updater = engine.serve_online(tight_online_config());

  updater->observe(rows.data(), ds.num_objects());
  const std::uint64_t clean_ticks = updater->evidence().ticks;
  EXPECT_EQ(updater->evidence().refits, 0u);

  updater->observe(shifted.data(), ds.num_objects());
  updater->tick();

  const api::OnlineEvidence evidence = updater->evidence();
  EXPECT_GE(evidence.refits, 1u) << "injected shift went undetected";
  ASSERT_GT(evidence.first_refit_tick, 0u);
  // Detection latency: the refit must land within a few cadence points of
  // the shift (window 64 / tick 64: the second post-shift window is fully
  // drifted, so 3 ticks is already generous).
  EXPECT_LE(evidence.first_refit_tick, clean_ticks + 3);
  EXPECT_GT(evidence.max_drift, tight_online_config().drift_threshold);
  updater->server()->stop();
}

TEST(DriftDetector, RecoveredSnapshotMatchesFromScratchRefit) {
  const data::Dataset ds = fixture_dataset();
  const std::size_t n = ds.num_objects();
  const std::size_t d = ds.num_features();
  const std::vector<data::Value> rows = gather_rows(ds);
  const std::vector<data::Value> shifted =
      shift_codes(rows, ds.cardinalities());

  api::Engine engine;
  ASSERT_TRUE(fit_fixture(ds, engine).ok());
  const serve::OnlineConfig config = tight_online_config();
  const auto updater = engine.serve_online(config);

  updater->observe(rows.data(), n);
  updater->observe(shifted.data(), n);
  updater->tick();
  ASSERT_GE(updater->evidence().refits, 1u);

  // Served labels on the trailing drifted window vs a from-scratch learner
  // refit on exactly that window: same partition, ids free to differ.
  const std::size_t tail = std::min(config.window_capacity, n);
  const data::Value* window = shifted.data() + (n - tail) * d;
  auto scratch = serve::make_online_learner(config, ds.cardinalities());
  for (std::size_t j = 0; j < tail; ++j) {
    scratch->observe(window + j * d);
  }
  scratch->end_chunk();
  const api::Model refit = scratch->to_model();

  const std::shared_ptr<const api::Model> snapshot =
      updater->server()->snapshot();
  ASSERT_NE(snapshot, nullptr);
  std::vector<int> served(tail), rebuilt(tail);
  snapshot->predict_rows(window, tail, served.data());
  refit.predict_rows(window, tail, rebuilt.data());
  EXPECT_TRUE(partitions_match(served, rebuilt));
  updater->server()->stop();
}

// --- drift bookkeeping (trace ring, absorb counter, empty server) ---------

TEST(DriftBookkeeping, TraceRingKeepsMostRecent512OldestFirst) {
  const data::Dataset ds = fixture_dataset();
  const std::vector<data::Value> rows = gather_rows(ds);
  const std::size_t n = ds.num_objects();
  const std::size_t d = ds.num_features();

  api::Engine engine;
  ASSERT_TRUE(fit_fixture(ds, engine).ok());
  serve::OnlineConfig config = tight_online_config();
  config.tick_every = 1;  // every row is a tick: >512 ticks in one pass
  const auto updater = engine.serve_online(config);

  // Shadow trace: last_drift after every tick, trimmed like the ring.
  constexpr std::size_t kTrace = 512;
  std::vector<double> shadow;
  const std::size_t total = kTrace + 150;
  for (std::size_t t = 0; t < total; ++t) {
    updater->observe(rows.data() + (t % n) * d, 1);
    shadow.push_back(updater->evidence().last_drift);
  }
  ASSERT_EQ(updater->evidence().ticks, total);
  shadow.erase(shadow.begin(),
               shadow.begin() + static_cast<std::ptrdiff_t>(total - kTrace));

  const api::OnlineEvidence evidence = updater->evidence();
  ASSERT_EQ(evidence.drift_scores.size(), kTrace);
  // Oldest-first and bit-exact: a ring that mis-rotated or dropped the
  // wrong end diverges somewhere in these 512 values.
  EXPECT_EQ(evidence.drift_scores, shadow);
  updater->server()->stop();
}

TEST(DriftBookkeeping, RefitReplayDoesNotDoubleCountAbsorbedRows) {
  const data::Dataset ds = fixture_dataset();
  const std::size_t n = ds.num_objects();
  const std::vector<data::Value> rows = gather_rows(ds);
  const std::vector<data::Value> shifted =
      shift_codes(rows, ds.cardinalities());

  api::Engine engine;
  ASSERT_TRUE(fit_fixture(ds, engine).ok());
  const auto updater = engine.serve_online(tight_online_config());
  updater->observe(rows.data(), n);
  updater->observe(shifted.data(), n);
  updater->tick();

  const api::OnlineEvidence evidence = updater->evidence();
  ASSERT_GE(evidence.refits, 1u) << "fixture must exercise the refit replay";
  // Exact pins: 400 clean + 400 shifted rows. rows_absorbed counts each
  // distinct stream row once — the refit replay re-observes window rows
  // already counted and must not inflate it past rows_observed.
  EXPECT_EQ(evidence.rows_observed, 2 * n);
  EXPECT_EQ(evidence.rows_absorbed, 2 * n);
  EXPECT_EQ(evidence.rows_absorbed, evidence.rows_observed);
  updater->server()->stop();
}

TEST(DriftBookkeeping, EmptyServerPublishesZeroScoringCandidate) {
  // An updater over a server with NO snapshot, warmed up on all-missing
  // rows: the exported candidate scores the window 0.0, which the strict
  // publish-if-better gate (candidate > published, with no published mean
  // to beat) used to hold back forever. The first candidate with live
  // clusters must publish unconditionally — generation reaches 1 and the
  // server stops answering from nothing.
  const data::Dataset ds = fixture_dataset();
  const std::size_t d = ds.num_features();

  serve::OnlineConfig config = tight_online_config();
  config.tick_every = 16;
  config.window_capacity = 32;
  // All-missing rows score 0 against everything, so with the default
  // novelty threshold each would spawn a cluster that consolidation
  // immediately starves. Zero it so they pool into one surviving cluster —
  // whose exported candidate still scores the window 0.0, the exact
  // zero-beats-nothing case the publish gate used to wedge on.
  config.streaming.novelty_threshold = 0.0;
  auto server = std::make_shared<serve::ModelServer>(
      nullptr, serve::ServeConfig{.row_width = d});
  serve::OnlineUpdater updater(
      server, serve::make_online_learner(config, ds.cardinalities()), config);
  ASSERT_EQ(server->snapshot(), nullptr);

  std::vector<data::Value> missing(config.tick_every * d, data::kMissing);
  updater.observe(missing.data(), config.tick_every);

  const api::OnlineEvidence evidence = updater.evidence();
  EXPECT_GE(evidence.ticks, 1u);
  EXPECT_GE(evidence.generation, 1u) << "all-missing warmup never published";
  EXPECT_EQ(evidence.swaps, 1u);
  const std::shared_ptr<const api::Model> snapshot = server->snapshot();
  ASSERT_NE(snapshot, nullptr);
  EXPECT_TRUE(snapshot->has_schema());
  server->stop();
}

// --- drift detectors -------------------------------------------------------

// Deterministic 2-cardinality stream with skewed cluster masses: 7 of
// every 10 rows are the all-zeros pattern, 3 the all-ones. A bijective
// code flip (v -> 1 - v) maps the clusters onto each other, so every row
// still scores 1.0 against SOME cluster and the mean alarm sees nothing —
// but the pooled per-feature marginal moves from p(0) = 0.7 to 0.3, which
// the histogram detector must catch at its DEFAULT thresholds.
std::vector<data::Value> skewed_binary_rows(std::size_t n, std::size_t d,
                                            bool flipped) {
  std::vector<data::Value> rows(n * d);
  for (std::size_t i = 0; i < n; ++i) {
    const data::Value v = (i % 10 < 7) ? 0 : 1;
    std::fill(rows.begin() + static_cast<std::ptrdiff_t>(i * d),
              rows.begin() + static_cast<std::ptrdiff_t>((i + 1) * d),
              flipped ? static_cast<data::Value>(1 - v) : v);
  }
  return rows;
}

TEST(DriftDetectorBank, HistCatchesBijectiveFlipTheMeanAlarmMisses) {
  const std::size_t d = 4;
  const std::vector<int> cardinalities(d, 2);
  const std::size_t n = 200;
  const std::vector<data::Value> clean = skewed_binary_rows(n, d, false);
  const std::vector<data::Value> flipped = skewed_binary_rows(n, d, true);

  serve::OnlineConfig config = tight_online_config();
  config.detector = "hist";  // mean rides along passively
  // Default OnlineConfig threshold and the fixed hist thresholds — the
  // point of the test.
  config.drift_threshold = serve::OnlineConfig{}.drift_threshold;
  auto server = std::make_shared<serve::ModelServer>(
      nullptr, serve::ServeConfig{.row_width = d});
  serve::OnlineUpdater updater(
      server, serve::make_online_learner(config, cardinalities), config);

  updater.observe(clean.data(), n);
  ASSERT_NE(server->snapshot(), nullptr);
  ASSERT_EQ(updater.evidence().refits, 0u);

  updater.observe(flipped.data(), n);
  updater.tick();

  const api::OnlineEvidence evidence = updater.evidence();
  ASSERT_EQ(evidence.detectors.size(), 2u);
  const api::DriftDetectorEvidence& mean = evidence.detectors[0];
  const api::DriftDetectorEvidence& hist = evidence.detectors[1];
  EXPECT_EQ(mean.name, "mean");
  EXPECT_FALSE(mean.voting);
  EXPECT_EQ(hist.name, "hist");
  EXPECT_TRUE(hist.voting);

  // The blind spot, pinned: the flip leaves the mean statistic at ~0 (every
  // row still scores 1.0 against the complementary cluster) while the
  // pooled marginal moves 0.7 -> 0.3 (TV = 0.4 > the 0.25 default).
  EXPECT_EQ(mean.fired_ticks, 0u) << "mean alarm should sleep through a flip";
  EXPECT_LT(mean.max_statistic, serve::OnlineConfig{}.drift_threshold);
  EXPECT_GE(hist.fired_ticks, 1u) << "hist detector missed the flip";
  EXPECT_GT(hist.max_statistic, serve::kHistTvThreshold);
  ASSERT_GE(evidence.refits, 1u);
  ASSERT_FALSE(evidence.refit_detectors.empty());
  EXPECT_EQ(evidence.refit_detectors.front(), "hist");
  server->stop();
}

TEST(DriftDetectorBank, TriggerPolicyKOfNHoldsWhenOnlyOneFires) {
  // Same flip stream, but the bank is "mean,hist" with trigger_k = 2:
  // hist fires, the mean never does, so 1 < 2 votes and no refit may land.
  const std::size_t d = 4;
  const std::vector<int> cardinalities(d, 2);
  const std::size_t n = 200;
  const std::vector<data::Value> clean = skewed_binary_rows(n, d, false);
  const std::vector<data::Value> flipped = skewed_binary_rows(n, d, true);

  serve::OnlineConfig config = tight_online_config();
  config.detector = "mean,hist";
  config.trigger_k = 2;
  config.drift_threshold = serve::OnlineConfig{}.drift_threshold;
  auto server = std::make_shared<serve::ModelServer>(
      nullptr, serve::ServeConfig{.row_width = d});
  serve::OnlineUpdater updater(
      server, serve::make_online_learner(config, cardinalities), config);

  updater.observe(clean.data(), n);
  updater.observe(flipped.data(), n);
  updater.tick();

  const api::OnlineEvidence evidence = updater.evidence();
  ASSERT_EQ(evidence.detectors.size(), 2u);
  EXPECT_TRUE(evidence.detectors[0].voting);
  EXPECT_TRUE(evidence.detectors[1].voting);
  EXPECT_GE(evidence.detectors[1].fired_ticks, 1u);
  EXPECT_EQ(evidence.detectors[0].fired_ticks, 0u);
  EXPECT_EQ(evidence.refits, 0u)
      << "2-of-2 policy refitted on a single detector's vote";
  server->stop();
}

TEST(DriftDetectorBank, PageHinkleyFiresOnPersistentSmallDrop) {
  // kPhDelta = 0.005, kPhLambda = 1.5
  const auto detector = serve::make_page_hinkley_detector();
  EXPECT_TRUE(detector->needs_row_scores());

  serve::DriftContext ctx;  // PH ignores the window — sequential state only
  for (int i = 0; i < 200; ++i) detector->observe_score(0.9);
  EXPECT_FALSE(detector->evaluate(ctx).fired)
      << "constant score level must not alarm";

  // A persistent 0.05 drop accumulates ~(0.05 - delta) per row once the
  // running mean settles; well under 200 rows cross lambda = 1.5.
  for (int i = 0; i < 200; ++i) detector->observe_score(0.85);
  EXPECT_TRUE(detector->evaluate(ctx).fired)
      << "persistent small drop never crossed lambda";

  // rebase resets the sequential state — a fresh snapshot, a fresh test.
  detector->rebase(ctx);
  EXPECT_FALSE(detector->evaluate(ctx).fired);
}

TEST(DriftDetectorBank, QuantileDetectorSeesSinkingLowerTail) {
  // kScoreQuantiles = {0.10, 0.25, 0.50}
  const auto detector = serve::make_quantile_detector();

  std::vector<double> healthy(100, 0.9);
  serve::DriftContext ctx;
  ctx.rows = healthy.size();
  ctx.scores = healthy.data();
  detector->rebase(ctx);
  EXPECT_FALSE(detector->evaluate(ctx).fired);

  // 10% of the rows collapse to 0.3: the q10 quantile sinks 0.6 while the
  // mean moves only 0.06 — below the mean alarm's default threshold.
  std::vector<double> tailed(healthy);
  for (std::size_t i = 0; i < 10; ++i) tailed[i] = 0.3;
  ctx.scores = tailed.data();
  const serve::DriftVerdict verdict = detector->evaluate(ctx);
  EXPECT_TRUE(verdict.fired) << "sinking lower tail went unseen";
  EXPECT_GT(verdict.statistic, 0.5);
}

TEST(DriftDetectorBank, SpecParsingBuildsTheRequestedBank) {
  const serve::DetectorBank ensemble =
      serve::make_drift_detectors("ensemble", 0.1);
  ASSERT_EQ(ensemble.detectors.size(), 4u);
  EXPECT_STREQ(ensemble.detectors[0]->name(), "mean");
  EXPECT_STREQ(ensemble.detectors[1]->name(), "hist");
  EXPECT_STREQ(ensemble.detectors[2]->name(), "ph");
  EXPECT_STREQ(ensemble.detectors[3]->name(), "quantile");
  for (const char voting : ensemble.voting) EXPECT_NE(voting, 0);

  // A non-mean spec still constructs the mean detector, passively.
  const serve::DetectorBank hist_only =
      serve::make_drift_detectors("hist", 0.1);
  ASSERT_EQ(hist_only.detectors.size(), 2u);
  EXPECT_STREQ(hist_only.detectors[0]->name(), "mean");
  EXPECT_EQ(hist_only.voting[0], 0);
  EXPECT_NE(hist_only.voting[1], 0);

  // Duplicates collapse; unknown names throw.
  const serve::DetectorBank deduped =
      serve::make_drift_detectors("hist,hist,mean", 0.1);
  EXPECT_EQ(deduped.detectors.size(), 2u);
  EXPECT_NE(deduped.voting[0], 0);
  EXPECT_THROW(serve::make_drift_detectors("nope", 0.1),
               std::invalid_argument);
  EXPECT_THROW(serve::make_drift_detectors("", 0.1),
               std::invalid_argument);
}

TEST(DriftDetectorBank, EvidenceJsonCarriesDetectorState) {
  const std::size_t d = 4;
  const std::vector<int> cardinalities(d, 2);
  const std::size_t n = 200;
  const std::vector<data::Value> clean = skewed_binary_rows(n, d, false);
  const std::vector<data::Value> flipped = skewed_binary_rows(n, d, true);

  serve::OnlineConfig config = tight_online_config();
  config.detector = "hist";
  auto server = std::make_shared<serve::ModelServer>(
      nullptr, serve::ServeConfig{.row_width = d});
  serve::OnlineUpdater updater(
      server, serve::make_online_learner(config, cardinalities), config);
  updater.observe(clean.data(), n);
  updater.observe(flipped.data(), n);
  updater.tick();

  api::RunReport report;
  report.online = updater.evidence();
  const api::Json json = report.to_json();
  const api::Json& online = json.at("online");
  ASSERT_TRUE(online.contains("detectors"));
  const api::Json& detectors = online.at("detectors");
  ASSERT_EQ(detectors.size(), 2u);
  EXPECT_EQ(detectors.at(0).at("name").as_string(), "mean");
  EXPECT_FALSE(detectors.at(0).at("voting").as_bool());
  EXPECT_EQ(detectors.at(1).at("name").as_string(), "hist");
  EXPECT_TRUE(detectors.at(1).at("voting").as_bool());
  EXPECT_GE(detectors.at(1).at("fired_ticks").as_double(), 1.0);
  ASSERT_TRUE(online.contains("refit_detectors"));
  EXPECT_EQ(online.at("refit_detectors").at(0).as_string(), "hist");
  server->stop();
}

// --- the loop beside live traffic -----------------------------------------
//
// The updater is the single writer and predicts only read snapshots, so
// the loop's decisions under traffic are exactly those of the same stream
// fed with none.

serve::OnlineConfig traffic_online_config() {
  serve::OnlineConfig config;
  config.tick_every = 256;
  config.window_capacity = 512;
  return config;
}

// Predict traffic beside the updater: `producers` threads cycle the case's
// rows, each keeping up to `in_flight` requests pending (1 is a blocking
// client), until stop(). Every producer has submitted before the
// constructor returns, so the traffic overlaps whatever follows it. Every
// answer must be a cluster of the snapshot that served it.
class Traffic {
 public:
  Traffic(serve::ModelServer& server, const test::ServingCase& c,
          int producers, std::size_t in_flight) {
    const auto stride = static_cast<std::size_t>(producers);
    for (int t = 0; t < producers; ++t) {
      threads_.emplace_back([this, &server, &c, t, stride, in_flight] {
        std::vector<std::future<int>> window;
        std::uint64_t count = 0;
        const auto drain = [&] {
          for (std::future<int>& label : window) EXPECT_GE(label.get(), 0);
          count += window.size();
          window.clear();
        };
        for (auto i = static_cast<std::size_t>(t);; i += stride) {
          window.push_back(server.submit(c.row(i % c.n())));
          if (i == static_cast<std::size_t>(t)) ready_.fetch_add(1);
          if (window.size() >= in_flight) drain();
          if (done_.load(std::memory_order_relaxed)) break;
        }
        drain();
        answered_.fetch_add(count);
      });
    }
    while (ready_.load() < producers) std::this_thread::yield();
  }
  ~Traffic() { stop(); }
  Traffic(const Traffic&) = delete;
  Traffic& operator=(const Traffic&) = delete;

  // Joins the producers; returns the requests they had answered.
  std::uint64_t stop() {
    done_.store(true);
    for (std::thread& thread : threads_) {
      if (thread.joinable()) thread.join();
    }
    return answered_.load();
  }

 private:
  std::atomic<bool> done_{false};
  std::atomic<int> ready_{0};
  std::atomic<std::uint64_t> answered_{0};
  std::vector<std::thread> threads_;
};

// Feeds the case's whole 256-row chunks to an updater over a fresh server
// beside `clients` blocking clients, then ticks; returns the evidence.
api::OnlineEvidence absorb_beside_predicts(const test::ServingCase& c,
                                           int clients) {
  const serve::OnlineConfig config = traffic_online_config();
  auto server = std::make_shared<serve::ModelServer>(c.model);
  serve::OnlineUpdater updater(
      server, serve::make_online_learner(config, c.ds.cardinalities()),
      config);
  Traffic traffic(*server, c, clients, 1);
  for (std::size_t i = 0; i + 256 <= c.n(); i += 256) {
    updater.observe(c.row(i), 256);
  }
  updater.tick();
  traffic.stop();
  server->stop();
  return updater.evidence();
}

TEST(OnlineLoop, AbsorbsTheStreamBesideConcurrentPredicts) {
  const test::ServingCase c = test::serving_case(2000);
  const api::OnlineEvidence quiet = absorb_beside_predicts(c, 0);
  const api::OnlineEvidence busy = absorb_beside_predicts(c, 3);
  const std::uint64_t fed = c.n() / 256 * 256;
  EXPECT_EQ(busy.rows_observed, fed);
  EXPECT_EQ(busy.rows_absorbed, fed);
  EXPECT_EQ(busy.ticks, fed / 256 + 1);  // the cadence, then tick()
  EXPECT_GE(busy.generation, 1u);
  EXPECT_EQ(busy.swaps, quiet.swaps);
  EXPECT_EQ(busy.refits, quiet.refits);
  EXPECT_EQ(busy.holds, quiet.holds);
  EXPECT_EQ(busy.generation, quiet.generation);
  EXPECT_EQ(busy.clusters, quiet.clusters);
  EXPECT_EQ(busy.drift_scores, quiet.drift_scores);
}

TEST(OnlineLoop, SoakStormOnARowBudget) {
  // Four producers keep up to 128 requests in flight while this thread,
  // the updater's single writer, cycles the trace in 64-row chunks,
  // alternating the original codes and a shifted recode pass by pass. The
  // ensemble bank turns the shifts into refits, so refits and swaps land
  // under load. A row budget ends the storm, and the loop's own decisions
  // are row-counted.
  const test::ServingCase c = test::serving_case(2000);
  const std::vector<data::Value> shifted =
      shift_codes(c.rows, c.ds.cardinalities());
  serve::OnlineConfig config = traffic_online_config();
  config.detector = "ensemble";
  auto server = std::make_shared<serve::ModelServer>(c.model);
  serve::OnlineUpdater updater(
      server, serve::make_online_learner(config, c.ds.cardinalities()),
      config);

  Traffic traffic(*server, c, 4, 128);
  constexpr std::size_t kChunk = 64;
  std::uint64_t fed = 0;
  for (int pass = 0; pass < 32; ++pass) {
    const std::vector<data::Value>& src = pass % 2 == 0 ? c.rows : shifted;
    for (std::size_t i = 0; i + kChunk <= c.n(); i += kChunk) {
      updater.observe(src.data() + i * c.d(), kChunk);
      fed += kChunk;
    }
  }
  const std::uint64_t answered = traffic.stop();
  server->stop();

  const api::OnlineEvidence evidence = updater.evidence();
  EXPECT_EQ(evidence.rows_observed, fed);
  EXPECT_EQ(evidence.ticks, fed / config.tick_every);
  EXPECT_GE(evidence.generation, 1u);
  EXPECT_GE(evidence.refits, 1u);
  EXPECT_GE(answered, 4u);
  EXPECT_EQ(server->stats().requests, answered);
}

// --- rows to refit, per detector bank --------------------------------------
//
// Row-counted and clock-free, so pinned exactly. Two clean windows and
// half a cadence (1,280 rows in 256-row chunks) settle the baseline. The
// half-cadence tail keeps the injection off a publish, which rebases every
// detector, and puts the first tick after it at a half-drifted window.
// Then the code-shifted trace arrives one row at a time until the bank
// refits, within a budget of four windows.

TEST(OnlineLoop, EachDriftBankRefitsAfterAPinnedRowCount) {
  const test::ServingCase c = test::serving_case(20000);
  const std::vector<data::Value> shifted =
      shift_codes(c.rows, c.ds.cardinalities());
  constexpr std::size_t kWindow = 512;
  constexpr std::size_t kWarmup = 2 * kWindow + kWindow / 2;
  constexpr std::size_t kBudget = 4 * kWindow;
  // mean, ph, quantile and the ensemble refit at the first tick after the
  // injection; hist, on pooled marginals, only at the second.
  const std::pair<const char*, std::size_t> banks[] = {
      {"mean", 256}, {"hist", 768}, {"ph", 256}, {"quantile", 256},
      {"ensemble", 256}};
  for (const auto& [spec, rows_to_refit] : banks) {
    SCOPED_TRACE(spec);
    serve::OnlineConfig config;
    config.tick_every = kWindow;
    config.window_capacity = kWindow;
    config.detector = spec;
    auto server = std::make_shared<serve::ModelServer>(c.model);
    serve::OnlineUpdater updater(
        server, serve::make_online_learner(config, c.ds.cardinalities()),
        config);
    for (std::size_t i = 0; i < kWarmup; i += 256) {
      updater.observe(c.row(i), 256);
    }
    ASSERT_EQ(updater.evidence().refits, 0u);
    std::size_t fed = 0;
    while (fed < kBudget && updater.evidence().refits == 0) {
      updater.observe(shifted.data() + fed * c.d(), 1);
      ++fed;
    }
    EXPECT_EQ(fed, rows_to_refit);
    server->stop();
  }
}

// --- mcdc-online registry method ------------------------------------------

TEST(McdcOnline, RegisteredWithOnlineFamilyAndFits) {
  const api::MethodInfo* info = api::registry().info("mcdc-online");
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->family, api::MethodFamily::online);

  const data::Dataset ds = fixture_dataset();
  api::Engine engine;
  api::FitOptions options;
  options.method = "mcdc-online";
  options.k = 3;
  options.seed = 17;
  const api::FitResult fit = engine.fit(ds, options);
  ASSERT_TRUE(fit.ok()) << fit.status.message;
  EXPECT_EQ(fit.report.clusters_found, 3);
  EXPECT_EQ(fit.report.labels.size(), ds.num_objects());
}

TEST(McdcOnline, BacksTheUpdaterLoop) {
  const data::Dataset ds = fixture_dataset();
  const std::vector<data::Value> rows = gather_rows(ds);

  api::Engine engine;
  ASSERT_TRUE(fit_fixture(ds, engine).ok());
  serve::OnlineConfig config = tight_online_config();
  config.learner = "mcdc-online";
  const auto updater = engine.serve_online(config);
  updater->observe(rows.data(), ds.num_objects());
  updater->tick();

  const api::OnlineEvidence evidence = updater->evidence();
  EXPECT_GT(evidence.ticks, 0u);
  EXPECT_EQ(evidence.rows_observed, ds.num_objects());
  EXPECT_GT(evidence.clusters, 0);
  updater->server()->stop();
}

// --- Engine::serve_online / make_online_learner ---------------------------

TEST(ServeOnline, ThrowsBeforeAnyFitAndBindsAfter) {
  api::Engine engine;
  EXPECT_THROW(engine.serve_online(), std::logic_error);

  const data::Dataset ds = fixture_dataset();
  ASSERT_TRUE(fit_fixture(ds, engine).ok());
  const auto updater = engine.serve_online();
  ASSERT_NE(updater, nullptr);
  ASSERT_NE(updater->server(), nullptr);

  const std::vector<data::Value> rows = gather_rows(ds);
  EXPECT_GE(updater->server()->predict(rows.data()), 0);
  const std::vector<int> ids = updater->observe(rows.data(), 4);
  EXPECT_EQ(ids.size(), 4u);
  updater->server()->stop();
}

TEST(ServeOnline, UnknownLearnerKindIsRejected) {
  serve::OnlineConfig config;
  config.learner = "nope";
  EXPECT_THROW(serve::make_online_learner(config, {2, 2}),
               std::invalid_argument);
}

}  // namespace
}  // namespace mcdc

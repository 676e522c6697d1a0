// Tests for the api facade: registry lookup, Engine fit/predict, model
// JSON round-trips, run-report serialisation and dataset resolution.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>

#include "api/engine.h"
#include "api/json.h"
#include "api/load.h"
#include "api/model.h"
#include "api/registry.h"
#include "api/report.h"
#include "data/registry.h"
#include "data/synthetic.h"
#include "metrics/indices.h"

namespace mcdc::api {
namespace {

// --- Json -------------------------------------------------------------------

TEST(Json, RoundTripsNestedStructure) {
  Json doc = Json::object();
  doc["name"] = "mcdc";
  doc["count"] = 42;
  doc["ratio"] = 0.125;
  doc["flag"] = true;
  doc["nothing"] = Json();
  Json list = Json::array();
  list.push_back(1);
  list.push_back("two\nlines");
  doc["list"] = std::move(list);

  const Json parsed = Json::parse(doc.dump());
  EXPECT_EQ(parsed.at("name").as_string(), "mcdc");
  EXPECT_EQ(parsed.at("count").as_int(), 42);
  EXPECT_DOUBLE_EQ(parsed.at("ratio").as_double(), 0.125);
  EXPECT_TRUE(parsed.at("flag").as_bool());
  EXPECT_TRUE(parsed.at("nothing").is_null());
  EXPECT_EQ(parsed.at("list").size(), 2u);
  EXPECT_EQ(parsed.at("list").at(1).as_string(), "two\nlines");
}

TEST(Json, ParseRejectsMalformedInput) {
  EXPECT_THROW(Json::parse("{"), std::runtime_error);
  EXPECT_THROW(Json::parse("[1,]"), std::runtime_error);
  EXPECT_THROW(Json::parse("{\"a\": 1} trailing"), std::runtime_error);
  EXPECT_THROW(Json::parse("nulL"), std::runtime_error);
}

TEST(Json, DumpIsDeterministic) {
  Json doc = Json::object();
  doc["b"] = 2;
  doc["a"] = 1;
  EXPECT_EQ(doc.dump(), "{\"a\":1,\"b\":2}");
}

TEST(Json, SurrogatePairsDecodeToOneCodePoint) {
  // U+1F600 arrives as the pair \uD83D\uDE00 and must come out as one
  // 4-byte UTF-8 sequence, not two 3-byte CESU-8 surrogates.
  const Json parsed = Json::parse("\"\\uD83D\\uDE00\"");
  EXPECT_EQ(parsed.as_string(), "\xF0\x9F\x98\x80");
  // dump() passes raw UTF-8 bytes through, so the value round-trips.
  EXPECT_EQ(Json::parse(Json(parsed.as_string()).dump()).as_string(),
            parsed.as_string());
  // BMP escapes are unaffected.
  EXPECT_EQ(Json::parse("\"\\u00e9\"").as_string(), "\xC3\xA9");
}

TEST(Json, UnpairedSurrogatesAreRejected) {
  EXPECT_THROW(Json::parse("\"\\uD800\""), std::runtime_error);       // lone high
  EXPECT_THROW(Json::parse("\"\\uDC00\""), std::runtime_error);       // lone low
  EXPECT_THROW(Json::parse("\"\\uD83Dx\""), std::runtime_error);      // high + text
  EXPECT_THROW(Json::parse("\"\\uD83D\\u0041\""), std::runtime_error);  // high + BMP
  EXPECT_THROW(Json::parse("\"\\uD83D\\uD83D\""), std::runtime_error);  // high + high
}

TEST(Json, NumberGrammarFollowsRfc8259) {
  // Valid numbers parse to their values.
  EXPECT_DOUBLE_EQ(Json::parse("-0.5e+2").as_double(), -50.0);
  EXPECT_DOUBLE_EQ(Json::parse("0").as_double(), 0.0);
  EXPECT_DOUBLE_EQ(Json::parse("1e3").as_double(), 1000.0);
  // stod would truncate or tolerate all of these.
  EXPECT_THROW(Json::parse("1..2"), std::runtime_error);
  EXPECT_THROW(Json::parse("+1"), std::runtime_error);
  EXPECT_THROW(Json::parse("01"), std::runtime_error);
  EXPECT_THROW(Json::parse("1."), std::runtime_error);
  EXPECT_THROW(Json::parse("1e"), std::runtime_error);
  EXPECT_THROW(Json::parse("1e+"), std::runtime_error);
  EXPECT_THROW(Json::parse("-"), std::runtime_error);
  EXPECT_THROW(Json::parse("1-2"), std::runtime_error);
}

TEST(Json, AsIntRejectsOutOfRangeIntegers) {
  // 1e18 is integral, passes any nearbyint check, and overflows int —
  // previously undefined behaviour, now a structured failure.
  EXPECT_THROW(Json::parse("1e18").as_int(), std::runtime_error);
  EXPECT_THROW(Json::parse("-1e18").as_int(), std::runtime_error);
  EXPECT_THROW(Json(2147483648.0).as_int(), std::runtime_error);
  EXPECT_EQ(Json(2147483647.0).as_int(), 2147483647);
  EXPECT_EQ(Json(-2147483648.0).as_int(), -2147483648);
  EXPECT_THROW(Json(1.5).as_int(), std::runtime_error);
}

// --- Registry ---------------------------------------------------------------

TEST(Registry, KnownKeysResolve) {
  EXPECT_NE(registry().info("kmodes"), nullptr);
  EXPECT_NE(registry().info("mcdc"), nullptr);
  const auto kmodes = registry().create("kmodes");
  ASSERT_NE(kmodes, nullptr);
  EXPECT_EQ(kmodes->name(), "K-MODES");
  const auto mcdc = registry().create("mcdc");
  EXPECT_EQ(mcdc->name(), "MCDC");
}

TEST(Registry, UnknownKeyThrows) {
  EXPECT_EQ(registry().info("no-such-method"), nullptr);
  EXPECT_THROW(registry().create("no-such-method"), std::invalid_argument);
}

TEST(Registry, UnknownParameterNameThrows) {
  EXPECT_THROW(registry().create("kmodes", {{"max_iter", "5"}}),
               std::invalid_argument);
  EXPECT_THROW(registry().create("kmodes", {{"max_iterations", "abc"}}),
               std::invalid_argument);
}

TEST(Registry, CataloguesAllMethodFamilies) {
  const auto methods = registry().methods();
  EXPECT_GE(methods.size(), 14u);
  int baselines = 0, ablations = 0, boosted = 0, mcdc = 0;
  for (const MethodInfo& info : methods) {
    switch (info.family) {
      case MethodFamily::baseline: ++baselines; break;
      case MethodFamily::ablation: ++ablations; break;
      case MethodFamily::boosted: ++boosted; break;
      case MethodFamily::mcdc: ++mcdc; break;
    }
  }
  EXPECT_GE(baselines, 9);
  EXPECT_EQ(ablations, 4);
  EXPECT_GE(boosted, 2);
  EXPECT_EQ(mcdc, 1);
}

TEST(Registry, PaperRosterMatchesTableThreeColumns) {
  const auto roster = registry().paper_roster();
  ASSERT_EQ(roster.size(), 9u);
  const std::vector<std::string> expected = {
      "K-MODES", "ROCK",    "WOCIL",   "FKMAWCW", "GUDMM",
      "ADC",     "MCDC",    "MCDC+G.", "MCDC+F.",
  };
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(roster[i]->name(), expected[i]) << "column " << i;
  }
}

TEST(Registry, TypedParamAccessorsRejectBadValues) {
  const Params params = {{"i", "12"},      {"junk", "12abc"}, {"huge", "999999999999"},
                         {"d", "0.25"},    {"djunk", "1.5x"}, {"b", "true"}};
  EXPECT_EQ(param_int(params, "i", 0), 12);
  EXPECT_EQ(param_int(params, "absent", 7), 7);
  EXPECT_THROW(param_int(params, "junk", 0), std::invalid_argument);
  EXPECT_THROW(param_int(params, "huge", 0), std::invalid_argument);
  EXPECT_THROW(param_int(params, "d", 0), std::invalid_argument);
  EXPECT_DOUBLE_EQ(param_double(params, "d", 0.0), 0.25);
  EXPECT_DOUBLE_EQ(param_double(params, "absent", 2.5), 2.5);
  EXPECT_THROW(param_double(params, "djunk", 0.0), std::invalid_argument);
  EXPECT_THROW(param_double(params, "b", 0.0), std::invalid_argument);
  EXPECT_THROW(param_bool(params, "i", false), std::invalid_argument);
}

TEST(Registry, DistributedMethodIsCatalogued) {
  const MethodInfo* info = registry().info("mcdc-dist");
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->family, MethodFamily::distributed);
  const auto clusterer =
      registry().create("mcdc-dist", {{"num_workers", "2"}});
  EXPECT_EQ(clusterer->name(), "MCDC-DIST");
  EXPECT_THROW(registry().create("mcdc-dist", {{"num_workers", "two"}}),
               std::invalid_argument);
}

TEST(Engine, DistributedFitCarriesShardEvidence) {
  const auto ds = data::well_separated({});
  Engine engine;
  FitOptions options;
  options.method = "mcdc-dist";
  options.k = 3;
  options.params = {{"num_workers", "3"}};
  const FitResult fit = engine.fit(ds, options);
  ASSERT_TRUE(fit.ok()) << fit.status.message;
  EXPECT_EQ(fit.report.labels.size(), ds.num_objects());
  EXPECT_EQ(fit.report.clusters_found, 3);
  EXPECT_EQ(fit.report.dist.shards, 3);
  EXPECT_EQ(fit.report.dist.local_clusters.size(), 3u);
  EXPECT_GT(fit.report.dist.sketch_cells, 0u);
  EXPECT_EQ(fit.report.dist.raw_cells,
            ds.num_objects() * ds.num_features());
  EXPECT_LE(fit.report.dist.parallel_seconds,
            fit.report.dist.sequential_seconds);

  const Json doc = Json::parse(fit.report.to_json().dump());
  ASSERT_TRUE(doc.contains("dist"));
  EXPECT_EQ(doc.at("dist").at("shards").as_int(), 3);
  EXPECT_EQ(doc.at("dist").at("local_clusters").size(), 3u);
}

TEST(Registry, ParametersReachTheMethod) {
  // A one-iteration k-modes differs from a converged one on data where
  // Lloyd iterations matter; here we just check construction succeeds and
  // the method still clusters.
  const auto ds = data::well_separated({});
  const auto clusterer = registry().create("kmodes", {{"max_iterations", "1"}});
  const auto result = clusterer->cluster(ds, 3, 1);
  EXPECT_EQ(result.labels.size(), ds.num_objects());
}

// --- Engine -----------------------------------------------------------------

TEST(Engine, FitMcdcOnWellSeparatedData) {
  const auto ds = data::well_separated({});
  Engine engine;
  FitOptions options;
  options.k = 3;
  const FitResult fit = engine.fit(ds, options);
  ASSERT_TRUE(fit.ok()) << fit.status.message;
  EXPECT_EQ(fit.report.labels.size(), ds.num_objects());
  EXPECT_EQ(fit.report.clusters_found, 3);
  EXPECT_FALSE(fit.report.kappa.empty());
  EXPECT_FALSE(fit.report.theta.empty());
  EXPECT_FALSE(fit.report.stages.empty());
  EXPECT_TRUE(fit.report.has_external);
  EXPECT_DOUBLE_EQ(
      metrics::adjusted_rand_index(fit.report.labels, ds.labels()), 1.0);
  EXPECT_GT(fit.report.timings.total_seconds, 0.0);
}

// Every layer of a fit is named: fit, stage reports, polish and evaluation
// are disjoint intervals inside the total, and a layer that does not run
// takes no time.
TEST(Engine, TimingsNameEveryFitLayer) {
  const auto ds = data::well_separated({});
  Engine engine;
  FitOptions options;
  options.k = 3;
  for (const bool stage_reports : {true, false}) {
    options.stage_reports = stage_reports;
    const FitResult fit = engine.fit(ds, options);
    ASSERT_TRUE(fit.ok()) << fit.status.message;
    const Timings& t = fit.report.timings;
    EXPECT_GE(t.fit_seconds, 0.0);
    EXPECT_GE(t.stage_report_seconds, 0.0);
    EXPECT_GE(t.polish_seconds, 0.0);
    EXPECT_GE(t.evaluate_seconds, 0.0);
    if (!stage_reports) {
      EXPECT_EQ(t.stage_report_seconds, 0.0);
    }
    EXPECT_LE(t.fit_seconds + t.stage_report_seconds + t.polish_seconds +
                  t.evaluate_seconds,
              t.total_seconds);
  }
}

TEST(Engine, DeterministicGivenSeed) {
  const auto ds = data::well_separated({});
  Engine engine;
  FitOptions options;
  options.k = 3;
  options.seed = 11;
  const FitResult a = engine.fit(ds, options);
  const FitResult b = engine.fit(ds, options);
  EXPECT_EQ(a.report.labels, b.report.labels);
  EXPECT_EQ(a.report.kappa, b.report.kappa);
}

TEST(Engine, MatchesRegistryClustererLabels) {
  // The Engine's direct-pipeline path must agree with the registry's
  // McdcClusterer adapter: one public surface, one answer. (On clean data
  // the Model::from_fit polish pass is the identity, so the raw adapter
  // labels and the served labels coincide.)
  const auto ds = data::well_separated({});
  Engine engine;
  FitOptions options;
  options.k = 3;
  options.seed = 5;
  const FitResult fit = engine.fit(ds, options);
  const auto adapter = registry().create("mcdc")->cluster(ds, 3, 5);
  EXPECT_EQ(fit.report.labels, adapter.labels);
}

TEST(Engine, EstimatesKWhenZero) {
  const auto ds = data::well_separated({});
  Engine engine;
  FitOptions options;
  options.k = 0;
  const FitResult fit = engine.fit(ds, options);
  ASSERT_TRUE(fit.ok()) << fit.status.message;
  EXPECT_TRUE(fit.report.k_estimated);
  EXPECT_GT(fit.report.k, 1);
}

TEST(Engine, BaselineMethodsRunThroughTheSamePath) {
  const auto ds = data::well_separated({});
  Engine engine;
  for (const std::string method : {"kmodes", "wocil", "mcdc1", "mcdc+kmodes"}) {
    FitOptions options;
    options.method = method;
    options.k = 3;
    const FitResult fit = engine.fit(ds, options);
    ASSERT_TRUE(fit.ok()) << method << ": " << fit.status.message;
    EXPECT_EQ(fit.report.labels.size(), ds.num_objects()) << method;
    EXPECT_TRUE(fit.model.fitted()) << method;
  }
}

TEST(Engine, UnknownMethodIsNotFound) {
  const auto ds = data::well_separated({});
  Engine engine;
  FitOptions options;
  options.method = "no-such-method";
  const FitResult fit = engine.fit(ds, options);
  EXPECT_EQ(fit.status.code, Status::Code::kNotFound);
  EXPECT_FALSE(fit.model.fitted());
}

TEST(Engine, BadParameterIsInvalidArgument) {
  const auto ds = data::well_separated({});
  Engine engine;
  FitOptions options;
  options.method = "kmodes";
  options.k = 3;
  options.params = {{"max_iterations", "many"}};
  const FitResult fit = engine.fit(ds, options);
  EXPECT_EQ(fit.status.code, Status::Code::kInvalidArgument);
}

TEST(Engine, EmptyDatasetIsInvalidArgument) {
  Engine engine;
  const FitResult fit = engine.fit(data::Dataset());
  EXPECT_EQ(fit.status.code, Status::Code::kInvalidArgument);
}

// --- Model ------------------------------------------------------------------

TEST(Model, PredictReproducesFitLabelsOnTrainingRows) {
  const auto ds = data::well_separated({});
  Engine engine;
  FitOptions options;
  options.k = 3;
  const FitResult fit = engine.fit(ds, options);
  ASSERT_TRUE(fit.ok());
  EXPECT_EQ(fit.model.predict(ds), fit.report.labels);
}

TEST(Model, PredictReproducesFitLabelsOnNoisyBenchmarkData) {
  // Tic-tac-toe is the benchmark where the method's raw labels deviate
  // most from the histogram-argmax image; the Model::from_fit polish
  // sweeps must close exactly that gap.
  const auto ds = data::load("Tic.");
  Engine engine;
  FitOptions options;
  options.k = 3;
  const FitResult fit = engine.fit(ds, options);
  ASSERT_TRUE(fit.ok()) << fit.status.message;
  EXPECT_EQ(fit.model.predict(ds), fit.report.labels);
  EXPECT_EQ(fit.report.clusters_found, 3);
}

TEST(Model, PredictAssignsHeldOutRowsToTheRightCluster) {
  // Fit on one draw of the generator, predict a fresh draw with the same
  // planted clusters: predicted labels must recover the plant (up to the
  // usual label permutation, which ARI handles).
  data::WellSeparatedConfig config;
  const auto train = data::well_separated(config);
  config.seed = 99;
  const auto held_out = data::well_separated(config);

  Engine engine;
  FitOptions options;
  options.k = 3;
  const FitResult fit = engine.fit(train, options);
  ASSERT_TRUE(fit.ok());
  const auto predicted = fit.model.predict(held_out);
  EXPECT_DOUBLE_EQ(
      metrics::adjusted_rand_index(predicted, held_out.labels()), 1.0);
}

TEST(Model, SurvivesJsonRoundTrip) {
  const auto ds = data::well_separated({});
  Engine engine;
  FitOptions options;
  options.k = 3;
  const FitResult fit = engine.fit(ds, options);
  ASSERT_TRUE(fit.ok());

  const std::string serialised = fit.to_json().dump();
  const Json parsed = Json::parse(serialised);
  ASSERT_TRUE(parsed.contains("model"));
  const Model loaded = Model::from_json(parsed.at("model"));

  EXPECT_EQ(loaded.k(), fit.model.k());
  EXPECT_EQ(loaded.method(), fit.model.method());
  EXPECT_EQ(loaded.kappa(), fit.model.kappa());
  // The embedded model omits its training-label copy (the report's
  // "labels" array is identical); prediction must still round-trip.
  EXPECT_TRUE(loaded.training_labels().empty());
  EXPECT_EQ(loaded.predict(ds), fit.report.labels);
}

TEST(Model, PredictRemapsForeignValueEncodings) {
  // Datasets dictionary-encode values in first-seen order, so the same
  // categories can carry different codes in two files. predict() must
  // translate through the value names, not trust raw codes.
  data::DatasetBuilder train({"colour", "size"});
  train.add_row({"red", "small"}, "a");
  train.add_row({"red", "small"}, "a");
  train.add_row({"red", "small"}, "a");
  train.add_row({"blue", "large"}, "b");
  train.add_row({"blue", "large"}, "b");
  train.add_row({"blue", "large"}, "b");
  const auto train_ds = std::move(train).build();

  Engine engine;
  FitOptions options;
  options.method = "kmodes";
  options.k = 2;
  const FitResult fit = engine.fit(train_ds, options);
  ASSERT_TRUE(fit.ok()) << fit.status.message;

  // Same categories, opposite first-seen order: codes are permuted.
  data::DatasetBuilder test({"colour", "size"});
  test.add_row({"blue", "large"});
  test.add_row({"red", "small"});
  test.add_row({"blue", "large"});
  const auto test_ds = std::move(test).build();

  const auto predicted = fit.model.predict(test_ds);
  const int red_cluster = fit.report.labels[0];
  const int blue_cluster = fit.report.labels[3];
  ASSERT_NE(red_cluster, blue_cluster);
  EXPECT_EQ(predicted[0], blue_cluster);
  EXPECT_EQ(predicted[1], red_cluster);
  EXPECT_EQ(predicted[2], blue_cluster);

  // And the translation must survive the JSON round-trip.
  const Model loaded =
      Model::from_json(Json::parse(fit.to_json().dump()).at("model"));
  EXPECT_EQ(loaded.predict(test_ds), predicted);
}

TEST(Model, PredictRowToleratesOutOfDomainCodes) {
  // Codes past the training cardinality (unseen categories) must score
  // as missing, not index past the histogram rows.
  const auto ds = data::well_separated({});
  Engine engine;
  FitOptions options;
  options.k = 3;
  const FitResult fit = engine.fit(ds, options);
  ASSERT_TRUE(fit.ok());

  std::vector<data::Value> row(ds.num_features());
  for (std::size_t r = 0; r < ds.num_features(); ++r) {
    row[r] = static_cast<data::Value>(ds.cardinality(r) + 100);
  }
  const int cluster = fit.model.predict_row(row.data());
  EXPECT_GE(cluster, 0);
  EXPECT_LT(cluster, 3);
}

TEST(Model, FromJsonRejectsMalformedDocuments) {
  Json bad = Json::object();
  bad["method"] = "mcdc";
  bad["k"] = 0;
  EXPECT_THROW(Model::from_json(bad), std::runtime_error);
}

TEST(Model, UnfittedModelRefusesToPredict) {
  const Model model;
  EXPECT_FALSE(model.fitted());
  EXPECT_THROW(model.predict(data::well_separated({})), std::logic_error);
}

TEST(Model, PredictRejectsArityMismatch) {
  const auto ds = data::well_separated({});
  Engine engine;
  FitOptions options;
  options.k = 3;
  const FitResult fit = engine.fit(ds, options);
  ASSERT_TRUE(fit.ok());

  data::WellSeparatedConfig narrow;
  narrow.num_features = ds.num_features() + 3;
  EXPECT_THROW(fit.model.predict(data::well_separated(narrow)),
               std::invalid_argument);
}

// --- RunReport --------------------------------------------------------------

TEST(RunReport, JsonCarriesTheDocumentedShape) {
  const auto ds = data::well_separated({});
  Engine engine;
  FitOptions options;
  options.k = 3;
  options.seed = 21;
  const FitResult fit = engine.fit(ds, options);
  ASSERT_TRUE(fit.ok());

  const Json doc = Json::parse(fit.report.to_json().dump());
  EXPECT_EQ(doc.at("status").at("code").as_string(), "ok");
  EXPECT_EQ(doc.at("method").as_string(), "mcdc");
  EXPECT_EQ(doc.at("method_display").as_string(), "MCDC");
  EXPECT_EQ(doc.at("k").as_int(), 3);
  EXPECT_EQ(doc.at("seed").as_string(), "21");
  EXPECT_EQ(doc.at("clusters_found").as_int(), 3);
  EXPECT_EQ(doc.at("labels").size(), ds.num_objects());
  EXPECT_GE(doc.at("kappa").size(), 1u);
  EXPECT_EQ(doc.at("stages").size(), doc.at("kappa").size());
  EXPECT_EQ(doc.at("stages").at(0).at("k").as_int(),
            doc.at("kappa").at(0).as_int());
  EXPECT_TRUE(doc.contains("internal"));
  EXPECT_TRUE(doc.at("internal").contains("silhouette"));
  ASSERT_TRUE(doc.contains("external"));
  EXPECT_DOUBLE_EQ(doc.at("external").at("acc").as_double(),
                   fit.report.external.acc);
  for (const char* key : {"fit_seconds", "stage_report_seconds",
                          "polish_seconds", "evaluate_seconds",
                          "total_seconds"}) {
    EXPECT_TRUE(doc.at("timings").contains(key)) << key;
  }
  EXPECT_EQ(doc.at("timings").at("polish_seconds").as_double(),
            fit.report.timings.polish_seconds);
}

TEST(RunReport, FailureStatusIsStructured) {
  // FKMAWCW without restarts collapses on data that cannot support the
  // preset k; the report must carry a failed status, not a bare bool.
  data::WellSeparatedConfig config;
  config.num_objects = 30;
  config.num_clusters = 2;
  const auto ds = data::well_separated(config);
  Engine engine;
  FitOptions options;
  options.method = "fkmawcw";
  options.k = 20;
  const FitResult fit = engine.fit(ds, options);
  if (!fit.ok()) {
    EXPECT_EQ(fit.status.code, Status::Code::kFailed);
    EXPECT_FALSE(fit.status.message.empty());
    EXPECT_FALSE(fit.model.fitted());
    const Json doc = fit.report.to_json();
    EXPECT_EQ(doc.at("status").at("code").as_string(), "failed");
  }
}

// --- load_dataset -----------------------------------------------------------

TEST(LoadDataset, ResolvesBuiltinsByAbbrevAndName) {
  const LoadedDataset by_abbrev = load_dataset("Car.");
  EXPECT_TRUE(by_abbrev.builtin);
  EXPECT_EQ(by_abbrev.name, "Car.");
  EXPECT_EQ(by_abbrev.dataset.num_objects(), 1728u);

  const LoadedDataset by_name = load_dataset("Car Evaluation");
  EXPECT_EQ(by_name.name, "Car.");
  EXPECT_EQ(by_name.dataset.num_objects(), 1728u);

  const LoadedDataset extra = load_dataset("Zoo.");
  EXPECT_TRUE(extra.builtin);
  EXPECT_EQ(extra.dataset.num_objects(), 101u);
}

TEST(LoadDataset, ReadsCsvFilesWithAndWithoutLabels) {
  const std::string path = ::testing::TempDir() + "mcdc_api_load_test.csv";
  {
    std::ofstream file(path);
    file << "a,x,red,yes\n"
         << "a,y,red,yes\n"
         << "b,x,blue,no\n"
         << "b,y,blue,no\n";
  }

  DatasetSpec spec;
  spec.source = path;
  const LoadedDataset labelled = load_dataset(spec);
  EXPECT_FALSE(labelled.builtin);
  EXPECT_EQ(labelled.dataset.num_objects(), 4u);
  EXPECT_EQ(labelled.dataset.num_features(), 3u);
  EXPECT_TRUE(labelled.dataset.has_labels());

  spec.no_labels = true;
  const LoadedDataset unlabelled = load_dataset(spec);
  EXPECT_EQ(unlabelled.dataset.num_features(), 4u);
  EXPECT_FALSE(unlabelled.dataset.has_labels());

  std::remove(path.c_str());
}

TEST(LoadDataset, UnknownSourceThrowsWithContext) {
  try {
    load_dataset("definitely-not-a-dataset.csv");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("definitely-not-a-dataset"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace mcdc::api

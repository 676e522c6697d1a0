// Adversarial I/O corpus: every loader must either parse a malformed input
// deliberately (the documented lenient recoveries) or reject it with the
// documented exception type — never crash, never read out of bounds, never
// let an unexpected exception type cross the API boundary. The corpus
// lives in tests/corpus/ (checked in; MCDC_CORPUS_DIR points at it) and
// regression-pins the PR 2 JSON fixes (surrogate pairs, RFC 8259 number
// grammar, as_int range checks), the PR 4 CSV quote handling, the parser
// depth cap (deep nesting used to walk the recursive parser off the
// stack), the replay-feed cuts the continuous-learning loop must survive
// (a capture truncated at a chunk boundary, mid-record or mid-quote, or
// corrupted with stray NUL bytes), and both model formats: version-1 and
// version-2 binary artifacts, and negative histogram values in JSON.
#include <gtest/gtest.h>

#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "api/artifact.h"
#include "api/engine.h"
#include "api/json.h"
#include "api/model.h"
#include "data/csv.h"
#include "serve/online.h"
#include "serve/server.h"

namespace mcdc {
namespace {

std::string corpus_path(const std::string& name) {
  return std::string(MCDC_CORPUS_DIR) + "/" + name;
}

std::string slurp(const std::string& name) {
  std::ifstream file(corpus_path(name), std::ios::binary);
  EXPECT_TRUE(file.is_open()) << "missing corpus file " << name;
  std::stringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

// Outcome of feeding one corpus entry to a loader: parsed, or rejected
// with a std::exception subclass. Anything else (a crash terminates the
// test binary; a non-std exception propagates out of the harness) fails.
enum class Outcome { parsed, rejected };

template <typename F>
Outcome guarded(F&& load) {
  try {
    load();
    return Outcome::parsed;
  } catch (const std::exception&) {
    return Outcome::rejected;
  }
}

// --- CSV ---------------------------------------------------------------

TEST(AdversarialCsv, UnterminatedQuoteRecoversLeniently) {
  // PR 4 contract: an unterminated quote reads to end of line instead of
  // throwing — the row still loads.
  const data::Dataset ds = data::read_csv_file(
      corpus_path("csv_unterminated_quote.csv"));
  EXPECT_EQ(ds.num_objects(), 2u);
}

TEST(AdversarialCsv, RaggedRowsAreRejected) {
  EXPECT_THROW(data::read_csv_file(corpus_path("csv_ragged_rows.csv")),
               std::runtime_error);
}

TEST(AdversarialCsv, EmptyAndBlankFilesAreRejected) {
  EXPECT_THROW(data::read_csv_file(corpus_path("csv_empty.csv")),
               std::runtime_error);
  EXPECT_THROW(data::read_csv_file(corpus_path("csv_only_newlines.csv")),
               std::runtime_error);
}

TEST(AdversarialCsv, QuotedFieldsParseExactly) {
  const data::Dataset ds =
      data::read_csv_file(corpus_path("csv_quoted_ok.csv"));
  EXPECT_EQ(ds.num_objects(), 2u);
  EXPECT_EQ(ds.num_features(), 2u);           // last column is the label
  EXPECT_EQ(ds.value_name(1, ds.at(0, 1)), "b\"c");
  EXPECT_EQ(ds.value_name(1, ds.at(1, 1)), "f,g");
}

TEST(AdversarialCsv, RemainingCorpusNeverEscapesTheApiBoundary) {
  for (const char* name :
       {"csv_lone_quotes.csv", "csv_binary_junk.csv", "csv_huge_field.csv",
        "csv_all_missing.csv", "csv_crlf.csv"}) {
    SCOPED_TRACE(name);
    guarded([&] { data::read_csv_file(corpus_path(name)); });
  }
}

TEST(AdversarialCsv, AllMissingRowsStillLoadAsMissing) {
  const data::Dataset ds =
      data::read_csv_file(corpus_path("csv_all_missing.csv"));
  EXPECT_EQ(ds.num_objects(), 2u);
  EXPECT_TRUE(ds.is_missing(0, 0));
}

// --- JSON --------------------------------------------------------------

TEST(AdversarialJson, TruncatedDocumentIsRejected) {
  EXPECT_THROW(api::Json::parse(slurp("json_truncated.json")),
               std::runtime_error);
}

TEST(AdversarialJson, UnpairedSurrogateIsRejectedPairedAccepted) {
  // PR 2 contract: an unpaired surrogate is garbage, a proper pair decodes
  // to one 4-byte UTF-8 code point.
  EXPECT_THROW(api::Json::parse(slurp("json_unpaired_surrogate.json")),
               std::runtime_error);
  const api::Json ok = api::Json::parse(slurp("json_surrogate_pair_ok.json"));
  EXPECT_EQ(ok.at("s").as_string(), "\xF0\x9F\x98\x80");  // U+1F600
}

TEST(AdversarialJson, NumberGrammarViolationsAreRejected) {
  // PR 2 contract: the RFC 8259 grammar is walked explicitly.
  EXPECT_THROW(api::Json::parse(slurp("json_bad_number_grammar.json")),
               std::runtime_error);
  EXPECT_THROW(api::Json::parse(slurp("json_infinity.json")),
               std::runtime_error);
}

TEST(AdversarialJson, OverflowingIntegersParseButRefuseAsInt) {
  // PR 2 contract: the value parses as a double; as_int range-checks
  // instead of overflowing (UB).
  const api::Json doc = api::Json::parse(slurp("json_overflow_int.json"));
  EXPECT_THROW(doc.at("k").as_int(), std::runtime_error);
}

TEST(AdversarialJson, DeepNestingIsRejectedNotAStackOverflow) {
  // This PR's fix: ten thousand '[' used to recurse the parser (and the
  // parsed value's destructor) straight off the stack.
  EXPECT_THROW(api::Json::parse(slurp("json_deep_nesting.json")),
               std::runtime_error);
}

TEST(AdversarialJson, GarbageInputsNeverEscapeTheApiBoundary) {
  for (const char* name : {"json_binary_junk.json", "json_empty.json"}) {
    SCOPED_TRACE(name);
    EXPECT_EQ(guarded([&] { api::Json::parse(slurp(name)); }),
              Outcome::rejected);
  }
}

// --- Replay feeds for the continuous-learning loop ---------------------
//
// `mcdc serve --learn` ingests its --replay trace through the same CSV
// reader, then streams the rows into an OnlineUpdater. A replay file is
// typically a capture that can be cut at an arbitrary byte (a chunk
// boundary, a dropped connection), so the corpus pins what each cut does:
// a record cut after a comma is ragged and rejected; a cut inside the
// final quoted field recovers leniently (the PR 4 contract) and the
// recovered rows must then drive the online loop without wedging it.

TEST(AdversarialReplay, TruncatedMidRecordIsRejected) {
  EXPECT_THROW(
      data::read_csv_file(corpus_path("csv_replay_truncated_mid_record.csv")),
      std::runtime_error);
}

TEST(AdversarialReplay, CutMidQuoteRecoversEveryRecord) {
  const data::Dataset ds =
      data::read_csv_file(corpus_path("csv_replay_cut_mid_quote.csv"));
  EXPECT_EQ(ds.num_objects(), 6u);
  EXPECT_EQ(ds.num_features(), 2u);  // last column is the label
}

TEST(AdversarialReplay, NulBytesMidStreamNeverEscapeTheApiBoundary) {
  guarded([&] {
    data::read_csv_file(corpus_path("csv_replay_nul_midstream.csv"));
  });
}

TEST(AdversarialReplay, RecoveredTraceDrivesTheOnlineLoop) {
  // The lenient recovery must hand the updater servable rows: replaying
  // the rescued trace through observe/tick cannot wedge the loop or
  // publish an unservable snapshot.
  const data::Dataset ds =
      data::read_csv_file(corpus_path("csv_replay_cut_mid_quote.csv"));
  api::Engine engine;
  api::FitOptions options;
  options.method = "mcdc1";
  options.k = 2;
  options.seed = 7;
  options.evaluate = false;
  ASSERT_TRUE(engine.fit(ds, options).ok());
  serve::OnlineConfig config;
  config.tick_every = 4;
  config.window_capacity = 8;
  config.min_refit_rows = 4;
  const auto updater = engine.serve_online(config);
  const std::size_t n = ds.num_objects();
  const std::size_t d = ds.num_features();
  std::vector<data::Value> rows(n * d);
  for (std::size_t i = 0; i < n; ++i) ds.gather_row(i, rows.data() + i * d);
  for (int pass = 0; pass < 4; ++pass) updater->observe(rows.data(), n);
  updater->tick();
  const api::OnlineEvidence evidence = updater->evidence();
  EXPECT_GT(evidence.ticks, 0u);
  EXPECT_EQ(evidence.rows_observed, 4 * n);
  const int label = updater->server()->predict(rows.data());
  EXPECT_GE(label, -1);
  updater->server()->stop();
}

// --- Model hot-reload boundary -----------------------------------------

TEST(AdversarialModelJson, StructurallyInvalidModelsAreRejected) {
  // A negative count would score rows outside [0, 1] (the binary loader
  // rejects it too).
  for (const char* name :
       {"json_model_missing_cluster.json", "json_model_counts_mismatch.json",
        "json_model_size_not_int.json", "json_model_negative_count.json"}) {
    SCOPED_TRACE(name);
    const api::Json doc = api::Json::parse(slurp(name));  // valid JSON...
    EXPECT_THROW(api::Model::from_json(doc), std::runtime_error);  // ...bad model
  }
}

TEST(AdversarialModelJson, DocumentWithoutNonNullTotalsDerivesRowSums) {
  // Models written before the non-null totals were serialised still load;
  // their integral counts sum exactly to the totals.
  const api::Model model = api::Model::from_json(api::Json::parse(
      R"({"method":"m","k":1,"cardinalities":[3],)"
      R"("clusters":[{"size":4,"counts":[[1,2,0]]}]})"));
  EXPECT_EQ(model.profile_bank().non_null(0, 0), 3.0);
  EXPECT_EQ(model.profile_bank().size(0), 4.0);
}

TEST(AdversarialJson, SubnormalNumbersReadBackExactlyOverflowDoesNot) {
  // A long-decayed histogram count can be subnormal; dump() prints it and
  // parse() must return the same double. Overflow stays an error.
  api::Json values = api::Json::array();
  values.push_back(std::numeric_limits<double>::denorm_min());
  values.push_back(0.5 * std::numeric_limits<double>::min());
  const api::Json back = api::Json::parse(values.dump());
  EXPECT_EQ(back.at(0).as_double(), std::numeric_limits<double>::denorm_min());
  EXPECT_EQ(back.at(1).as_double(), 0.5 * std::numeric_limits<double>::min());
  EXPECT_THROW(api::Json::parse("[1e400]"), std::runtime_error);
}

// --- Binary model artifacts --------------------------------------------
//
// The serving tier's artifact loader (api/artifact.h) must fail closed:
// every corrupt entry below throws the typed ArtifactError — never a
// crash, never an out-of-bounds read (the ASan/UBSan jobs run this suite),
// never a half-built Model. The corpus files are tiny deterministic
// artifacts of a 1-feature k=2 model, mutated byte-surgically.

TEST(AdversarialArtifact, PristineTinyArtifactLoads) {
  // Pins on-disk format compatibility: a version-1 artifact checked in
  // today must keep loading, or kArtifactVersion must be bumped.
  const api::Model model = api::Model::load_binary(corpus_path("bin_tiny_ok.bin"));
  EXPECT_TRUE(model.fitted());
  EXPECT_EQ(model.k(), 2);
  EXPECT_EQ(model.num_features(), 1u);
  EXPECT_EQ(model.method(), "tiny");
  EXPECT_EQ(model.kappa(), (std::vector<int>{1, 2}));
  // Version 1 carries no non-null section: totals are the row sums.
  EXPECT_EQ(model.profile_bank().non_null(0, 0), 2.0);
  const data::Value row[] = {2};
  EXPECT_EQ(model.predict_row(row), 1);
}

TEST(AdversarialArtifact, PristineTinyV2ArtifactLoads) {
  // Pins the version-2 layout: f64 sizes, stored non-null totals and f64
  // counts, read verbatim. Cluster 0's total (2.0) is not the row sum of
  // its counts (1.75), as after exponential decay, so a loader that
  // re-derived the totals would score differently.
  const std::string bytes = slurp("bin_tiny_v2_ok.bin");
  ASSERT_GT(bytes.size(), 8u);
  EXPECT_EQ(bytes[8], 2);  // format version
  const api::Model model =
      api::Model::load_binary(corpus_path("bin_tiny_v2_ok.bin"));
  EXPECT_EQ(model.k(), 2);
  EXPECT_EQ(model.num_features(), 1u);
  EXPECT_EQ(model.method(), "tiny");
  const core::ProfileSet& bank = model.profile_bank();
  EXPECT_EQ(bank.size(0), 2.0);
  EXPECT_EQ(bank.non_null(0, 0), 2.0);
  EXPECT_EQ(bank.count(0, 0, 0), 1.5);
  EXPECT_EQ(bank.count(0, 0, 1), 0.25);
  EXPECT_EQ(bank.size(1), 0.5);
  EXPECT_EQ(bank.count(1, 0, 2), 0.5);
  const data::Value first[] = {0};
  const data::Value last[] = {2};
  EXPECT_EQ(model.predict_row(first), 0);
  EXPECT_EQ(model.predict_score(first), 0.75);
  EXPECT_EQ(model.predict_row(last), 1);
}

TEST(AdversarialArtifact, CorruptArtifactsAreRejectedWithTypedErrors) {
  for (const char* name :
       {"bin_wrong_magic.bin", "bin_wrong_version.bin", "bin_truncated.bin",
        "bin_bit_flip.bin"}) {
    SCOPED_TRACE(name);
    EXPECT_THROW(api::Model::load_binary(corpus_path(name)),
                 api::ArtifactError);
    // The buffer entry point agrees with the file one.
    const std::string bytes = slurp(name);
    EXPECT_THROW(
        api::Model::from_binary(
            reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size()),
        api::ArtifactError);
  }
}

TEST(AdversarialArtifact, ArtifactOfWrongWidthIsRejectedAtTheServer) {
  // A structurally valid artifact whose schema disagrees with the serving
  // shard is caught at swap time with both feature counts named — the
  // same message path JSON hot-reloads use.
  const api::Model one_feature =
      api::Model::load_binary(corpus_path("bin_tiny_ok.bin"));
  const data::Dataset two_ds(2, 2, {0, 1, 1, 0}, {2, 2});
  serve::ModelServer server(std::make_shared<const api::Model>(
      api::Model::from_fit("two", two_ds, {0, 1}, 2, {}, {}, false)));
  try {
    server.swap(std::make_shared<const api::Model>(one_feature));
    FAIL() << "a 1-feature artifact was published to a 2-feature server";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("expected 2 features"), std::string::npos) << what;
    EXPECT_NE(what.find("got 1"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace mcdc

// Binary model artifacts (api/artifact.h): the round-trip contract
// (load_binary(save_binary(m)) predicts byte-identical labels for every
// registered method), field-exact buffer round trips including the
// MCDC-family evidence, the label-stripping flag, and — the part the
// serving tier leans on — fail-closed rejection of corrupt artifacts:
// truncation at every length, trailing garbage, single-bit flips in the
// magic, version, checksum, and payload regions, and NaN, infinite or
// negative histogram values all throw a typed ArtifactError before any
// Model state exists — and a failed save leaves the previous artifact
// intact.
#include "api/artifact.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "api/engine.h"
#include "api/model.h"
#include "api/registry.h"
#include "core/profile_set.h"
#include "data/dataset.h"
#include "data/noise.h"
#include "data/synthetic.h"
#include "serve/server.h"

namespace mcdc {
namespace {

data::Dataset fixture_dataset() {
  data::WellSeparatedConfig config;
  // Chosen so every one of the 18 registered methods fits cleanly at k=3
  // (some baselines collapse or over-split clusters on less separated draws).
  config.num_objects = 180;
  config.num_features = 5;
  config.num_clusters = 3;
  config.cardinality = 4;
  config.purity = 0.8;
  config.seed = 41;
  return data::with_missing_cells(data::well_separated(config), 0.05, 9);
}

api::Model fit_model(const std::string& method, const data::Dataset& ds) {
  api::Engine engine;
  api::FitOptions options;
  options.method = method;
  options.k = 3;
  options.seed = 23;
  options.evaluate = false;
  options.stage_reports = false;
  const api::FitResult fit = engine.fit(ds, options);
  EXPECT_TRUE(fit.ok()) << method << ": " << fit.status.message;
  return fit.model;
}

api::Model round_trip(const api::Model& model) {
  const std::vector<std::uint8_t> bytes = model.to_binary();
  return api::Model::from_binary(bytes.data(), bytes.size());
}

TEST(Artifact, EveryRegistryMethodRoundTripsToIdenticalPredictions) {
  const data::Dataset train = fixture_dataset();
  // Predictions are exercised on a *foreign* dataset too, so the value
  // dictionaries (the encoding_map source) must survive the trip.
  data::WellSeparatedConfig config;
  config.num_objects = 80;
  config.num_features = 5;
  config.num_clusters = 3;
  config.cardinality = 4;
  config.seed = 51;
  const data::Dataset foreign = data::well_separated(config);

  std::size_t covered = 0;
  for (const api::MethodInfo& method : api::registry().methods()) {
    const api::Model original = fit_model(method.key, train);
    const api::Model loaded = round_trip(original);
    EXPECT_EQ(loaded.predict(train), original.predict(train)) << method.key;
    EXPECT_EQ(loaded.predict(foreign), original.predict(foreign))
        << method.key;
    EXPECT_EQ(loaded.training_labels(), original.training_labels())
        << method.key;
    ++covered;
  }
  EXPECT_EQ(covered, api::registry().methods().size());
}

TEST(Artifact, BufferRoundTripIsFieldExact) {
  // The mcdc method carries the full evidence payload (kappa staircase,
  // theta weights) on top of histograms and dictionaries; a field-exact
  // JSON dump comparison covers every serialised member at once.
  const api::Model original = fit_model("mcdc", fixture_dataset());
  ASSERT_FALSE(original.kappa().empty());
  ASSERT_FALSE(original.theta().empty());
  const api::Model loaded = round_trip(original);
  EXPECT_EQ(loaded.to_json().dump(), original.to_json().dump());
  EXPECT_EQ(loaded.method(), original.method());
  EXPECT_EQ(loaded.k(), original.k());
  EXPECT_EQ(loaded.kappa(), original.kappa());
  EXPECT_EQ(loaded.theta(), original.theta());
}

TEST(Artifact, FileRoundTripMatchesAndCleansUp) {
  const api::Model original = fit_model("kmodes", fixture_dataset());
  const std::string path = "test_artifact_round_trip.bin";
  original.save_binary(path);
  const api::Model loaded = api::Model::load_binary(path);
  EXPECT_EQ(loaded.to_json().dump(), original.to_json().dump());
  std::remove(path.c_str());
}

TEST(Artifact, StrippedTrainingLabelsStillPredict) {
  const data::Dataset ds = fixture_dataset();
  const api::Model original = fit_model("mcdc1", ds);
  ASSERT_FALSE(original.training_labels().empty());
  const std::vector<std::uint8_t> bytes =
      original.to_binary(/*include_training_labels=*/false);
  const api::Model loaded = api::Model::from_binary(bytes.data(), bytes.size());
  EXPECT_TRUE(loaded.training_labels().empty());
  EXPECT_EQ(loaded.predict(ds), original.predict(ds));
}

TEST(Artifact, UnfittedModelRefusesToSerialise) {
  const api::Model unfitted;
  EXPECT_THROW(unfitted.to_binary(), std::logic_error);
  EXPECT_THROW(unfitted.save_binary("never_written.bin"), std::logic_error);
}

TEST(Artifact, TruncationAtEveryLengthIsRejected) {
  const api::Model model = fit_model("kmodes", fixture_dataset());
  const std::vector<std::uint8_t> bytes = model.to_binary();
  ASSERT_GT(bytes.size(), api::kArtifactHeaderBytes);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_THROW(api::Model::from_binary(bytes.data(), len),
                 api::ArtifactError)
        << "accepted a prefix of " << len << " of " << bytes.size()
        << " bytes";
  }
  // The exact length parses; one trailing byte does not.
  EXPECT_NO_THROW(api::Model::from_binary(bytes.data(), bytes.size()));
  std::vector<std::uint8_t> padded = bytes;
  padded.push_back(0);
  EXPECT_THROW(api::Model::from_binary(padded.data(), padded.size()),
               api::ArtifactError);
}

TEST(Artifact, BitFlipsInGuardedRegionsAreRejected) {
  const api::Model model = fit_model("kmodes", fixture_dataset());
  const std::vector<std::uint8_t> bytes = model.to_binary();
  const api::Model reference =
      api::Model::from_binary(bytes.data(), bytes.size());

  // Every byte of the magic (0..8), version (8..12), stored-CRC field
  // (24..28), and the whole checksummed payload (64..end) is guarded:
  // flipping any single bit must throw. (Other header fields — k, d, n,
  // flags — are validated semantically, not bit-for-bit, so they are not
  // part of this sweep.)
  std::vector<std::size_t> offsets;
  for (std::size_t i = 0; i < 12; ++i) offsets.push_back(i);
  for (std::size_t i = 24; i < 28; ++i) offsets.push_back(i);
  for (std::size_t i = api::kArtifactHeaderBytes; i < bytes.size(); ++i) {
    offsets.push_back(i);
  }
  for (const std::size_t at : offsets) {
    for (int bit = 0; bit < 8; bit += 7) {  // lowest and highest bit
      std::vector<std::uint8_t> mutated = bytes;
      mutated[at] = static_cast<std::uint8_t>(mutated[at] ^ (1u << bit));
      EXPECT_THROW(api::Model::from_binary(mutated.data(), mutated.size()),
                   api::ArtifactError)
          << "accepted a flip of bit " << bit << " at offset " << at;
    }
  }
  // And the pristine buffer still loads, so the sweep tested real flips.
  EXPECT_EQ(reference.k(), model.k());
}

// Version 2 stores the bank as f64, so the loader must check values a
// checksum cannot: NaN, infinities and negatives in the sizes, non-null
// totals and counts. Each forged artifact carries a recomputed CRC, so the
// value check — not the checksum — is what rejects it.
TEST(Artifact, NonFiniteOrNegativeHistogramValuesAreRejected) {
  // 1 feature of 3 values, k = 2. Payload: method (u32 len + "tiny"), one
  // i32 cardinality, then f64 sizes[2], totals[2] and counts[6].
  const api::Model model = api::Model::from_profiles(
      "tiny", core::ProfileSet::from_arrays({3}, {2.0, 0.5}, {2.0, 0.5},
                                            {1.5, 0.25, 0.0, 0.0, 0.0, 0.5}));
  const std::vector<std::uint8_t> bytes = model.to_binary();
  const std::size_t sizes_at = api::kArtifactHeaderBytes + 8 + 4;
  const std::size_t totals_at = sizes_at + 2 * 8;
  const std::size_t counts_at = totals_at + 2 * 8;
  const auto forge = [&](std::size_t at, double value) {
    std::vector<std::uint8_t> out = bytes;
    const auto bits = std::bit_cast<std::uint64_t>(value);
    for (int b = 0; b < 8; ++b) {
      out[at + static_cast<std::size_t>(b)] =
          static_cast<std::uint8_t>(bits >> (8 * b));
    }
    const std::uint32_t crc =
        api::artifact_crc32(out.data() + api::kArtifactHeaderBytes,
                            out.size() - api::kArtifactHeaderBytes);
    for (int b = 0; b < 4; ++b) {
      out[24 + static_cast<std::size_t>(b)] =
          static_cast<std::uint8_t>(crc >> (8 * b));
    }
    return out;
  };

  // Control: a valid value forged the same way loads and is read verbatim.
  const std::vector<std::uint8_t> valid = forge(counts_at + 8, 0.125);
  EXPECT_EQ(api::Model::from_binary(valid.data(), valid.size())
                .profile_bank()
                .count(0, 0, 1),
            0.125);

  const double inf = std::numeric_limits<double>::infinity();
  for (const std::size_t at : {sizes_at, sizes_at + 8, totals_at,
                               totals_at + 8, counts_at, counts_at + 5 * 8}) {
    for (const double bad :
         {std::numeric_limits<double>::quiet_NaN(), inf, -inf, -1.0}) {
      SCOPED_TRACE(testing::Message() << "offset " << at << " value " << bad);
      const std::vector<std::uint8_t> forged = forge(at, bad);
      EXPECT_THROW(api::Model::from_binary(forged.data(), forged.size()),
                   api::ArtifactError);
    }
  }
}

// The header's k, d and n sit outside the checksummed payload. Huge values
// must fail as truncation when the payload runs out, not as an allocation
// sized from the header (std::length_error / bad_alloc escaping the typed
// error).
TEST(Artifact, HostileHeaderCountsFailClosed) {
  const std::vector<std::uint8_t> bytes =
      fit_model("kmodes", fixture_dataset()).to_binary();
  const auto forge = [&](std::size_t at, std::uint64_t value, int width) {
    std::vector<std::uint8_t> out = bytes;
    for (int b = 0; b < width; ++b) {
      out.at(at + static_cast<std::size_t>(b)) =
          static_cast<std::uint8_t>(value >> (8 * b));
    }
    return out;
  };
  for (const std::vector<std::uint8_t>& forged :
       {forge(28, 0xFFFFFFFFu, 4), forge(32, std::uint64_t{1} << 62, 8),
        forge(40, std::uint64_t{1} << 62, 8)}) {
    EXPECT_THROW(api::Model::from_binary(forged.data(), forged.size()),
                 api::ArtifactError);
  }
}

// save_binary writes a sibling temp file and renames it over the target:
// a write that fails leaves the previous artifact byte-identical and no
// temp file of its own behind.
TEST(Artifact, FailedSaveKeepsThePreviousArtifact) {
  namespace fs = std::filesystem;
  const fs::path dir = "test_artifact_crash_safe";
  fs::remove_all(dir);
  fs::create_directory(dir);
  const std::string path = (dir / "model.bin").string();
  const auto entries = [&] {
    std::vector<std::string> names;
    for (const auto& entry : fs::directory_iterator(dir)) {
      names.push_back(entry.path().filename().string());
    }
    std::sort(names.begin(), names.end());
    return names;
  };
  const auto read_file = [&] {
    std::ifstream in(path, std::ios::binary);
    return std::vector<char>((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  };

  const api::Model model = fit_model("kmodes", fixture_dataset());
  model.save_binary(path);
  model.save_binary(path);  // overwrite in place: still one file
  EXPECT_EQ(entries(), std::vector<std::string>{"model.bin"});
  const std::vector<char> before = read_file();

  // A directory squatting on the temp name makes the write fail.
  fs::create_directory(path + ".tmp");
  EXPECT_THROW(model.save_binary(path, /*include_training_labels=*/false),
               api::ArtifactError);
  EXPECT_EQ(read_file(), before);
  EXPECT_TRUE(fs::is_directory(path + ".tmp"));
  EXPECT_TRUE(fs::is_empty(path + ".tmp"));
  EXPECT_EQ(entries(),
            (std::vector<std::string>{"model.bin", "model.bin.tmp"}));
  EXPECT_EQ(api::Model::load_binary(path).to_json().dump(),
            model.to_json().dump());
  fs::remove_all(dir);
}

TEST(Artifact, Crc32MatchesKnownVector) {
  // The IEEE 802.3 check value: CRC-32 of "123456789" is 0xCBF43926.
  const char* check = "123456789";
  EXPECT_EQ(api::artifact_crc32(
                reinterpret_cast<const std::uint8_t*>(check), 9),
            0xCBF43926u);
  EXPECT_EQ(api::artifact_crc32(nullptr, 0), 0u);
}

TEST(Artifact, MissingFileAndShortFileThrowArtifactError) {
  EXPECT_THROW(api::Model::load_binary("no_such_artifact.bin"),
               api::ArtifactError);
  const std::string path = "test_artifact_short.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out << "MCDC";  // 4 bytes: not even a full magic
  }
  EXPECT_THROW(api::Model::load_binary(path), api::ArtifactError);
  std::remove(path.c_str());
}

TEST(Artifact, ServerWidthMismatchNamesBothCounts) {
  // The serving swap path reuses the shared feature_width_message, so a
  // binary artifact of the wrong schema is rejected with both counts
  // named — the operator sees *what* diverged, not just that it did.
  const api::Model narrow = fit_model("kmodes", fixture_dataset());
  ASSERT_EQ(narrow.num_features(), 5u);
  data::Dataset wide_ds(3, 2, {0, 1, 1, 0, 0, 1}, {2, 2});
  auto wide = std::make_shared<const api::Model>(api::Model::from_fit(
      "wide", wide_ds, {0, 1, 0}, 2, {}, {}, /*refine=*/false));

  serve::ModelServer server(std::make_shared<const api::Model>(narrow));
  try {
    server.swap(wide);
    FAIL() << "swap accepted a 2-feature model on a 5-feature server";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("ModelServer::swap"), std::string::npos) << what;
    EXPECT_NE(what.find("expected 5 features"), std::string::npos) << what;
    EXPECT_NE(what.find("got 2"), std::string::npos) << what;
  }
  try {
    server.swap_json(wide->to_json());
    FAIL() << "swap_json accepted a 2-feature model on a 5-feature server";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("ModelServer::swap_json"), std::string::npos) << what;
    EXPECT_NE(what.find("expected 5 features"), std::string::npos) << what;
    EXPECT_NE(what.find("got 2"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace mcdc

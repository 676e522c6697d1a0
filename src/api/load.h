// One-call dataset resolution shared by the CLI and the examples.
//
// A DatasetSpec names either a built-in benchmark dataset (Table II roster
// or the extension roster, by abbreviation or full name) or a CSV file on
// disk; load_dataset resolves in that order. This replaces the
// CSV-vs-registry boilerplate every consumer used to hand-roll.
#pragma once

#include <cstdint>
#include <string>

#include "data/dataset.h"

namespace mcdc::api {

struct DatasetSpec {
  // Built-in name ("Car.", "Car Evaluation", "Zoo.") or a CSV path.
  std::string source;
  // CSV only: the file has no class-label column. A CSV is otherwise read
  // with the data::CsvOptions defaults: comma-separated, no header, the
  // label in the last column.
  bool no_labels = false;
  // Generation seed for the simulated extension datasets.
  std::uint64_t seed = 7;
};

struct LoadedDataset {
  data::Dataset dataset;
  std::string name;     // resolved abbreviation, or the file path
  bool builtin = false;
};

// Resolves the spec; throws std::runtime_error naming the source when it
// matches neither a built-in dataset nor a readable CSV file.
LoadedDataset load_dataset(const DatasetSpec& spec);

// Shorthand for the common case.
inline LoadedDataset load_dataset(const std::string& source) {
  DatasetSpec spec;
  spec.source = source;
  return load_dataset(spec);
}

}  // namespace mcdc::api

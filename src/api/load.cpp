#include "api/load.h"

#include <stdexcept>

#include "data/csv.h"
#include "data/registry.h"
#include "data/uci_extra.h"

namespace mcdc::api {

LoadedDataset load_dataset(const DatasetSpec& spec) {
  if (spec.source.empty()) {
    throw std::runtime_error("load_dataset: empty source");
  }

  for (const data::DatasetInfo& info : data::benchmark_roster()) {
    if (spec.source == info.abbrev || spec.source == info.name) {
      return {data::load(info.abbrev), info.abbrev, true};
    }
  }
  for (const data::ExtraDatasetInfo& info : data::extra_roster()) {
    if (spec.source == info.abbrev || spec.source == info.name) {
      return {data::load_extra(info.abbrev, spec.seed), info.abbrev, true};
    }
  }

  data::CsvOptions options;
  if (spec.no_labels) options.label_column = -2;
  try {
    return {data::read_csv_file(spec.source, options), spec.source, false};
  } catch (const std::exception& error) {
    throw std::runtime_error(
        "load_dataset: \"" + spec.source +
        "\" is neither a built-in dataset (see `mcdc datasets`) nor a "
        "readable CSV file (" + error.what() + ")");
  }
}

}  // namespace mcdc::api

#include "data/synthetic.h"

#include <stdexcept>

#include "common/rng.h"

namespace mcdc::data {

namespace {

// Draws a value != dominant uniformly from [0, cardinality).
Value off_value(Rng& rng, int cardinality, Value dominant) {
  if (cardinality <= 1) return dominant;
  auto v = static_cast<Value>(rng.below(static_cast<std::uint64_t>(cardinality - 1)));
  if (v >= dominant) ++v;
  return v;
}

}  // namespace

Dataset well_separated(const WellSeparatedConfig& config) {
  if (config.num_clusters < 1) {
    throw std::invalid_argument("well_separated: need >= 1 cluster");
  }
  if (config.cardinality < config.num_clusters) {
    throw std::invalid_argument(
        "well_separated: cardinality must be >= num_clusters");
  }
  Rng rng(config.seed);

  const std::size_t n = config.num_objects;
  const std::size_t d = config.num_features;
  std::vector<Value> cells(n * d);
  std::vector<int> labels(n);

  // Dominant value of cluster c on every feature is simply c; with
  // cardinality >= k this already separates the clusters maximally under
  // Hamming geometry.
  for (std::size_t i = 0; i < n; ++i) {
    const int c = static_cast<int>(i % static_cast<std::size_t>(config.num_clusters));
    labels[i] = c;
    for (std::size_t r = 0; r < d; ++r) {
      const auto dominant = static_cast<Value>(c);
      cells[i * d + r] = rng.bernoulli(config.purity)
                             ? dominant
                             : off_value(rng, config.cardinality, dominant);
    }
  }

  return Dataset(n, d, std::move(cells),
                 std::vector<int>(d, config.cardinality), std::move(labels));
}

NestedDataset nested(const NestedConfig& config) {
  const int fine_total = config.num_coarse * config.fine_per_coarse;
  if (fine_total < 1) throw std::invalid_argument("nested: empty hierarchy");
  if (config.cardinality < config.num_coarse ||
      config.cardinality < fine_total) {
    throw std::invalid_argument(
        "nested: cardinality must cover both coarse and fine cluster counts");
  }
  if (config.num_features < 2) {
    throw std::invalid_argument("nested: need >= 2 features");
  }
  Rng rng(config.seed);

  const std::size_t n = config.num_objects;
  const std::size_t d = config.num_features;
  std::size_t coarse_features =
      config.coarse_features > 0 ? config.coarse_features : d * 3 / 4;
  coarse_features = std::min(coarse_features, d - 1);

  std::vector<Value> cells(n * d);
  std::vector<int> coarse_labels(n);
  std::vector<int> fine_labels(n);

  for (std::size_t i = 0; i < n; ++i) {
    const int fine = static_cast<int>(i % static_cast<std::size_t>(fine_total));
    const int coarse = fine / config.fine_per_coarse;
    coarse_labels[i] = coarse;
    fine_labels[i] = fine;
    for (std::size_t r = 0; r < d; ++r) {
      // Coarse features share the parent's value across all its children;
      // fine features distinguish the children. The same object thus
      // belongs to a compact small cluster nested inside a larger one.
      const auto dominant = static_cast<Value>(r < coarse_features ? coarse : fine);
      cells[i * d + r] = rng.bernoulli(config.purity)
                             ? dominant
                             : off_value(rng, config.cardinality, dominant);
    }
  }

  NestedDataset out;
  out.dataset = Dataset(n, d, std::move(cells),
                        std::vector<int>(d, config.cardinality),
                        std::move(coarse_labels));
  out.fine_labels = std::move(fine_labels);
  return out;
}

Dataset syn_n(std::size_t num_objects, std::uint64_t seed) {
  WellSeparatedConfig config;
  config.num_objects = num_objects;
  config.num_features = 10;
  config.num_clusters = 3;
  config.cardinality = 4;
  config.purity = 0.9;
  config.seed = seed;
  return well_separated(config);
}

}  // namespace mcdc::data

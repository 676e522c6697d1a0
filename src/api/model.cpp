#include "api/model.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "common/thread_pool.h"

namespace mcdc::api {

namespace {

// Batch Lloyd sweeps with the Sec. II-A similarity until the partition is
// its own predict() image. Returns true on convergence with all k clusters
// populated; `labels` then holds the fixpoint.
//
// Each sweep freezes the histogram bank, so every row is scored against all
// k clusters with one division-free flat sweep, and rows fan out over the
// shared pool (disjoint writes -> labels identical to the serial sweep).
bool refine_to_fixpoint(const data::DatasetView& ds, int k,
                        std::vector<int>& labels) {
  constexpr int kMaxSweeps = 100;
  std::vector<int> next(labels.size());
  for (int sweep = 0; sweep < kMaxSweeps; ++sweep) {
    core::ProfileSet profiles = core::ProfileSet::from_assignment(ds, labels, k);
    for (int l = 0; l < k; ++l) {
      if (profiles.empty(l)) return false;
    }
    profiles.freeze();
    parallel_chunks(labels.size(), 2048, [&](std::size_t lo, std::size_t hi) {
      profiles.best_clusters(ds, lo, hi, next.data() + lo);
    });
    if (next == labels) return true;
    labels.swap(next);
  }
  return false;
}

}  // namespace

Model Model::from_fit(std::string method, const data::DatasetView& ds,
                      const std::vector<int>& labels, int k,
                      std::vector<int> kappa, std::vector<double> theta,
                      bool refine) {
  if (k <= 0) throw std::invalid_argument("Model::from_fit: k must be > 0");
  if (labels.size() != ds.num_objects()) {
    throw std::invalid_argument("Model::from_fit: labels/dataset size mismatch");
  }
  Model model;
  model.method_ = std::move(method);
  model.values_.resize(ds.num_features());
  for (std::size_t r = 0; r < ds.num_features(); ++r) {
    model.values_[r].reserve(static_cast<std::size_t>(ds.cardinality(r)));
    for (data::Value v = 0; v < ds.cardinality(r); ++v) {
      model.values_[r].push_back(ds.value_name(r, v));
    }
  }
  model.training_labels_ = labels;
  if (refine) {
    std::vector<int> refined = labels;
    if (refine_to_fixpoint(ds, k, refined)) {
      model.training_labels_ = std::move(refined);
    }
  }
  model.bank_ =
      core::ProfileSet::from_assignment(ds, model.training_labels_, k);
  model.bank_.freeze();
  model.kappa_ = std::move(kappa);
  model.theta_ = std::move(theta);
  return model;
}

Model Model::from_profiles(std::string method, core::ProfileSet profiles,
                           std::vector<std::vector<std::string>> values) {
  if (profiles.num_features() == 0) {
    throw std::invalid_argument("Model::from_profiles: empty schema");
  }
  if (!values.empty() && values.size() != profiles.num_features()) {
    throw std::invalid_argument(
        "Model::from_profiles: values/cardinalities mismatch");
  }
  Model model;
  model.method_ = std::move(method);
  model.values_ = std::move(values);
  model.bank_ = std::move(profiles);
  model.bank_.freeze();
  return model;
}

int Model::predict_row(const data::Value* row) const {
  if (!has_schema()) {
    throw std::logic_error("Model::predict_row: unfitted model");
  }
  if (k() == 0) return -1;  // empty snapshot: nothing to assign to
  // Codes outside the model's domain (unseen categories, kMissing) score
  // as missing — the scorer clamps them, so no sanitising pass is needed.
  std::vector<double> scratch;
  return bank_.best_cluster(row, scratch);
}

double Model::predict_score(const data::Value* row) const {
  double score = 0.0;
  predict_scores(row, 1, &score);
  return score;
}

void Model::predict_scores(const data::Value* rows, std::size_t n,
                           double* out) const {
  if (!has_schema()) {
    throw std::logic_error("Model::predict_scores: unfitted model");
  }
  bank_.best_scores(rows, n, out);  // k = 0: max over no lanes, 0.0
}

void Model::predict_rows(const data::Value* rows, std::size_t n,
                         int* out) const {
  if (!has_schema()) {
    throw std::logic_error("Model::predict_rows: unfitted model");
  }
  if (k() == 0) {
    std::fill(out, out + n, -1);
    return;
  }
  const std::size_t d = num_features();
  parallel_chunks(n, 64, [&](std::size_t lo, std::size_t hi) {
    bank_.best_clusters(rows + lo * d, hi - lo, out + lo);
  });
}

std::vector<data::Value> Model::cluster_mode(int l) const {
  if (!fitted()) throw std::logic_error("Model::cluster_mode: unfitted model");
  if (l < 0 || l >= k()) {
    throw std::logic_error("Model::cluster_mode: cluster id out of range");
  }
  return bank_.mode(l);
}

double Model::cluster_mass(int l) const {
  if (!fitted()) throw std::logic_error("Model::cluster_mass: unfitted model");
  if (l < 0 || l >= k()) {
    throw std::logic_error("Model::cluster_mass: cluster id out of range");
  }
  return bank_.size(l);
}

std::vector<std::vector<data::Value>> Model::encoding_map(
    const data::DatasetView& ds) const {
  if (ds.num_features() != num_features()) {
    throw std::invalid_argument(feature_width_message(
        "Model::encoding_map", num_features(), ds.num_features()));
  }

  // Datasets are dictionary-encoded per source in first-seen order, so the
  // incoming codes are translated into the model's encoding by value name;
  // names the fit never saw become kMissing (an unseen category scores
  // zero, like the NULL-aware similarity treats an absent cell). The
  // translation tables make the per-cell cost O(1).
  std::vector<std::vector<data::Value>> remap(ds.num_features());
  for (std::size_t r = 0; r < ds.num_features(); ++r) {
    // mcdc-lint: allow(D3) lookup-only translation table; never iterated
    std::unordered_map<std::string, data::Value> codes;
    if (r < values_.size()) {
      codes.reserve(values_[r].size());
      for (std::size_t v = 0; v < values_[r].size(); ++v) {
        codes.emplace(values_[r][v], static_cast<data::Value>(v));
      }
    }
    remap[r].resize(static_cast<std::size_t>(ds.cardinality(r)));
    for (data::Value v = 0; v < ds.cardinality(r); ++v) {
      if (codes.empty()) {
        // Model without dictionaries (legacy JSON): codes pass through
        // when they are in range.
        remap[r][static_cast<std::size_t>(v)] =
            v < cardinalities()[r] ? v : data::kMissing;
      } else {
        const auto it = codes.find(ds.value_name(r, v));
        remap[r][static_cast<std::size_t>(v)] =
            it == codes.end() ? data::kMissing : it->second;
      }
    }
  }
  return remap;
}

std::vector<int> Model::predict(const data::DatasetView& ds) const {
  if (!has_schema()) throw std::logic_error("Model::predict: unfitted model");
  const std::vector<std::vector<data::Value>> remap = encoding_map(ds);
  if (k() == 0) return std::vector<int>(ds.num_objects(), -1);

  // Scoring is per-row independent against the frozen bank, so rows fan
  // out over the shared pool; chunks write disjoint label slots, keeping
  // predict() byte-identical to a serial sweep regardless of thread count.
  // Each chunk re-encodes its rows into one contiguous buffer and runs
  // the cache-blocked batch argmax over it.
  std::vector<int> labels(ds.num_objects());
  const std::size_t d = ds.num_features();
  parallel_chunks(ds.num_objects(), 1024, [&](std::size_t lo, std::size_t hi) {
    std::vector<data::Value> encoded((hi - lo) * d);
    for (std::size_t i = lo; i < hi; ++i) {
      data::Value* row = encoded.data() + (i - lo) * d;
      for (std::size_t r = 0; r < d; ++r) {
        const data::Value v = ds.at(i, r);
        row[r] = v == data::kMissing ? data::kMissing
                                     : remap[r][static_cast<std::size_t>(v)];
      }
    }
    bank_.best_clusters(encoded.data(), hi - lo, labels.data() + lo);
  });
  return labels;
}

Json Model::to_json(bool include_training_labels) const {
  Json out = Json::object();
  out["method"] = method_;
  out["k"] = k();

  Json cards = Json::array();
  for (const int m : cardinalities()) cards.push_back(m);
  out["cardinalities"] = std::move(cards);

  if (!values_.empty()) {
    Json values = Json::array();
    for (const auto& feature_values : values_) {
      Json names = Json::array();
      for (const std::string& name : feature_values) names.push_back(name);
      values.push_back(std::move(names));
    }
    out["values"] = std::move(values);
  }

  // The bank verbatim: integral values print as integers, decayed
  // fractional ones round-trip exactly (%.17g).
  Json clusters = Json::array();
  for (int l = 0; l < k(); ++l) {
    Json cluster = Json::object();
    cluster["size"] = bank_.size(l);
    Json non_null = Json::array();
    Json counts = Json::array();
    for (std::size_t r = 0; r < num_features(); ++r) {
      non_null.push_back(bank_.non_null(l, r));
      Json row = Json::array();
      for (data::Value v = 0; v < cardinalities()[r]; ++v) {
        row.push_back(bank_.count(l, r, v));
      }
      counts.push_back(std::move(row));
    }
    cluster["non_null"] = std::move(non_null);
    cluster["counts"] = std::move(counts);
    clusters.push_back(std::move(cluster));
  }
  out["clusters"] = std::move(clusters);

  if (include_training_labels) {
    Json labels = Json::array();
    for (const int l : training_labels_) labels.push_back(l);
    out["training_labels"] = std::move(labels);
  }

  Json kappa = Json::array();
  for (const int kj : kappa_) kappa.push_back(kj);
  out["kappa"] = std::move(kappa);

  Json theta = Json::array();
  for (const double t : theta_) theta.push_back(t);
  out["theta"] = std::move(theta);

  return out;
}

Model Model::from_json(const Json& json) {
  Model model;
  model.method_ = json.at("method").as_string();
  const int k = json.at("k").as_int();
  // k = 0 is a valid empty snapshot (predicts -1); negative k is garbage.
  if (k < 0) throw std::runtime_error("model json: k must be >= 0");

  std::vector<int> cardinalities;
  const Json& cards = json.at("cardinalities");
  for (std::size_t r = 0; r < cards.size(); ++r) {
    cardinalities.push_back(cards.at(r).as_int());
    if (cardinalities.back() < 0) {
      throw std::runtime_error("model json: negative cardinality");
    }
  }
  const std::size_t d = cardinalities.size();
  if (d == 0) throw std::runtime_error("model json: empty schema");

  if (json.contains("values")) {
    const Json& values = json.at("values");
    if (values.size() != d) {
      throw std::runtime_error("model json: values/cardinalities mismatch");
    }
    model.values_.resize(d);
    for (std::size_t r = 0; r < d; ++r) {
      const Json& names = values.at(r);
      for (std::size_t v = 0; v < names.size(); ++v) {
        model.values_[r].push_back(names.at(v).as_string());
      }
    }
  }

  // Sizes, totals and counts must be finite and non-negative: a negative
  // count would score rows outside [0, 1].
  const auto histogram_value = [](const Json& value) {
    const double x = value.as_double();
    if (!std::isfinite(x) || x < 0.0) {
      throw std::runtime_error(
          "model json: negative or non-finite histogram value");
    }
    return x;
  };
  const Json& clusters = json.at("clusters");
  if (clusters.size() != static_cast<std::size_t>(k)) {
    throw std::runtime_error("model json: cluster count does not match k");
  }
  std::vector<double> sizes;
  std::vector<double> non_null;
  std::vector<double> counts;
  for (std::size_t l = 0; l < clusters.size(); ++l) {
    const Json& cluster = clusters.at(l);
    sizes.push_back(histogram_value(cluster.at("size")));
    const Json& counts_json = cluster.at("counts");
    if (counts_json.size() != d) {
      throw std::runtime_error("model json: counts/cardinalities mismatch");
    }
    // Documents without non-null totals hold integral counts, whose row
    // sums are exactly the totals.
    const bool has_totals = cluster.contains("non_null");
    if (has_totals && cluster.at("non_null").size() != d) {
      throw std::runtime_error("model json: non_null/cardinalities mismatch");
    }
    for (std::size_t r = 0; r < d; ++r) {
      const Json& row = counts_json.at(r);
      if (row.size() != static_cast<std::size_t>(cardinalities[r])) {
        throw std::runtime_error("model json: counts row width mismatch");
      }
      double total = 0.0;
      for (std::size_t v = 0; v < row.size(); ++v) {
        counts.push_back(histogram_value(row.at(v)));
        total += counts.back();
      }
      non_null.push_back(
          has_totals ? histogram_value(cluster.at("non_null").at(r)) : total);
    }
  }
  model.bank_ =
      core::ProfileSet::from_arrays(cardinalities, sizes, non_null, counts);
  model.bank_.freeze();

  if (json.contains("training_labels")) {
    const Json& labels = json.at("training_labels");
    for (std::size_t i = 0; i < labels.size(); ++i) {
      model.training_labels_.push_back(labels.at(i).as_int());
    }
  }
  if (json.contains("kappa")) {
    const Json& kappa = json.at("kappa");
    for (std::size_t j = 0; j < kappa.size(); ++j) {
      model.kappa_.push_back(kappa.at(j).as_int());
    }
  }
  if (json.contains("theta")) {
    const Json& theta = json.at("theta");
    for (std::size_t j = 0; j < theta.size(); ++j) {
      model.theta_.push_back(theta.at(j).as_double());
    }
  }
  return model;
}

std::string feature_width_message(const std::string& context,
                                  std::size_t expected, std::size_t actual) {
  return context + ": feature width mismatch: expected " +
         std::to_string(expected) + " features, got " +
         std::to_string(actual);
}

}  // namespace mcdc::api

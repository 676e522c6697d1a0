#include "data/dataset.h"

#include <algorithm>
#include <stdexcept>

namespace mcdc::data {

namespace {

// First-seen-order string interning used for both values and labels.
int intern(std::vector<std::string>& names, const std::string& s) {
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i] == s) return static_cast<int>(i);
  }
  names.push_back(s);
  return static_cast<int>(names.size() - 1);
}

// Row-major staging buffer -> column-major bank.
std::vector<Value> transpose_to_columns(const std::vector<Value>& row_major,
                                        std::size_t n, std::size_t d) {
  std::vector<Value> cols(n * d);
  for (std::size_t i = 0; i < n; ++i) {
    const Value* row = row_major.data() + i * d;
    for (std::size_t r = 0; r < d; ++r) cols[r * n + i] = row[r];
  }
  return cols;
}

}  // namespace

DatasetBuilder::DatasetBuilder(std::vector<std::string> feature_names)
    : feature_names_(std::move(feature_names)),
      value_names_(feature_names_.size()) {
  if (feature_names_.empty()) {
    throw std::invalid_argument("DatasetBuilder: need at least one feature");
  }
}

void DatasetBuilder::add_row(const std::vector<std::string>& values,
                             const std::string& label) {
  if (values.size() != feature_names_.size()) {
    throw std::invalid_argument("DatasetBuilder: row arity mismatch");
  }
  for (std::size_t r = 0; r < values.size(); ++r) {
    const std::string& v = values[r];
    if (v.empty() || v == "?") {
      cells_.push_back(kMissing);
    } else {
      cells_.push_back(intern(value_names_[r], v));
    }
  }
  if (!label.empty()) {
    has_labels_ = true;
    labels_.push_back(intern(label_names_, label));
  } else {
    labels_.push_back(-1);
  }
  ++n_;
}

Dataset DatasetBuilder::build() && {
  Dataset ds;
  ds.n_ = n_;
  ds.d_ = feature_names_.size();
  ds.cells_ = transpose_to_columns(cells_, ds.n_, ds.d_);
  ds.cardinalities_.reserve(ds.d_);
  for (const auto& names : value_names_) {
    ds.cardinalities_.push_back(static_cast<int>(names.size()));
  }
  ds.labels_ = has_labels_ ? std::move(labels_) : std::vector<int>{};
  ds.feature_names_ = std::move(feature_names_);
  ds.value_names_ = std::move(value_names_);
  ds.label_names_ = std::move(label_names_);
  return ds;
}

Dataset::Dataset(std::size_t n, std::size_t d, std::vector<Value> cells,
                 std::vector<int> cardinalities, std::vector<int> labels)
    : n_(n),
      d_(d),
      cardinalities_(std::move(cardinalities)),
      labels_(std::move(labels)) {
  if (cells.size() != n_ * d_) {
    throw std::invalid_argument("Dataset: cells size != n*d");
  }
  if (cardinalities_.size() != d_) {
    throw std::invalid_argument("Dataset: cardinalities size != d");
  }
  if (!labels_.empty() && labels_.size() != n_) {
    throw std::invalid_argument("Dataset: labels size != n");
  }
  for (std::size_t i = 0; i < n_; ++i) {
    for (std::size_t r = 0; r < d_; ++r) {
      const Value v = cells[i * d_ + r];
      if (v != kMissing && (v < 0 || v >= cardinalities_[r])) {
        throw std::invalid_argument("Dataset: cell value out of domain");
      }
    }
  }
  cells_ = transpose_to_columns(cells, n_, d_);
}

int Dataset::num_classes() const {
  int best = -1;
  for (int y : labels_) best = std::max(best, y);
  return best + 1;
}

std::string Dataset::value_name(std::size_t r, Value v) const {
  if (v == kMissing) return "?";
  if (r < value_names_.size() &&
      static_cast<std::size_t>(v) < value_names_[r].size()) {
    return value_names_[r][static_cast<std::size_t>(v)];
  }
  return "v" + std::to_string(v);
}

bool Dataset::has_missing() const {
  return std::find(cells_.begin(), cells_.end(), kMissing) != cells_.end();
}

std::vector<std::size_t> Dataset::complete_rows() const {
  std::vector<char> complete(n_, 1);
  for (std::size_t r = 0; r < d_; ++r) {
    const Value* column = col(r);
    for (std::size_t i = 0; i < n_; ++i) {
      if (column[i] == kMissing) complete[i] = 0;
    }
  }
  std::vector<std::size_t> keep;
  keep.reserve(n_);
  for (std::size_t i = 0; i < n_; ++i) {
    if (complete[i]) keep.push_back(i);
  }
  return keep;
}

Dataset Dataset::drop_missing_rows() const { return subset(complete_rows()); }

Dataset Dataset::subset(const std::vector<std::size_t>& rows) const {
  for (std::size_t i : rows) {
    if (i >= n_) throw std::out_of_range("Dataset::subset: row out of range");
  }
  Dataset out;
  out.n_ = rows.size();
  out.d_ = d_;
  out.cardinalities_ = cardinalities_;
  out.feature_names_ = feature_names_;
  out.value_names_ = value_names_;
  out.label_names_ = label_names_;
  out.cells_.resize(rows.size() * d_);
  for (std::size_t r = 0; r < d_; ++r) {
    const Value* src = col(r);
    Value* dst = out.cells_.data() + r * out.n_;
    for (std::size_t j = 0; j < rows.size(); ++j) dst[j] = src[rows[j]];
  }
  if (has_labels()) {
    out.labels_.reserve(rows.size());
    for (std::size_t i : rows) out.labels_.push_back(labels_[i]);
  }
  return out;
}

std::vector<std::vector<int>> Dataset::value_counts() const {
  std::vector<std::vector<int>> counts(d_);
  for (std::size_t r = 0; r < d_; ++r) {
    counts[r].assign(static_cast<std::size_t>(cardinalities_[r]), 0);
    const Value* column = col(r);
    auto& feature_counts = counts[r];
    for (std::size_t i = 0; i < n_; ++i) {
      const Value v = column[i];
      if (v != kMissing) ++feature_counts[static_cast<std::size_t>(v)];
    }
  }
  return counts;
}

}  // namespace mcdc::data

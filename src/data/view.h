// DatasetView — a non-owning window onto a Dataset: a dataset pointer plus
// an optional row-index span. This is the substrate every algorithm in the
// library consumes; a plain Dataset converts implicitly to the identity
// view, so call sites that own a full table keep working unchanged, while
// shards, streaming windows, complete-case subsets and active-learning
// pools become O(1) views instead of deep copies.
//
// Lifetime / aliasing contract:
//   - The view borrows BOTH the dataset and the row-index buffer; the
//     caller must keep them alive and unchanged for the view's lifetime.
//     Views are trivially copyable (two pointers and a length) and are
//     passed by value.
//   - Row indices must lie in [0, dataset.num_objects()); construction from
//     a vector checks this once. Indices may repeat and may be unordered —
//     a view is a row *selection*, not a set.
//   - A view never exposes mutation: the underlying Dataset is immutable,
//     so any number of views (e.g. one per distributed worker) may read the
//     same bank concurrently with zero materialised bytes.
//
// Position vs row id: every accessor takes view positions i in
// [0, num_objects()); row_id(i) recovers the underlying dataset row, which
// is what shard reports and cross-view bookkeeping should store. row(i)
// reads position i in place as a strided RowRef into the dataset's bank —
// the one row form ProfileSet's per-row operations take.
#pragma once

#include <cassert>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include "data/dataset.h"

namespace mcdc::data {

class DatasetView {
 public:
  DatasetView() = default;

  // Identity view over the whole dataset (implicit on purpose: every
  // algorithm takes a view, every Dataset call site keeps compiling).
  DatasetView(const Dataset& ds)
      : ds_(&ds), n_(ds.num_objects()), identity_(true) {}

  // View over `count` rows given by `rows[0..count)`. The index buffer is
  // borrowed, not copied. An empty selection is a valid (empty) view, not
  // an identity view.
  DatasetView(const Dataset& ds, const std::size_t* rows, std::size_t count)
      : ds_(&ds), rows_(rows), n_(count), identity_(false) {
    for (std::size_t j = 0; j < count; ++j) {
      if (rows[j] >= ds.num_objects()) {
        throw std::out_of_range("DatasetView: row index out of range");
      }
    }
  }

  DatasetView(const Dataset& ds, const std::vector<std::size_t>& rows)
      : DatasetView(ds, rows.data(), rows.size()) {}

  const Dataset& dataset() const { return *ds_; }
  // True when the view maps positions 1:1 onto dataset rows — the fast
  // path where col() pointers can be consumed directly.
  bool is_identity() const { return identity_; }
  // Underlying dataset row of view position i.
  std::size_t row_id(std::size_t i) const {
    return identity_ ? i : rows_[i];
  }

  std::size_t num_objects() const { return n_; }
  std::size_t num_features() const { return ds_->num_features(); }
  int cardinality(std::size_t r) const { return ds_->cardinality(r); }
  const std::vector<int>& cardinalities() const { return ds_->cardinalities(); }

  Value at(std::size_t i, std::size_t r) const {
    return ds_->at(row_id(i), r);
  }
  bool is_missing(std::size_t i, std::size_t r) const {
    return at(i, r) == kMissing;
  }

  // Stride-1 pointer to feature r's values — identity views only (there is
  // no contiguous column to point at through an indirection; asserting
  // keeps a forgotten is_identity() guard from silently reading the wrong
  // rows in debug builds).
  const Value* col(std::size_t r) const {
    assert(identity_ && "DatasetView::col requires an identity view");
    return ds_->col(r);
  }

  // View position i read in place (no gather), like Dataset::row.
  RowRef row(std::size_t i) const { return ds_->row(row_id(i)); }

  void gather_row(std::size_t i, Value* out) const {
    ds_->gather_row(row_id(i), out);
  }
  std::vector<Value> row_copy(std::size_t i) const {
    return ds_->row_copy(row_id(i));
  }

  bool has_labels() const { return ds_->has_labels(); }
  int label(std::size_t i) const { return ds_->labels()[row_id(i)]; }
  // Ground-truth labels of the viewed rows (materialised; empty when the
  // dataset carries none).
  std::vector<int> labels() const {
    if (!ds_->has_labels()) return {};
    std::vector<int> out(n_);
    for (std::size_t i = 0; i < n_; ++i) out[i] = label(i);
    return out;
  }
  int num_classes() const { return ds_->num_classes(); }

  std::string value_name(std::size_t r, Value v) const {
    return ds_->value_name(r, v);
  }
  const std::vector<std::string>& feature_names() const {
    return ds_->feature_names();
  }
  const std::vector<std::string>& label_names() const {
    return ds_->label_names();
  }

  bool has_missing() const {
    if (is_identity()) return ds_->has_missing();
    for (std::size_t r = 0; r < num_features(); ++r) {
      for (std::size_t i = 0; i < n_; ++i) {
        if (at(i, r) == kMissing) return true;
      }
    }
    return false;
  }

  // Underlying row ids of viewed rows with no missing value, ascending in
  // view order — feed them back into a new DatasetView for a zero-copy
  // complete-case subset.
  std::vector<std::size_t> complete_rows() const {
    std::vector<char> complete(n_, 1);
    for (std::size_t r = 0; r < num_features(); ++r) {
      for (std::size_t i = 0; i < n_; ++i) {
        if (at(i, r) == kMissing) complete[i] = 0;
      }
    }
    std::vector<std::size_t> keep;
    keep.reserve(n_);
    for (std::size_t i = 0; i < n_; ++i) {
      if (complete[i]) keep.push_back(row_id(i));
    }
    return keep;
  }

  // Per-feature value-frequency table over the viewed rows only.
  std::vector<std::vector<int>> value_counts() const {
    if (is_identity()) return ds_->value_counts();
    std::vector<std::vector<int>> counts(num_features());
    for (std::size_t r = 0; r < num_features(); ++r) {
      counts[r].assign(static_cast<std::size_t>(cardinality(r)), 0);
      for (std::size_t i = 0; i < n_; ++i) {
        const Value v = at(i, r);
        if (v != kMissing) ++counts[r][static_cast<std::size_t>(v)];
      }
    }
    return counts;
  }

  // Deep copy of the viewed rows as an owned Dataset (the old subset());
  // only for consumers that genuinely need ownership.
  Dataset materialize() const {
    if (is_identity()) return *ds_;
    std::vector<std::size_t> rows(rows_, rows_ + n_);
    return ds_->subset(rows);
  }

 private:
  const Dataset* ds_ = nullptr;
  const std::size_t* rows_ = nullptr;  // unused when identity_
  std::size_t n_ = 0;
  bool identity_ = false;
};

}  // namespace mcdc::data

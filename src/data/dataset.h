// Categorical data table: the substrate every algorithm in this library
// consumes.
//
// A Dataset is an immutable n x d table of dictionary-encoded categorical
// values. Each feature F_r has a domain dom(F_r) = {f_r1, ..., f_rm_r}; cell
// values are stored as dense integer codes in [0, m_r) with kMissing for
// absent entries ('?' in the UCI files the paper uses). Ground-truth class
// labels, when known, ride along for evaluation only — no algorithm reads
// them.
//
// Storage is COLUMN-MAJOR: the primary bank holds feature r's n values
// contiguously at col(r), mirroring core::ProfileSet's value-major histogram
// bank, so frequency-counting kernels (ProfileSet::from_assignment,
// value_counts, the MGCPL/CAME sweeps) walk stride-1 memory. Constructors
// and builders still accept row-major cells — the familiar ingestion layout
// of CSV readers and generators — and transpose once at construction.
// Rows are read in place: row(i) is a RowRef, a pointer to the row's first
// cell plus a stride of n, so row(i)[r] is at(i, r) with no copy. Where a
// packed copy is wanted, gather_row(i, out) materialises one object's d
// values into a caller buffer.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace mcdc::data {

using Value = std::int32_t;

// Code stored for a missing ('?') cell.
inline constexpr Value kMissing = -1;

class Dataset;

// One object's d codes, read where they lie: feature r's code is
// first[r * stride]. Dataset::row(i) points into the column-major bank
// (stride n); a packed, pre-encoded row (stride 1) converts implicitly from
// its pointer, so one signature takes both. Borrowed: the cells must
// outlive the reference.
struct RowRef {
  // Implicit on purpose: every packed-row caller keeps compiling.
  RowRef(const Value* packed) : first(packed) {}
  RowRef(const Value* first_cell, std::size_t step)
      : first(first_cell), stride(step) {}

  Value operator[](std::size_t r) const { return first[r * stride]; }

  const Value* first;
  std::size_t stride = 1;
};

// Incrementally assembles a Dataset from string-valued rows. Dictionaries
// are built in first-seen order, so generation order fully determines the
// encoding (reproducibility).
class DatasetBuilder {
 public:
  // feature_names defines d; every added row must match its arity.
  explicit DatasetBuilder(std::vector<std::string> feature_names);

  // Adds one object. Use "?" (or empty string) for a missing value.
  // label may be empty when ground truth is unknown.
  void add_row(const std::vector<std::string>& values,
               const std::string& label = "");

  Dataset build() &&;

 private:
  friend class Dataset;
  std::vector<std::string> feature_names_;
  std::vector<std::vector<std::string>> value_names_;  // per feature
  std::vector<Value> cells_;                           // row-major staging
  std::vector<int> labels_;
  std::vector<std::string> label_names_;
  bool has_labels_ = false;
  std::size_t n_ = 0;
};

class Dataset {
 public:
  Dataset() = default;

  // Direct construction from pre-encoded cells (ROW-major, n x d — the
  // ingestion layout; transposed into the columnar bank once here).
  // cardinalities[r] = m_r; every non-missing cell must satisfy
  // 0 <= value < m_r. labels may be empty.
  Dataset(std::size_t n, std::size_t d, std::vector<Value> cells,
          std::vector<int> cardinalities, std::vector<int> labels = {});

  std::size_t num_objects() const { return n_; }
  std::size_t num_features() const { return d_; }

  // m_r: number of possible values of feature r.
  int cardinality(std::size_t r) const { return cardinalities_[r]; }
  const std::vector<int>& cardinalities() const { return cardinalities_; }

  Value at(std::size_t i, std::size_t r) const { return cells_[r * n_ + i]; }
  bool is_missing(std::size_t i, std::size_t r) const {
    return at(i, r) == kMissing;
  }

  // Pointer to feature r's n contiguous values (the columnar hot path).
  const Value* col(std::size_t r) const { return cells_.data() + r * n_; }
  // Row i in place: one step of n down the bank per feature.
  RowRef row(std::size_t i) const { return {cells_.data() + i, n_}; }

  // Materialises row i's d values into out[0..d) (a strided gather).
  void gather_row(std::size_t i, Value* out) const {
    for (std::size_t r = 0; r < d_; ++r) out[r] = cells_[r * n_ + i];
  }
  // Convenience copy of one row (allocates; use gather_row in loops).
  std::vector<Value> row_copy(std::size_t i) const {
    std::vector<Value> out(d_);
    gather_row(i, out.data());
    return out;
  }

  bool has_labels() const { return !labels_.empty(); }
  const std::vector<int>& labels() const { return labels_; }
  int num_classes() const;

  // Human-readable names; empty when constructed from codes directly.
  const std::vector<std::string>& feature_names() const {
    return feature_names_;
  }
  const std::vector<std::string>& label_names() const { return label_names_; }
  // Name of value code v of feature r ("v<code>" when no dictionary).
  std::string value_name(std::size_t r, Value v) const;

  // True if any cell is missing.
  bool has_missing() const;

  // Indices of rows containing no missing value, ascending.
  std::vector<std::size_t> complete_rows() const;

  // Copy with every row containing a missing value removed (the paper's
  // preprocessing: "data objects with missing values are omitted"). When a
  // copy is not needed, keep the index vector alive and view through it:
  //   const auto rows = ds.complete_rows();
  //   data::DatasetView clean(ds, rows);  // borrows `rows` — no temporary
  Dataset drop_missing_rows() const;

  // Copy containing only the given rows (in the given order). Prefer a
  // DatasetView over the same indices when a copy is not needed.
  Dataset subset(const std::vector<std::size_t>& rows) const;

  // Per-feature value-frequency table: counts[r][v] = |{i : x_ir = v}|.
  // One stride-1 column sweep per feature.
  std::vector<std::vector<int>> value_counts() const;

 private:
  friend class DatasetBuilder;

  std::size_t n_ = 0;
  std::size_t d_ = 0;
  std::vector<Value> cells_;  // column-major: cells_[r * n_ + i]
  std::vector<int> cardinalities_;
  std::vector<int> labels_;
  std::vector<std::string> feature_names_;
  std::vector<std::vector<std::string>> value_names_;
  std::vector<std::string> label_names_;
};

}  // namespace mcdc::data

// Unit tests for the categorical Dataset substrate and the zero-copy
// DatasetView window onto it.
#include "data/dataset.h"

#include <gtest/gtest.h>

#include <vector>

#include "data/view.h"

namespace mcdc::data {
namespace {

Dataset small() {
  DatasetBuilder b({"color", "size"});
  b.add_row({"red", "big"}, "A");
  b.add_row({"blue", "small"}, "B");
  b.add_row({"red", "small"}, "A");
  b.add_row({"green", "?"}, "B");
  return std::move(b).build();
}

TEST(DatasetBuilder, BasicShapeAndEncoding) {
  const Dataset ds = small();
  EXPECT_EQ(ds.num_objects(), 4u);
  EXPECT_EQ(ds.num_features(), 2u);
  EXPECT_EQ(ds.cardinality(0), 3);  // red, blue, green
  EXPECT_EQ(ds.cardinality(1), 2);  // big, small
  // First-seen-order coding.
  EXPECT_EQ(ds.at(0, 0), 0);
  EXPECT_EQ(ds.at(1, 0), 1);
  EXPECT_EQ(ds.at(2, 0), 0);
  EXPECT_EQ(ds.at(3, 0), 2);
}

TEST(DatasetBuilder, MissingValues) {
  const Dataset ds = small();
  EXPECT_TRUE(ds.has_missing());
  EXPECT_TRUE(ds.is_missing(3, 1));
  EXPECT_FALSE(ds.is_missing(0, 1));
  EXPECT_EQ(ds.value_name(1, kMissing), "?");
}

TEST(DatasetBuilder, Labels) {
  const Dataset ds = small();
  ASSERT_TRUE(ds.has_labels());
  EXPECT_EQ(ds.num_classes(), 2);
  EXPECT_EQ(ds.labels(), (std::vector<int>{0, 1, 0, 1}));
  EXPECT_EQ(ds.label_names()[0], "A");
}

TEST(DatasetBuilder, ValueNames) {
  const Dataset ds = small();
  EXPECT_EQ(ds.value_name(0, 0), "red");
  EXPECT_EQ(ds.value_name(0, 2), "green");
  EXPECT_EQ(ds.value_name(1, 1), "small");
}

TEST(DatasetBuilder, ArityMismatchThrows) {
  DatasetBuilder b({"a", "b"});
  EXPECT_THROW(b.add_row({"x"}), std::invalid_argument);
}

TEST(DatasetBuilder, EmptyFeatureListThrows) {
  EXPECT_THROW(DatasetBuilder({}), std::invalid_argument);
}

TEST(Dataset, DirectConstruction) {
  const Dataset ds(2, 2, {0, 1, 1, 0}, {2, 2}, {0, 1});
  EXPECT_EQ(ds.num_objects(), 2u);
  EXPECT_EQ(ds.at(1, 0), 1);
  EXPECT_EQ(ds.value_name(0, 1), "v1");  // no dictionary -> synthetic name
}

TEST(Dataset, DirectConstructionValidation) {
  EXPECT_THROW(Dataset(2, 2, {0, 1, 1}, {2, 2}), std::invalid_argument);
  EXPECT_THROW(Dataset(2, 2, {0, 1, 1, 0}, {2}), std::invalid_argument);
  EXPECT_THROW(Dataset(2, 2, {0, 5, 1, 0}, {2, 2}), std::invalid_argument);
  EXPECT_THROW(Dataset(2, 2, {0, 1, 1, 0}, {2, 2}, {0}), std::invalid_argument);
}

TEST(Dataset, MissingAllowedInDirectConstruction) {
  const Dataset ds(1, 2, {kMissing, 0}, {2, 2});
  EXPECT_TRUE(ds.is_missing(0, 0));
}

TEST(Dataset, DropMissingRows) {
  const Dataset ds = small();
  const Dataset clean = ds.drop_missing_rows();
  EXPECT_EQ(clean.num_objects(), 3u);
  EXPECT_FALSE(clean.has_missing());
  // Cardinalities and dictionaries are preserved even when a value no
  // longer occurs.
  EXPECT_EQ(clean.cardinality(0), 3);
  EXPECT_EQ(clean.labels(), (std::vector<int>{0, 1, 0}));
}

TEST(Dataset, SubsetSelectsRowsInOrder) {
  const Dataset ds = small();
  const Dataset sub = ds.subset({2, 0});
  EXPECT_EQ(sub.num_objects(), 2u);
  EXPECT_EQ(sub.at(0, 0), ds.at(2, 0));
  EXPECT_EQ(sub.at(1, 0), ds.at(0, 0));
  EXPECT_EQ(sub.labels(), (std::vector<int>{0, 0}));
}

TEST(Dataset, SubsetOutOfRangeThrows) {
  const Dataset ds = small();
  EXPECT_THROW(ds.subset({7}), std::out_of_range);
}

TEST(Dataset, ValueCounts) {
  const Dataset ds = small();
  const auto counts = ds.value_counts();
  EXPECT_EQ(counts[0], (std::vector<int>{2, 1, 1}));  // red, blue, green
  EXPECT_EQ(counts[1], (std::vector<int>{1, 2}));     // big, small (missing skipped)
}

TEST(Dataset, RowGather) {
  const Dataset ds = small();
  const std::vector<Value> row = ds.row_copy(1);
  ASSERT_EQ(row.size(), ds.num_features());
  EXPECT_EQ(row[0], ds.at(1, 0));
  EXPECT_EQ(row[1], ds.at(1, 1));
}

TEST(Dataset, ColumnPointerIsStrideOne) {
  const Dataset ds = small();
  for (std::size_t r = 0; r < ds.num_features(); ++r) {
    const Value* column = ds.col(r);
    for (std::size_t i = 0; i < ds.num_objects(); ++i) {
      EXPECT_EQ(column[i], ds.at(i, r));
    }
  }
}

TEST(DatasetView, IdentityViewMirrorsDataset) {
  const Dataset ds = small();
  const DatasetView view(ds);  // also exercises the implicit conversion
  EXPECT_TRUE(view.is_identity());
  EXPECT_EQ(view.num_objects(), ds.num_objects());
  EXPECT_EQ(view.num_features(), ds.num_features());
  EXPECT_EQ(view.cardinalities(), ds.cardinalities());
  for (std::size_t i = 0; i < ds.num_objects(); ++i) {
    EXPECT_EQ(view.row_id(i), i);
    for (std::size_t r = 0; r < ds.num_features(); ++r) {
      EXPECT_EQ(view.at(i, r), ds.at(i, r));
    }
  }
  EXPECT_EQ(view.labels(), ds.labels());
  EXPECT_EQ(view.value_counts(), ds.value_counts());
}

TEST(DatasetView, IndirectionSelectsRowsInOrder) {
  const Dataset ds = small();
  const std::vector<std::size_t> rows{2, 0, 2};  // repeats are allowed
  const DatasetView view(ds, rows);
  EXPECT_FALSE(view.is_identity());
  ASSERT_EQ(view.num_objects(), 3u);
  EXPECT_EQ(view.row_id(0), 2u);
  EXPECT_EQ(view.row_id(1), 0u);
  EXPECT_EQ(view.at(0, 0), ds.at(2, 0));
  EXPECT_EQ(view.at(1, 0), ds.at(0, 0));
  EXPECT_EQ(view.at(2, 1), ds.at(2, 1));
  EXPECT_EQ(view.label(1), ds.labels()[0]);
  EXPECT_EQ(view.labels(), (std::vector<int>{0, 0, 0}));
  EXPECT_EQ(view.row_copy(1), ds.row_copy(0));
  // The materialised twin is cell-identical to the old subset copy.
  const Dataset copy = view.materialize();
  ASSERT_EQ(copy.num_objects(), view.num_objects());
  for (std::size_t i = 0; i < view.num_objects(); ++i) {
    for (std::size_t r = 0; r < view.num_features(); ++r) {
      EXPECT_EQ(copy.at(i, r), view.at(i, r));
    }
  }
}

TEST(DatasetView, MissingMasksFollowTheViewedRows) {
  const Dataset ds = small();  // row 3 has the only missing cell
  const std::vector<std::size_t> clean_rows{0, 1, 2};
  const DatasetView clean(ds, clean_rows);
  EXPECT_FALSE(clean.has_missing());
  EXPECT_EQ(clean.complete_rows(), (std::vector<std::size_t>{0, 1, 2}));

  const std::vector<std::size_t> dirty_rows{3, 1};
  const DatasetView dirty(ds, dirty_rows);
  EXPECT_TRUE(dirty.has_missing());
  EXPECT_TRUE(dirty.is_missing(0, 1));
  EXPECT_FALSE(dirty.is_missing(1, 1));
  // complete_rows reports underlying dataset ids, ready to back a new view.
  EXPECT_EQ(dirty.complete_rows(), (std::vector<std::size_t>{1}));
  // Value counts cover only the viewed rows (the missing cell is skipped).
  const auto counts = dirty.value_counts();
  EXPECT_EQ(counts[0], (std::vector<int>{0, 1, 1}));  // blue, green
  EXPECT_EQ(counts[1], (std::vector<int>{0, 1}));     // small
}

TEST(DatasetView, EmptyViewIsWellFormed) {
  const Dataset ds = small();
  const std::vector<std::size_t> no_rows;
  const DatasetView view(ds, no_rows);
  EXPECT_EQ(view.num_objects(), 0u);
  EXPECT_EQ(view.num_features(), ds.num_features());
  EXPECT_FALSE(view.has_missing());
  EXPECT_TRUE(view.complete_rows().empty());
  EXPECT_TRUE(view.labels().empty());
  const Dataset copy = view.materialize();
  EXPECT_EQ(copy.num_objects(), 0u);
  EXPECT_EQ(copy.num_features(), ds.num_features());
}

TEST(DatasetView, OutOfRangeRowIndexThrows) {
  const Dataset ds = small();
  const std::vector<std::size_t> bad{1, 9};
  EXPECT_THROW(DatasetView(ds, bad), std::out_of_range);
}

TEST(DatasetView, ViewOfUnlabeledDatasetHasNoLabels) {
  DatasetBuilder b({"f"});
  b.add_row({"x"});
  b.add_row({"y"});
  const Dataset ds = std::move(b).build();
  const std::vector<std::size_t> rows{1};
  const DatasetView view(ds, rows);
  EXPECT_FALSE(view.has_labels());
  EXPECT_TRUE(view.labels().empty());
}

TEST(Dataset, UnlabeledBuilderHasNoLabels) {
  DatasetBuilder b({"f"});
  b.add_row({"x"});
  b.add_row({"y"});
  const Dataset ds = std::move(b).build();
  EXPECT_FALSE(ds.has_labels());
  EXPECT_EQ(ds.num_classes(), 0);
}

}  // namespace
}  // namespace mcdc::data

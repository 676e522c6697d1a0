// The serving workload that test_serve and test_online share: Syn_n rows
// served by a frozen model over a fixed random k = 32 partition (Rng 42).
// Its labels vary from row to row, so a request answered with another
// row's label shows, and the model is built on the rows themselves, so
// they are already in its encoding and replay as they are.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "api/model.h"
#include "common/rng.h"
#include "data/dataset.h"
#include "data/synthetic.h"

namespace mcdc::test {

struct ServingCase {
  data::Dataset ds;
  std::shared_ptr<const api::Model> model;
  std::vector<data::Value> rows;  // row-major copy of ds
  std::vector<int> reference;     // bulk Model::predict(ds)

  std::size_t n() const { return ds.num_objects(); }
  std::size_t d() const { return ds.num_features(); }
  const data::Value* row(std::size_t i) const { return rows.data() + i * d(); }
};

inline ServingCase serving_case(std::size_t n) {
  constexpr int k = 32;
  ServingCase c{data::syn_n(n), nullptr, {}, {}};
  Rng rng(42);
  std::vector<int> assignment(n);
  for (int& l : assignment) l = static_cast<int>(rng.below(k));
  c.model = std::make_shared<const api::Model>(api::Model::from_fit(
      "random-k32", c.ds, assignment, k, {}, {}, /*refine=*/false));
  c.rows.resize(n * c.d());
  for (std::size_t i = 0; i < n; ++i) {
    c.ds.gather_row(i, c.rows.data() + i * c.d());
  }
  c.reference = c.model->predict(c.ds);
  return c;
}

}  // namespace mcdc::test

// Data-layer throughput: the columnar Dataset bank and zero-copy
// DatasetView sharding against the old row-gather / deep-copy paths.
//
//   bench_data [--smoke] [--strict] [--json [file]] [--n N] [--k K]
//              [--repeats R] [--shards W]
//
// --json writes the machine-readable record (default BENCH_data.json) in
// the common bench schema; its one gated ratio is column_vs_row_build,
// the profile-build speedup of the columnar sweep.
//
// Two measurements:
//
//   1. ProfileSet build. from_assignment() sweeps each dataset column
//      stride-1 and writes only that feature's cell block of the histogram
//      bank; the reference path is the pre-columnar shape — gather each row,
//      then ProfileSet::add() it, scattering d writes across the whole bank
//      per object. Both paths must produce identical banks (integral counts
//      are order-independent), and the column sweep must sustain >= 1.5x
//      the reference throughput at full size. The ratio hard-fails only
//      under --strict (the local acceptance run): shared CI runners make
//      timing ratios flaky, so CI reads the printed ratio informatively
//      while the deterministic checks (identical banks, views match
//      copies, zero materialised bytes) always gate.
//
//   2. Shard setup. Handing W workers DatasetViews over contiguous row
//      ranges vs materialising one Dataset::subset deep copy per worker.
//      The view path must copy exactly 0 bytes; the bench also reports the
//      copied-bytes volume the old path paid and checks that every view
//      reads cell-identical data to its materialised twin.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <numeric>
#include <vector>

#include "bench_io.h"
#include "common/cli.h"
#include "common/rng.h"
#include "common/timer.h"
#include "core/profile_set.h"
#include "data/synthetic.h"
#include "data/view.h"

namespace {

using namespace mcdc;

std::vector<int> random_assignment(std::size_t n, int k, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<int> labels(n);
  for (std::size_t i = 0; i < n; ++i) {
    labels[i] = static_cast<int>(rng.below(static_cast<std::uint64_t>(k)));
  }
  return labels;
}

// Pre-columnar build shape: row gather + per-object add() scatter.
core::ProfileSet build_row_wise(const data::Dataset& ds,
                                const std::vector<int>& assignment, int k) {
  core::ProfileSet set(ds.cardinalities(), k);
  std::vector<data::Value> row(ds.num_features());
  for (std::size_t i = 0; i < ds.num_objects(); ++i) {
    if (assignment[i] < 0) continue;
    ds.gather_row(i, row.data());
    set.add(assignment[i], row.data());
  }
  return set;
}

bool banks_equal(const core::ProfileSet& a, const core::ProfileSet& b) {
  if (a.num_clusters() != b.num_clusters() ||
      a.num_features() != b.num_features()) {
    return false;
  }
  for (int l = 0; l < a.num_clusters(); ++l) {
    if (a.size(l) != b.size(l)) return false;
    for (std::size_t r = 0; r < a.num_features(); ++r) {
      if (a.non_null(l, r) != b.non_null(l, r)) return false;
      for (data::Value v = 0; v < a.cardinalities()[r]; ++v) {
        if (a.count(l, r, v) != b.count(l, r, v)) return false;
      }
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) try {
  const Cli cli(argc, argv);
  const bool smoke = cli.has("smoke");
  const bool strict = cli.has("strict");
  const std::size_t n = static_cast<std::size_t>(
      cli.get_int("n", smoke ? 4000 : 200000));
  const int k = static_cast<int>(cli.get_int("k", 64));
  const int repeats = static_cast<int>(cli.get_int("repeats", smoke ? 2 : 5));
  const std::size_t shards =
      static_cast<std::size_t>(cli.get_int("shards", 8));

  const data::Dataset ds = data::syn_n(n);
  const std::size_t d = ds.num_features();
  const auto assignment = random_assignment(n, k, 42);
  std::printf("data layer bench, Syn_n n=%zu d=%zu k=%d (repeats=%d)\n", n, d,
              k, repeats);

  // --- 1. ProfileSet build: column sweep vs row gather+add ------------------
  core::ProfileSet column_bank, row_bank;
  Timer row_timer;
  for (int rep = 0; rep < repeats; ++rep) {
    row_bank = build_row_wise(ds, assignment, k);
  }
  const double t_row = row_timer.elapsed_seconds();
  Timer col_timer;
  for (int rep = 0; rep < repeats; ++rep) {
    column_bank = core::ProfileSet::from_assignment(ds, assignment, k);
  }
  const double t_col = col_timer.elapsed_seconds();

  const bool identical = banks_equal(column_bank, row_bank);
  const double rows = static_cast<double>(n) * repeats;
  const double speedup = t_col > 0.0 ? t_row / t_col : 0.0;
  std::printf("profile build  row-wise %12.0f rows/s   column %12.0f rows/s"
              "   speedup %5.2fx   banks identical: %s\n",
              rows / t_row, rows / t_col, speedup, identical ? "yes" : "NO");

  // --- 2. Shard setup: zero-copy views vs deep-copied subsets ---------------
  std::vector<std::vector<std::size_t>> shard_rows(shards);
  for (std::size_t w = 0; w < shards; ++w) {
    const std::size_t begin = w * n / shards;
    const std::size_t end = (w + 1) * n / shards;
    shard_rows[w].resize(end - begin);
    std::iota(shard_rows[w].begin(), shard_rows[w].end(), begin);
  }

  Timer copy_timer;
  std::vector<data::Dataset> copies;
  copies.reserve(shards);
  for (std::size_t w = 0; w < shards; ++w) {
    copies.push_back(ds.subset(shard_rows[w]));
  }
  const double t_copy = copy_timer.elapsed_seconds();
  const std::size_t copied_bytes = n * d * sizeof(data::Value);

  Timer view_timer;
  std::vector<data::DatasetView> views;
  views.reserve(shards);
  for (std::size_t w = 0; w < shards; ++w) {
    views.emplace_back(ds, shard_rows[w]);
  }
  const double t_view = view_timer.elapsed_seconds();
  const std::size_t view_bytes = 0;  // views borrow the owner's bank

  bool views_match = true;
  for (std::size_t w = 0; w < shards && views_match; ++w) {
    for (std::size_t i = 0; i < views[w].num_objects() && views_match; ++i) {
      for (std::size_t r = 0; r < d; ++r) {
        if (views[w].at(i, r) != copies[w].at(i, r)) {
          views_match = false;
          break;
        }
      }
    }
  }
  std::printf("shard setup    subset-copy %8.2f ms (%zu bytes)   view %8.3f "
              "ms (%zu bytes)   views match copies: %s\n",
              1e3 * t_copy, copied_bytes, 1e3 * t_view, view_bytes,
              views_match ? "yes" : "NO");

  if (!identical || !views_match) {
    std::fprintf(stderr, "FAIL: columnar paths disagree with reference\n");
    return 1;
  }
  if (view_bytes != 0) {
    std::fprintf(stderr, "FAIL: shard views materialised bytes\n");
    return 1;
  }
  std::printf("materialized bytes per shard: 0\n");
  std::printf("column build >= 1.5x row-wise: %s\n",
              speedup >= 1.5 ? "yes" : "NO");

  std::string json_path = cli.get("json", "");
  if (cli.has("json") && json_path.empty()) json_path = "BENCH_data.json";
  if (cli.has("json")) {
    api::Json doc = api::Json::object();
    doc["bench"] = std::string("data");
    doc["build"] = bench::build_info(smoke);
    api::Json workload = api::Json::object();
    workload["n"] = n;
    workload["d"] = d;
    workload["k"] = k;
    workload["repeats"] = repeats;
    workload["shards"] = shards;
    doc["workload"] = std::move(workload);
    api::Json metrics = api::Json::object();
    metrics["row_build_rows_ps"] = rows / t_row;
    metrics["column_build_rows_ps"] = rows / t_col;
    metrics["subset_copy_ms"] = 1e3 * t_copy;
    metrics["subset_copy_bytes"] = copied_bytes;
    metrics["view_setup_ms"] = 1e3 * t_view;
    metrics["view_bytes"] = view_bytes;
    doc["metrics"] = std::move(metrics);
    api::Json ratios = api::Json::object();
    ratios["column_vs_row_build"] = speedup;
    doc["ratios"] = std::move(ratios);
    if (!bench::write_json(json_path, doc)) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("record written to %s\n", json_path.c_str());
  }

  // Timing ratios hard-fail only under --strict on a full-size run (the
  // acceptance gate); everywhere else they are informative.
  if (strict && !smoke && speedup < 1.5) return 2;
  return 0;
} catch (const std::exception& error) {
  std::fprintf(stderr, "bench_data: %s\n", error.what());
  return 1;
}

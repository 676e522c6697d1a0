// Reproduces Fig. 4: ablation study — ARI of MCDC against its four ablated
// versions on the eight benchmark datasets.
//
//   MCDC   full pipeline
//   MCDC4  CAME weighting replaced by fixed identical weights
//   MCDC3  no CAME (MGCPL's coarsest partition is the answer)
//   MCDC2  conventional competitive learning, k*+2 initialisation
//   MCDC1  object-cluster-similarity partitional clustering (k* given)
//
//   bench_fig4_ablation [--runs N] [--paper] [--extra]
//
// --extra additionally ablates the design decisions DESIGN.md calls out:
// stage re-seeding (Alg. 1 line 3 literal reading) and the Lagrange CAME
// weight update.
#include <cstdio>
#include <exception>
#include <functional>
#include <iostream>

#include "common/cli.h"
#include "common/table_printer.h"
#include "core/mcdc.h"
#include "data/registry.h"
#include "metrics/indices.h"
#include "stats/summary.h"

int main(int argc, char** argv) try {
  using namespace mcdc;
  const Cli cli(argc, argv);
  const int runs =
      cli.has("paper") ? 50 : static_cast<int>(cli.get_int("runs", 5, 1));

  using Variant =
      std::function<baselines::ClusterResult(const data::Dataset&, int, std::uint64_t)>;
  std::vector<std::pair<std::string, Variant>> variants = {
      {"MCDC",
       [](const data::Dataset& ds, int k, std::uint64_t seed) {
         return core::McdcClusterer().cluster(ds, k, seed);
       }},
      {"MCDC4",
       [](const data::Dataset& ds, int k, std::uint64_t seed) {
         return core::mcdc_v4(ds, k, seed);
       }},
      {"MCDC3",
       [](const data::Dataset& ds, int k, std::uint64_t seed) {
         return core::mcdc_v3(ds, k, seed);
       }},
      {"MCDC2",
       [](const data::Dataset& ds, int k, std::uint64_t seed) {
         return core::mcdc_v2(ds, k, seed);
       }},
      {"MCDC1",
       [](const data::Dataset& ds, int k, std::uint64_t seed) {
         return core::mcdc_v1(ds, k, seed);
       }},
  };
  if (cli.has("extra")) {
    variants.push_back(
        {"MCDC/reseed", [](const data::Dataset& ds, int k, std::uint64_t seed) {
           core::McdcConfig config;
           config.mgcpl.reseed_each_stage = true;
           return core::McdcClusterer(config).cluster(ds, k, seed);
         }});
    variants.push_back(
        {"MCDC/lagrange", [](const data::Dataset& ds, int k, std::uint64_t seed) {
           core::McdcConfig config;
           config.came.weight_update = core::CameConfig::WeightUpdate::lagrange;
           return core::McdcClusterer(config).cluster(ds, k, seed);
         }});
  }

  std::printf("== Fig. 4: ablation study, ARI (%d runs) ==\n\n", runs);

  std::vector<std::string> headers = {"Data"};
  for (const auto& [name, fn] : variants) headers.push_back(name);
  TablePrinter table(std::move(headers));

  for (const auto& info : data::benchmark_roster()) {
    const auto ds = data::load(info.abbrev);
    std::vector<std::string> row = {info.abbrev};
    for (const auto& [name, variant] : variants) {
      stats::RunningStats ari;
      for (int run = 0; run < runs; ++run) {
        const auto result =
            variant(ds, info.k_star, 1000003ULL * static_cast<std::uint64_t>(run) + 17ULL);
        // Unlike Table III, the ablation scores the produced partition even
        // when its k differs (MCDC3's k_sigma may not equal k*) — that *is*
        // the comparison of interest.
        ari.add(metrics::adjusted_rand_index(result.labels, ds.labels()));
      }
      row.push_back(TablePrinter::mean_std_cell(ari.mean(), ari.stddev()));
    }
    table.add_row(std::move(row));
    std::fprintf(stderr, "[fig4] %s done\n", info.abbrev.c_str());
  }
  table.print(std::cout);
  std::printf(
      "\nexpected shape (paper): ARI of MCDC >= MCDC4 >= MCDC3 >= MCDC2 ~ "
      "MCDC1 on most datasets.\n");
  return 0;
} catch (const std::exception& error) {
  std::fprintf(stderr, "bench_fig4_ablation: %s\n", error.what());
  return 1;
}

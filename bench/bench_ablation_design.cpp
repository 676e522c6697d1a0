// Ablation of the library's *reading-of-the-paper* decisions (DESIGN.md §5)
// — not in the paper itself; this bench documents why each default was
// chosen by measuring the alternatives on the Table II roster.
//
// Dimensions ablated:
//   staircase    stage_drop_fraction in {0 (pass-cap only), 0.1, 0.3, 0.6}
//   delta0       initial_delta in {0.5 (default), 1.0 (Alg. 1 literal)}
//   rho          cumulative (default) vs frozen-per-sweep winning counts
//   penalty      rival's own similarity (default) vs winner's (Eq. 13 literal)
//   reseed       inherit survivors (default) vs fresh seeds per stage
//   came-init    density (default) vs random seeding
//
// For each variant: mean ARI across datasets/runs, mean sigma (granularity
// count) and mean |k_sigma - k*| — the three quantities the defaults were
// tuned against (Table III quality, Fig. 5 shape, k* recovery).
//
//   bench_ablation_design [--runs N] [--paper]
#include <cmath>
#include <cstdio>
#include <exception>
#include <iostream>
#include <vector>

#include "common/cli.h"
#include "common/table_printer.h"
#include "core/mcdc.h"
#include "data/registry.h"
#include "metrics/indices.h"
#include "stats/summary.h"

int main(int argc, char** argv) try {
  using namespace mcdc;
  const Cli cli(argc, argv);
  const int runs = cli.has("paper") ? 20 : cli.get_count("runs", 3);

  struct Variant {
    std::string name;
    core::McdcConfig config;
  };
  std::vector<Variant> variants;
  {
    Variant v;
    v.name = "default";
    variants.push_back(v);
    v.config = {};
    v.config.mgcpl.stage_drop_fraction = 0.0;
    v.name = "staircase: cap-only";
    variants.push_back(v);
    v.config = {};
    v.config.mgcpl.stage_drop_fraction = 0.1;
    v.name = "staircase: drop 0.1";
    variants.push_back(v);
    v.config = {};
    v.config.mgcpl.stage_drop_fraction = 0.6;
    v.name = "staircase: drop 0.6";
    variants.push_back(v);
    v.config = {};
    v.config.mgcpl.initial_delta = 1.0;
    v.name = "delta0 = 1 (literal)";
    variants.push_back(v);
    v.config = {};
    v.config.mgcpl.cumulative_rho = false;
    v.name = "rho: frozen per sweep";
    variants.push_back(v);
    v.config = {};
    v.config.mgcpl.penalty_uses_winner_similarity = true;
    v.name = "penalty: winner sim";
    variants.push_back(v);
    v.config = {};
    v.config.mgcpl.reseed_each_stage = true;
    v.name = "reseed each stage";
    variants.push_back(v);
    v.config = {};
    v.config.came.init = core::CameConfig::Init::random;
    v.name = "came: random init";
    variants.push_back(v);
  }

  const auto& roster = data::benchmark_roster();
  std::printf("== Design-decision ablation (%d runs x %zu datasets) ==\n\n",
              runs, roster.size());

  TablePrinter table({"Variant", "ARI", "sigma", "|k_sigma-k*|"});
  for (const auto& variant : variants) {
    stats::RunningStats ari;
    stats::RunningStats sigma;
    stats::RunningStats k_gap;
    for (const auto& info : roster) {
      const auto ds = data::load(info.abbrev);
      for (int run = 0; run < runs; ++run) {
        const auto seed = static_cast<std::uint64_t>(run) * 7919ULL + 1ULL;
        const auto mgcpl =
            core::Mgcpl(variant.config.mgcpl).run(ds, seed);
        sigma.add(static_cast<double>(mgcpl.sigma()));
        k_gap.add(std::fabs(static_cast<double>(mgcpl.final_k()) -
                            static_cast<double>(info.k_star)));
        const auto labels =
            core::McdcClusterer(variant.config).cluster(ds, info.k_star, seed);
        ari.add(labels.failed
                    ? 0.0
                    : metrics::adjusted_rand_index(labels.labels, ds.labels()));
      }
      std::fprintf(stderr, "[design] %-22s %s done\n", variant.name.c_str(),
                   info.abbrev.c_str());
    }
    table.add_row({variant.name, TablePrinter::num_cell(ari.mean()),
                   TablePrinter::num_cell(sigma.mean(), 1),
                   TablePrinter::num_cell(k_gap.mean(), 2)});
  }
  table.print(std::cout);
  std::printf(
      "\nexpected shape: the default dominates or matches each single-axis\n"
      "alternative on ARI while keeping sigma in the 2-5 range of the\n"
      "paper's Fig. 5 and |k_sigma - k*| small; delta0 = 1 (the literal\n"
      "Alg. 1 reset) freezes elimination, and the frozen-rho reading\n"
      "collapses k (DESIGN.md section 5).\n");
  return 0;
} catch (const std::exception& error) {
  std::fprintf(stderr, "bench_ablation_design: %s\n", error.what());
  return 1;
}

// Extended robustness study (not a paper artifact — it stress-tests the
// paper's robustness claim past the Table III protocol):
//
//   (a) corruption sweeps: ARI of MCDC vs k-modes and WOCIL under growing
//       value noise, missing-cell rates and distractor features
//       (data/noise.h) on three exactly-regenerated datasets;
//   (b) extension datasets: the Table III roster of methods on Zoo,
//       Soybean-small and Lymphography (data/uci_extra.h);
//   (c) a Friedman + Nemenyi analysis over the whole (a)+(b) grid, the
//       family-wise complement to the paper's pairwise Wilcoxon Table IV.
//
//   bench_ext_robustness [--runs N] [--paper]
#include <cstdio>
#include <exception>
#include <iostream>
#include <memory>
#include <vector>

#include "baselines/kmodes.h"
#include "baselines/wocil.h"
#include "common/cli.h"
#include "common/table_printer.h"
#include "core/mcdc.h"
#include "data/noise.h"
#include "data/registry.h"
#include "data/synthetic.h"
#include "data/uci_extra.h"
#include "metrics/indices.h"
#include "stats/friedman.h"
#include "stats/summary.h"

namespace {

using namespace mcdc;

double mean_ari(const baselines::Clusterer& method, const data::Dataset& ds,
                int k, int runs) {
  stats::RunningStats ari;
  for (int run = 0; run < runs; ++run) {
    const auto seed = static_cast<std::uint64_t>(run) * 104729ULL + 13ULL;
    const auto result = method.cluster(ds, k, seed);
    ari.add(result.failed
                ? 0.0
                : metrics::adjusted_rand_index(result.labels, ds.labels()));
  }
  return ari.mean();
}

}  // namespace

int main(int argc, char** argv) try {
  const Cli cli(argc, argv);
  const int runs =
      cli.has("paper") ? 20 : static_cast<int>(cli.get_int("runs", 3, 1));

  const core::McdcClusterer mcdc;
  const baselines::KModes kmodes;
  const baselines::Wocil wocil;
  const std::vector<const baselines::Clusterer*> methods = {&mcdc, &kmodes,
                                                            &wocil};

  // Every condition becomes one "dataset" block of the Friedman analysis.
  std::vector<std::vector<double>> friedman_scores(methods.size());

  // --- (a) corruption sweeps ------------------------------------------------
  // Sweep datasets need clean-data ARI well above zero for degradation to be
  // visible: a planted synthetic plus the two benchmark datasets with real
  // cluster-class alignment (Vot., Mus.). Car./Tic./Bal. sit at ARI ~ 0.05
  // even clean (Table III) and would only show noise.
  data::WellSeparatedConfig syn_config;
  syn_config.num_objects = 1000;
  syn_config.num_clusters = 4;
  syn_config.num_features = 10;
  syn_config.cardinality = 6;
  syn_config.purity = 0.85;
  syn_config.seed = 5;
  const auto syn = data::well_separated(syn_config);
  const std::vector<std::string> base_sets = {"Syn.", "Vot.", "Mus."};
  const auto load_base = [&](const std::string& abbrev) {
    return abbrev == "Syn." ? syn : data::load(abbrev);
  };
  struct Sweep {
    const char* name;
    std::vector<double> levels;
    data::Dataset (*apply)(const data::Dataset&, double, std::uint64_t);
  };
  const Sweep sweeps[] = {
      {"value noise p", {0.0, 0.1, 0.2, 0.3}, nullptr},
      {"missing rate p", {0.0, 0.1, 0.2, 0.3}, nullptr},
  };

  for (int sweep_id = 0; sweep_id < 2; ++sweep_id) {
    const Sweep& sweep = sweeps[sweep_id];
    std::printf("== robustness: %s (ARI, %d runs) ==\n", sweep.name, runs);
    TablePrinter table({"Data", "p", "MCDC", "K-MODES", "WOCIL"});
    for (const auto& abbrev : base_sets) {
      const auto ds = load_base(abbrev);
      const int k = ds.num_classes();
      for (double p : sweep.levels) {
        const auto corrupted = sweep_id == 0
                                   ? data::with_value_noise(ds, p, 42)
                                   : data::with_missing_cells(ds, p, 42);
        std::vector<std::string> row = {abbrev, TablePrinter::num_cell(p, 2)};
        for (std::size_t m = 0; m < methods.size(); ++m) {
          const double ari = mean_ari(*methods[m], corrupted, k, runs);
          friedman_scores[m].push_back(ari);
          row.push_back(TablePrinter::num_cell(ari));
        }
        table.add_row(std::move(row));
      }
      std::fprintf(stderr, "[robust] %s %s done\n", sweep.name,
                   abbrev.c_str());
    }
    table.print(std::cout);
    std::printf("\n");
  }

  // Distractor features sweep.
  {
    std::printf("== robustness: distractor features (ARI, %d runs) ==\n", runs);
    TablePrinter table({"Data", "extra d", "MCDC", "K-MODES", "WOCIL"});
    for (const auto& abbrev : base_sets) {
      const auto ds = load_base(abbrev);
      const int k = ds.num_classes();
      for (std::size_t extra : {std::size_t{0}, std::size_t{4}, std::size_t{8},
                                std::size_t{16}}) {
        const auto wide = data::with_distractor_features(ds, extra, 4, 42);
        std::vector<std::string> row = {abbrev, std::to_string(extra)};
        for (std::size_t m = 0; m < methods.size(); ++m) {
          const double ari = mean_ari(*methods[m], wide, k, runs);
          friedman_scores[m].push_back(ari);
          row.push_back(TablePrinter::num_cell(ari));
        }
        table.add_row(std::move(row));
      }
      std::fprintf(stderr, "[robust] distractors %s done\n", abbrev.c_str());
    }
    table.print(std::cout);
    std::printf("\n");
  }

  // --- (b) extension datasets -------------------------------------------------
  {
    std::printf("== extension datasets (ARI, %d runs) ==\n", runs);
    TablePrinter table({"Data", "MCDC", "K-MODES", "WOCIL"});
    for (const auto& info : data::extra_roster()) {
      const auto ds = data::load_extra(info.abbrev);
      std::vector<std::string> row = {info.abbrev};
      for (std::size_t m = 0; m < methods.size(); ++m) {
        const double ari = mean_ari(*methods[m], ds, info.k_star, runs);
        friedman_scores[m].push_back(ari);
        row.push_back(TablePrinter::num_cell(ari));
      }
      table.add_row(std::move(row));
    }
    table.print(std::cout);
    std::printf("\n");
  }

  // --- (c) Friedman + Nemenyi over every condition above -----------------------
  const auto friedman = stats::friedman_test(friedman_scores);
  std::printf("== Friedman over %zu conditions ==\n",
              friedman.num_datasets);
  const char* names[] = {"MCDC", "K-MODES", "WOCIL"};
  for (std::size_t m = 0; m < methods.size(); ++m) {
    std::printf("  %-8s average rank %.2f\n", names[m],
                friedman.average_ranks[m]);
  }
  std::printf("  chi2 = %.3f (p = %.4f), Iman-Davenport F = %.3f (p = %.4f)\n",
              friedman.chi_square, friedman.p_value, friedman.iman_davenport_f,
              friedman.iman_davenport_p);
  const auto nemenyi = stats::nemenyi_post_hoc(friedman, 0.05);
  std::printf("  Nemenyi critical difference (alpha 0.05): %.3f\n",
              nemenyi.critical_difference);
  for (std::size_t a = 0; a < methods.size(); ++a) {
    for (std::size_t b = a + 1; b < methods.size(); ++b) {
      if (nemenyi.significant[a][b]) {
        std::printf("  %s vs %s: significant\n", names[a], names[b]);
      }
    }
  }
  std::printf(
      "\nexpected shape: MCDC's ARI degrades gracefully with corruption and\n"
      "its average rank stays at or near the top across all conditions (the\n"
      "robustness the paper claims in Sec. I and IV-B).\n");
  return 0;
} catch (const std::exception& error) {
  std::fprintf(stderr, "bench_ext_robustness: %s\n", error.what());
  return 1;
}

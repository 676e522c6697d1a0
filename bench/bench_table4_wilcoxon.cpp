// Reproduces Table IV: two-tailed Wilcoxon signed-rank test (alpha = 0.1)
// of MCDC+F. against each counterpart, per validity index, paired over the
// eight benchmark datasets.
//
//   bench_table4_wilcoxon [--runs N] [--paper] [--alpha A]
//
// "+" = MCDC+F. significantly better; "-" = no significant difference
// (matching the paper's notation).
#include <cstdio>
#include <exception>
#include <iostream>

#include "harness.h"
#include "common/cli.h"
#include "common/table_printer.h"
#include "stats/wilcoxon.h"

int main(int argc, char** argv) try {
  using namespace mcdc;
  const Cli cli(argc, argv);
  const int runs =
      cli.has("paper") ? 50 : static_cast<int>(cli.get_int("runs", 5, 1));
  const double alpha = cli.get_double("alpha", 0.1);

  std::printf(
      "== Table IV: Wilcoxon signed-rank test, MCDC+F. vs counterparts "
      "(alpha = %.2f, %d runs) ==\n\n",
      alpha, runs);
  const auto grid = bench::run_table3_grid(runs);

  const std::string champion = "MCDC+F.";
  std::vector<std::string> counterparts = {"K-MODES", "ROCK",  "WOCIL",
                                           "FKMAWCW", "GUDMM", "ADC"};

  TablePrinter table({"Method", "ACC", "ARI", "AMI", "FM"});
  for (const auto& counterpart : counterparts) {
    std::vector<std::string> row = {counterpart};
    for (const auto& index : bench::index_names()) {
      std::vector<double> ours;
      std::vector<double> theirs;
      for (const auto& info : data::benchmark_roster()) {
        const auto& by_method = grid.at(info.abbrev);
        ours.push_back(bench::index_of(by_method.at(champion), index).mean());
        theirs.push_back(
            bench::index_of(by_method.at(counterpart), index).mean());
      }
      const auto test = stats::wilcoxon_signed_rank(ours, theirs);
      // "+" only when the difference is significant AND in our favour.
      const bool better = test.p_value < alpha && test.w_plus > test.w_minus;
      row.push_back(better ? "+" : "-");
    }
    table.add_row(std::move(row));
  }
  table.print(std::cout);

  std::printf("\nper-comparison p-values (ACC):\n");
  for (const auto& counterpart : counterparts) {
    std::vector<double> ours;
    std::vector<double> theirs;
    for (const auto& info : data::benchmark_roster()) {
      const auto& by_method = grid.at(info.abbrev);
      ours.push_back(by_method.at(champion).acc.mean());
      theirs.push_back(by_method.at(counterpart).acc.mean());
    }
    const auto test = stats::wilcoxon_signed_rank(ours, theirs);
    std::printf("  vs %-8s W = %4.1f  p = %.4f (%s)\n", counterpart.c_str(),
                test.statistic, test.p_value,
                test.exact ? "exact" : "normal approx.");
  }
  return 0;
} catch (const std::exception& error) {
  std::fprintf(stderr, "bench_table4_wilcoxon: %s\n", error.what());
  return 1;
}

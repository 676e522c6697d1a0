// Reproduces Table III: clustering performance (ACC / ARI / AMI / FM) of
// the nine methods on the eight benchmark datasets, mean +/- std over
// repeated runs.
//
//   bench_table3_clustering [--runs N] [--paper] [--verbose]
//
// --paper sets the paper's 50 repetitions (default 5, enough for stable
// means on these datasets since the strongest methods are deterministic).
#include <cstdio>
#include <exception>
#include <iostream>

#include "harness.h"
#include "common/cli.h"
#include "common/table_printer.h"
#include "common/timer.h"

int main(int argc, char** argv) try {
  using namespace mcdc;
  const Cli cli(argc, argv);
  const int runs =
      cli.has("paper") ? 50 : static_cast<int>(cli.get_int("runs", 5, 1));

  std::printf("== Table III: clustering performance (%d runs per cell) ==\n\n",
              runs);
  Timer timer;
  const auto grid = bench::run_table3_grid(runs, cli.has("verbose"));

  const auto methods = bench::paper_roster();
  for (const auto& index : bench::index_names()) {
    std::vector<std::string> headers = {"Index", "Data"};
    for (const auto& m : methods) headers.push_back(m->name());
    TablePrinter table(std::move(headers));
    for (const auto& info : data::benchmark_roster()) {
      std::vector<std::string> row = {index, info.abbrev};
      const auto& by_method = grid.at(info.abbrev);
      for (const auto& m : methods) {
        const auto& cell = bench::index_of(by_method.at(m->name()), index);
        row.push_back(TablePrinter::mean_std_cell(cell.mean(), cell.stddev()));
      }
      table.add_row(std::move(row));
    }
    table.print(std::cout);
    std::printf("\n");
  }

  std::printf("total time: %.1fs\n", timer.elapsed_seconds());
  std::printf(
      "note: Bal./Tic./Car./Nur. are exact or rule-model regenerations of "
      "the UCI data;\nCon./Vot./Che./Mus. are statistical simulations "
      "(DESIGN.md section 4), so compare\nmethod ordering and stability with "
      "the paper, not absolute values.\n");
  return 0;
} catch (const std::exception& error) {
  std::fprintf(stderr, "bench_table3_clustering: %s\n", error.what());
  return 1;
}

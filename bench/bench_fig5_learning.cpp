// Reproduces Fig. 5: the numbers of clusters kappa = {k_1 ... k_sigma}
// learned by MGCPL on each benchmark dataset, against the true k*.
//
//   bench_fig5_learning [--seed S]
//
// Output mirrors the figure: for each dataset, the series of ks at every
// temporary convergence (x = 0 is the initial k0), with the k* marker.
#include <cstdio>
#include <exception>

#include "common/cli.h"
#include "core/mgcpl.h"
#include "data/registry.h"

int main(int argc, char** argv) try {
  using namespace mcdc;
  const Cli cli(argc, argv);
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));

  std::printf("== Fig. 5: cluster numbers learned by MGCPL (seed %llu) ==\n\n",
              static_cast<unsigned long long>(seed));
  std::printf("%-6s %-5s %-28s %s\n", "Data", "k*", "kappa (k0 -> ... -> k_sigma)",
              "match");
  for (const auto& info : data::benchmark_roster()) {
    const auto ds = data::load(info.abbrev);
    const auto result = core::Mgcpl().run(ds, seed);

    char series[256];
    int offset = std::snprintf(series, sizeof(series), "%d", result.k0);
    for (int k : result.kappa) {
      offset += std::snprintf(series + offset, sizeof(series) - static_cast<std::size_t>(offset),
                              " -> %d", k);
      if (offset >= static_cast<int>(sizeof(series)) - 8) break;
    }
    std::printf("%-6s %-5d %-28s %s\n", info.abbrev.c_str(), info.k_star,
                series,
                result.final_k() == info.k_star       ? "k_sigma = k*"
                : std::abs(result.final_k() - info.k_star) <= 1
                    ? "k_sigma = k* +/- 1"
                    : "");
  }
  std::printf(
      "\nexpected shape (paper): a decreasing staircase per dataset whose "
      "final value\nlands on (or immediately next to) the red-star k*.\n");
  return 0;
} catch (const std::exception& error) {
  std::fprintf(stderr, "bench_fig5_learning: %s\n", error.what());
  return 1;
}

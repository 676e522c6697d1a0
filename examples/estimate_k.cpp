// Estimating the number of clusters without prior knowledge — the problem
// the paper's Fig. 5 addresses ("MGCPL is competent in searching for the
// optimal number of clusters k* without prior clustering knowledge").
//
// Fits every built-in benchmark dataset through the api facade with k = 0:
// the Engine reads k off the granularity staircase (blended silhouette +
// persistence rule) and the RunReport carries the staircase plus per-stage
// evidence. The paper's own rule — always take the coarsest granularity
// k_sigma — is simply the last staircase entry, so both estimates come out
// of one structured report.
//
//   ./estimate_k [--seed S]
#include <cmath>
#include <cstdio>
#include <exception>
#include <string>

#include "api/engine.h"
#include "common/cli.h"
#include "data/registry.h"

int main(int argc, char** argv) try {
  using namespace mcdc;
  const Cli cli(argc, argv);

  api::FitOptions options;
  options.k = 0;  // estimate from the staircase
  options.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  options.evaluate = false;
  const api::Engine engine;

  std::printf("%-6s %-4s %-22s %-10s %-10s\n", "data", "k*", "staircase",
              "blended k", "k_sigma");
  int blended_hits = 0;
  int coarsest_hits = 0;
  const auto& roster = data::benchmark_roster();
  api::RunReport car_report;  // detail view, filled in the sweep
  for (const auto& info : roster) {
    const auto ds = data::load(info.abbrev);
    const api::FitResult fit = engine.fit(ds, options);
    if (!fit.ok()) {
      std::printf("%-6s %-4d fit failed: %s\n", info.abbrev.c_str(),
                  info.k_star, fit.status.message.c_str());
      continue;
    }
    const api::RunReport& report = fit.report;
    if (info.abbrev == "Car.") car_report = report;

    std::string staircase;
    for (int k : report.kappa) {
      if (!staircase.empty()) staircase += ">";
      staircase += std::to_string(k);
    }
    const int blended_k = report.k;
    const int coarsest_k = report.kappa.empty() ? 0 : report.kappa.back();
    std::printf("%-6s %-4d %-22s %-10d %-10d\n", info.abbrev.c_str(),
                info.k_star, staircase.c_str(), blended_k, coarsest_k);
    if (std::abs(blended_k - info.k_star) <= 1) ++blended_hits;
    if (std::abs(coarsest_k - info.k_star) <= 1) ++coarsest_hits;
  }
  std::printf("\nwithin k* +/- 1: blended %d/%zu, paper's k_sigma rule "
              "%d/%zu\n",
              blended_hits, roster.size(), coarsest_hits, roster.size());

  // Per-stage evidence on one dataset, the detail view a practitioner
  // would inspect before committing to a k — straight from the RunReport.
  std::printf("\nper-stage evidence on Car. (k* = 4):\n");
  std::printf("%-6s %-5s %-12s %-12s\n", "stage", "k", "silhouette",
              "persistence");
  for (const api::StageValidity& stage : car_report.stages) {
    std::printf("%-6d %-5d %-12.3f %-12.3f%s\n", stage.stage, stage.k,
                stage.silhouette, stage.persistence,
                stage.k == car_report.k ? "  <-" : "");
  }
  return 0;
} catch (const std::exception& error) {
  std::fprintf(stderr, "estimate_k: %s\n", error.what());
  return 1;
}

// Anomaly detection with micro-clusters — the paper's first motivating
// application (Sec. I: clustering as a learner for "anomaly detection").
//
// Scenario: a fleet of compute nodes described by categorical features
// (the Fig. 1 schema). Most nodes follow one of a few configuration
// profiles; a handful were misconfigured by hand and match no profile.
// MGCPL's finest granularity isolates them in tiny, loosely-bound
// micro-clusters, and core/anomaly.h turns that into a ranked watchlist.
//
//   ./anomaly_detection [--nodes N] [--outliers O] [--seed S]
#include <cstdio>
#include <exception>
#include <set>
#include <string>
#include <vector>

#include "common/cli.h"
#include "common/rng.h"
#include "core/anomaly.h"
#include "core/mgcpl.h"
#include "data/dataset.h"

namespace {

using namespace mcdc;

// Fleet generator: healthy nodes draw one of four config profiles with
// small per-feature drift; misconfigured nodes draw every feature uniformly.
data::Dataset make_fleet(std::size_t nodes, std::size_t outliers,
                         std::uint64_t seed,
                         std::set<std::size_t>* outlier_rows) {
  const std::vector<std::string> gpu = {"A100", "H100", "L4", "T4"};
  const std::vector<std::string> level = {"low", "mid", "high"};
  const std::vector<std::string> net = {"10G", "25G", "100G"};
  const std::vector<std::string> disk = {"ssd", "nvme", "hdd"};
  const std::vector<std::string> zone = {"eu", "us", "ap"};

  struct Profile {
    std::size_t gpu, usage, mem, net, disk, zone;
  };
  const std::vector<Profile> profiles = {
      {0, 2, 2, 2, 1, 1},  // training pool: H100-class, busy, 100G
      {1, 2, 1, 2, 1, 0},
      {2, 1, 1, 1, 0, 2},  // inference pool
      {3, 0, 0, 0, 2, 1},  // batch/spot pool
  };

  Rng rng(seed);
  data::DatasetBuilder builder(
      {"gpu_type", "gpu_usage", "mem_usage", "network", "disk", "zone"});
  std::vector<bool> is_outlier(nodes, false);
  for (std::size_t o : rng.sample_without_replacement(nodes, outliers)) {
    is_outlier[o] = true;
  }

  for (std::size_t i = 0; i < nodes; ++i) {
    std::vector<std::string> row(6);
    if (is_outlier[i]) {
      row[0] = gpu[rng.below(gpu.size())];
      row[1] = level[rng.below(level.size())];
      row[2] = level[rng.below(level.size())];
      row[3] = net[rng.below(net.size())];
      row[4] = disk[rng.below(disk.size())];
      row[5] = zone[rng.below(zone.size())];
      outlier_rows->insert(i);
    } else {
      const Profile& p = profiles[rng.below(profiles.size())];
      auto drift = [&](std::size_t value, std::size_t m) {
        return rng.bernoulli(0.06) ? rng.below(m) : value;
      };
      row[0] = gpu[drift(p.gpu, gpu.size())];
      row[1] = level[drift(p.usage, level.size())];
      row[2] = level[drift(p.mem, level.size())];
      row[3] = net[drift(p.net, net.size())];
      row[4] = disk[drift(p.disk, disk.size())];
      row[5] = zone[drift(p.zone, zone.size())];
    }
    builder.add_row(row);
  }
  return std::move(builder).build();
}

}  // namespace

int main(int argc, char** argv) try {
  const Cli cli(argc, argv);
  const auto nodes = static_cast<std::size_t>(cli.get_int("nodes", 2000));
  const auto outliers = static_cast<std::size_t>(cli.get_int("outliers", 12));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));

  std::set<std::size_t> planted;
  const auto fleet = make_fleet(nodes, outliers, seed, &planted);
  std::printf("fleet: %zu nodes, %zu misconfigured (hidden)\n",
              fleet.num_objects(), planted.size());

  // 1. Multi-granular analysis.
  const auto mgcpl = core::Mgcpl().run(fleet, seed);
  std::printf("MGCPL granularities:");
  for (int k : mgcpl.kappa) std::printf(" %d", k);
  std::printf("\n");

  // 2. Anomaly scores from micro-cluster rarity + eccentricity.
  const auto result = core::score_anomalies(fleet, mgcpl);

  // 3. Report the watchlist (top 1%) and how much of the planted set the
  //    ranking recovers.
  const auto watchlist = result.top_fraction(0.01);
  std::size_t hits = 0;
  for (std::size_t i : watchlist) hits += planted.count(i);
  std::printf("\nwatchlist (top 1%% = %zu nodes): %zu of %zu planted "
              "misconfigurations caught\n",
              watchlist.size(), hits, planted.size());
  std::printf("%-8s %-8s %s\n", "node", "score", "planted?");
  for (std::size_t w = 0; w < watchlist.size() && w < 15; ++w) {
    const std::size_t i = watchlist[w];
    std::printf("%-8zu %-8.4f %s\n", i, result.scores[i],
                planted.count(i) ? "yes" : "");
  }

  // Recall at increasing review budgets — the curve an operator cares
  // about: how many nodes must be inspected to find all misconfigurations.
  std::printf("\nreview budget -> planted found:\n");
  for (double fraction : {0.005, 0.01, 0.02, 0.05}) {
    const auto budget = result.top_fraction(fraction);
    std::size_t found = 0;
    for (std::size_t i : budget) found += planted.count(i);
    std::printf("  top %4.1f%% (%4zu nodes): %zu / %zu\n", fraction * 100.0,
                budget.size(), found, planted.size());
  }
  return 0;
} catch (const std::exception& error) {
  std::fprintf(stderr, "anomaly_detection: %s\n", error.what());
  return 1;
}

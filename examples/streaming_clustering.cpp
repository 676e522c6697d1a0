// Streaming categorical clustering — the paper's future-work direction 2.
//
// A stream of categorical objects arrives in chunks; the streaming MGCPL
// learner maintains a bounded set of live clusters, estimates their number
// on the fly, and (with decay enabled) tracks concept drift. The example
// streams two regimes: three workload profiles, then an abrupt switch to a
// different two-profile mix — and shows the learner following the change.
#include <cstdio>
#include <vector>

#include "core/streaming.h"
#include "data/synthetic.h"
#include "metrics/indices.h"

namespace {

mcdc::data::Dataset regime(int num_clusters, std::uint64_t seed) {
  mcdc::data::WellSeparatedConfig config;
  config.num_objects = 500;
  config.num_features = 8;
  config.num_clusters = num_clusters;
  config.cardinality = 6;
  config.purity = 0.97;
  config.seed = seed;
  return mcdc::data::well_separated(config);
}

}  // namespace

int main() {
  using namespace mcdc;

  const auto schema_probe = regime(3, 1);
  core::StreamingConfig config;
  config.decay = 0.35;  // forget old structure; follow the stream
  core::StreamingMgcpl learner(schema_probe.cardinalities(), config);

  std::printf("chunk  regime        live-k  AMI(vs regime labels)\n");
  std::vector<std::size_t> live_k;
  for (int chunk = 0; chunk < 10; ++chunk) {
    // Chunks 0-4: three profiles; chunks 5-9: two different profiles.
    const bool phase1 = chunk < 5;
    const auto data = regime(phase1 ? 3 : 2,
                             static_cast<std::uint64_t>(chunk) + (phase1 ? 100 : 900));
    learner.observe_chunk(data);
    live_k.push_back(learner.num_clusters());
    if (learner.num_clusters() == 0) {
      // classify() reports -1 per row when every cluster was pruned (no
      // structure to assign to) — nothing to score against ground truth.
      std::printf("%-6d %-13s %-7zu (no live clusters)\n", chunk,
                  phase1 ? "3 profiles" : "2 profiles",
                  learner.num_clusters());
      continue;
    }
    const auto labels = learner.classify(data);
    std::printf("%-6d %-13s %-7zu %.3f\n", chunk,
                phase1 ? "3 profiles" : "2 profiles", learner.num_clusters(),
                metrics::adjusted_mutual_information(labels, data.labels()));
  }

  std::printf("\nlive cluster-count history:");
  for (const std::size_t k : live_k) std::printf(" %zu", k);
  std::printf(
      "\n\nThe learner settles at the regime's true cluster count in each "
      "phase and\nre-converges after the drift — no restarts, bounded "
      "memory.\n");
  return 0;
}

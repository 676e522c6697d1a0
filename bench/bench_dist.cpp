// Distributed-deployment bench (Sec. III-D): speedup and communication
// volume of the shard -> local-learn -> merge protocol as the shard count
// grows, plus the pre-partitioner's locality advantage over round-robin.
//
//   bench_dist [--smoke] [--json [file]] [--n N] [--repeats R]
//              [--max-shards W]
//
// Two tables:
//   1. DistributedMcdc on Syn-style well-separated data: wall-clock of the
//      parallel protocol, the modelled sequential cost of the same work,
//      the resulting speedup, sketch-vs-raw communication, and clustering
//      quality (ARI) — quality must not degrade as shards are added.
//   2. MicroClusterPartitioner vs round_robin_shards on nested data:
//      micro/coarse locality and the communication volume each sharding
//      would incur.
//
// --smoke shrinks the workload for CI. --json writes the machine-readable
// record (default BENCH_dist.json); both gated ratios are deterministic
// functions of the workload, never of the clock — sketch_compression
// (raw cells / sketch cells at the deepest shard count) and
// locality_vs_round_robin (guided micro-locality over round-robin's) —
// so the record travels across runners without timing flake.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <vector>

#include "bench_io.h"
#include "common/cli.h"
#include "common/timer.h"
#include "core/mgcpl.h"
#include "data/synthetic.h"
#include "dist/distributed_mcdc.h"
#include "dist/prepartition.h"
#include "metrics/indices.h"
#include "stats/summary.h"

namespace {

using namespace mcdc;

// Deterministic evidence from the deepest-shard runs, for the record.
struct DistEvidence {
  std::size_t sketch_cells = 0;
  std::size_t raw_cells = 0;
  double ari = 0.0;
  double guided_locality = 0.0;
  double round_robin_locality = 0.0;
  std::size_t guided_comm = 0;
  std::size_t round_robin_comm = 0;
};

void bench_protocol(std::size_t n, int repeats, int max_shards,
                    DistEvidence& evidence) {
  data::WellSeparatedConfig config;
  config.num_objects = n;
  config.num_clusters = 4;
  config.cardinality = 6;
  config.purity = 0.93;
  const auto ds = data::well_separated(config);

  std::printf("DistributedMcdc on well-separated %zu x %zu (k* = 4)\n",
              ds.num_objects(), ds.num_features());
  std::printf("%-8s %-12s %-12s %-9s %-14s %-8s\n", "shards", "parallel(s)",
              "sequent.(s)", "speedup", "sketch/raw", "ARI");
  for (int shards = 1; shards <= max_shards; shards *= 2) {
    stats::RunningStats parallel, sequential, ari;
    std::size_t sketch_cells = 0, raw_cells = 0, materialized = 0;
    for (int r = 0; r < repeats; ++r) {
      dist::DistributedConfig dc;
      dc.num_workers = shards;
      const auto result = dist::DistributedMcdc(dc).cluster(
          ds, 4, static_cast<std::uint64_t>(r) + 1);
      parallel.add(result.parallel_time);
      sequential.add(result.sequential_time);
      ari.add(metrics::adjusted_rand_index(result.labels, ds.labels()));
      sketch_cells = result.sketch_cells;
      raw_cells = result.raw_cells;
      materialized += result.materialized_bytes;
    }
    if (materialized != 0) {
      std::fprintf(stderr, "FAIL: shard setup materialised %zu bytes\n",
                   materialized);
      std::exit(1);
    }
    std::printf("%-8d %-12.4f %-12.4f %-9.2f %7zu/%-7zu %-8.3f\n", shards,
                parallel.mean(), sequential.mean(),
                parallel.mean() > 0.0 ? sequential.mean() / parallel.mean()
                                      : 0.0,
                sketch_cells, raw_cells, ari.mean());
    evidence.sketch_cells = sketch_cells;
    evidence.raw_cells = raw_cells;
    evidence.ari = ari.mean();
  }
  std::printf("bytes materialised per shard setup: 0 (zero-copy views)\n");
}

void bench_prepartition(std::size_t n, int max_shards,
                        DistEvidence& evidence) {
  data::NestedConfig config;
  config.num_objects = n;
  config.num_coarse = 4;
  config.fine_per_coarse = 3;
  config.cardinality = 12;
  const auto nd = data::nested(config);
  const auto analysis = core::Mgcpl().run(nd.dataset, 1);
  const auto& micro = analysis.partitions.front();

  std::printf("\nMicroClusterPartitioner vs round-robin on nested %zu x %zu\n",
              nd.dataset.num_objects(), nd.dataset.num_features());
  std::printf("%-8s %-14s %-14s %-12s %-12s %-10s\n", "shards", "micro-loc.",
              "rr micro-loc.", "comm.vol.", "rr comm.", "balance");
  for (int shards = 2; shards <= max_shards; shards *= 2) {
    dist::PrepartitionConfig pc;
    pc.num_shards = shards;
    Timer timer;
    const auto guided = dist::MicroClusterPartitioner(pc).partition(analysis);
    const double seconds = timer.elapsed_seconds();
    const auto rr = dist::round_robin_shards(micro.size(), shards);
    std::printf("%-8d %-14.3f %-14.3f %-12zu %-12zu %-10.3f (%.4fs)\n",
                shards, guided.micro_locality, dist::locality_of(rr, micro),
                dist::communication_volume(guided.shard, micro),
                dist::communication_volume(rr, micro), guided.balance,
                seconds);
    evidence.guided_locality = guided.micro_locality;
    evidence.round_robin_locality = dist::locality_of(rr, micro);
    evidence.guided_comm = dist::communication_volume(guided.shard, micro);
    evidence.round_robin_comm = dist::communication_volume(rr, micro);
  }
}

}  // namespace

int main(int argc, char** argv) try {
  const Cli cli(argc, argv);
  const bool smoke = cli.has("smoke");
  const auto n =
      static_cast<std::size_t>(cli.get_int("n", smoke ? 4000 : 20000));
  const int repeats = static_cast<int>(cli.get_int("repeats", smoke ? 1 : 3));
  const int max_shards =
      static_cast<int>(cli.get_int("max-shards", smoke ? 8 : 16));

  DistEvidence evidence;
  bench_protocol(n, repeats, max_shards, evidence);
  bench_prepartition(n, max_shards, evidence);

  const double sketch_compression =
      evidence.sketch_cells > 0
          ? static_cast<double>(evidence.raw_cells) /
                static_cast<double>(evidence.sketch_cells)
          : 0.0;
  const double locality_ratio =
      evidence.round_robin_locality > 0.0
          ? evidence.guided_locality / evidence.round_robin_locality
          : 0.0;
  std::printf("\nsketch compression at %d shards: %.2fx raw\n", max_shards,
              sketch_compression);
  std::printf("guided vs round-robin micro-locality: %.2fx\n", locality_ratio);

  std::string json_path = cli.get("json", "");
  if (cli.has("json") && json_path.empty()) json_path = "BENCH_dist.json";
  if (cli.has("json")) {
    api::Json doc = api::Json::object();
    doc["bench"] = std::string("dist");
    doc["build"] = bench::build_info(smoke);
    api::Json workload = api::Json::object();
    workload["n"] = n;
    workload["repeats"] = repeats;
    workload["max_shards"] = max_shards;
    doc["workload"] = std::move(workload);
    api::Json metrics = api::Json::object();
    metrics["sketch_cells"] = evidence.sketch_cells;
    metrics["raw_cells"] = evidence.raw_cells;
    metrics["ari"] = evidence.ari;
    metrics["guided_locality"] = evidence.guided_locality;
    metrics["round_robin_locality"] = evidence.round_robin_locality;
    metrics["guided_comm_volume"] = evidence.guided_comm;
    metrics["round_robin_comm_volume"] = evidence.round_robin_comm;
    doc["metrics"] = std::move(metrics);
    api::Json ratios = api::Json::object();
    ratios["sketch_compression"] = sketch_compression;
    ratios["locality_vs_round_robin"] = locality_ratio;
    doc["ratios"] = std::move(ratios);
    if (!bench::write_json(json_path, doc)) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("record written to %s\n", json_path.c_str());
  }
  return 0;
} catch (const std::exception& error) {
  std::fprintf(stderr, "bench_dist: %s\n", error.what());
  return 1;
}

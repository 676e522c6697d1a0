// Micro-benchmarks (google-benchmark) for the hot paths behind the paper's
// complexity analysis: object-cluster similarity, profile maintenance, one
// competitive sweep, one CAME iteration, and the validity indices.
#include <benchmark/benchmark.h>

#include "core/came.h"
#include "core/competitive.h"
#include "core/encoding.h"
#include "core/mgcpl.h"
#include "core/profile_set.h"
#include "data/synthetic.h"
#include "metrics/indices.h"

namespace {

using namespace mcdc;

const data::Dataset& bench_data() {
  static const data::Dataset ds = [] {
    data::WellSeparatedConfig config;
    config.num_objects = 10000;
    config.num_features = 16;
    config.num_clusters = 8;
    config.cardinality = 8;
    return data::well_separated(config);
  }();
  return ds;
}

// The single-cluster paths run on a k = 1 bank: the cost of one Eq. (1)
// or Eq. (14) evaluation and one O(d) membership update.
core::ProfileSet one_cluster(const data::Dataset& ds, std::size_t members) {
  core::ProfileSet profile(ds.cardinalities(), 1);
  for (std::size_t i = 0; i < members; ++i) profile.add(0, ds.row(i));
  return profile;
}

void BM_SimilarityEq1(benchmark::State& state) {
  const auto& ds = bench_data();
  const core::ProfileSet profile = one_cluster(ds, 1000);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(profile.score_one(0, ds.row(i)));
    i = (i + 1) % ds.num_objects();
  }
}
BENCHMARK(BM_SimilarityEq1);

void BM_WeightedSimilarityEq14(benchmark::State& state) {
  const auto& ds = bench_data();
  const core::ProfileSet profile = one_cluster(ds, 1000);
  const std::vector<double> weights(ds.num_features(),
                                    1.0 / static_cast<double>(ds.num_features()));
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        profile.weighted_score_one(0, ds.row(i), weights));
    i = (i + 1) % ds.num_objects();
  }
}
BENCHMARK(BM_WeightedSimilarityEq14);

void BM_ProfileAddRemove(benchmark::State& state) {
  const auto& ds = bench_data();
  core::ProfileSet profile = one_cluster(ds, 1);
  std::size_t i = 1;
  for (auto _ : state) {
    profile.add(0, ds.row(i));
    profile.remove(0, ds.row(i));
    i = (i + 1) % ds.num_objects();
    if (i == 0) i = 1;
  }
}
BENCHMARK(BM_ProfileAddRemove);

void BM_CompetitiveSweep(benchmark::State& state) {
  const auto& ds = bench_data();
  const auto k = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<std::size_t> seeds;
    for (std::size_t s = 0; s < k; ++s) seeds.push_back(s * 11);
    core::StageConfig config;
    config.max_passes = 1;
    core::CompetitiveStage stage(ds, seeds, config);
    state.ResumeTiming();
    stage.run();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(ds.num_objects()));
}
BENCHMARK(BM_CompetitiveSweep)->Arg(16)->Arg(64);

void BM_CameIteration(benchmark::State& state) {
  const auto& ds = bench_data();
  const auto analysis = core::Mgcpl().run(ds, 1);
  const auto embedding = core::encode_gamma(analysis);
  core::CameConfig config;
  config.max_iterations = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::Came(config).run(embedding, 8));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(ds.num_objects()));
}
BENCHMARK(BM_CameIteration);

void BM_AccuracyHungarian(benchmark::State& state) {
  const auto& ds = bench_data();
  const auto analysis = core::Mgcpl().run(ds, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        metrics::accuracy(analysis.final_partition(), ds.labels()));
  }
}
BENCHMARK(BM_AccuracyHungarian);

void BM_AdjustedMutualInformation(benchmark::State& state) {
  const auto& ds = bench_data();
  const auto analysis = core::Mgcpl().run(ds, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(metrics::adjusted_mutual_information(
        analysis.final_partition(), ds.labels()));
  }
}
BENCHMARK(BM_AdjustedMutualInformation);

}  // namespace

BENCHMARK_MAIN();

// mcdc — command-line front end to the library, built on the api facade
// (api/engine.h): one registry of clustering methods, one fit entry point,
// one structured report.
//
//   mcdc methods [key]
//       Lists every registered clustering algorithm (baselines, MCDC, the
//       MCDC1-4 ablations, MCDC+X boosted variants). With a key, prints
//       that method's parameter schema.
//   mcdc cluster <data> [--method NAME] [--k K] [--seed S] [--shards W]
//                [--params k1=v1,k2=v2] [--out labels.csv] [--json report.json]
//       Fits any registered method (default: mcdc). <data> is a built-in
//       dataset name (see `mcdc datasets`) or a CSV file. Without --k, the
//       number of clusters is estimated from the multi-granular staircase.
//       --shards W runs the Sec. III-D distributed protocol (method
//       "mcdc-dist") over W worker shards; the report then carries sketch
//       traffic and parallel-vs-sequential timings. --json writes the full
//       RunReport plus the fitted model; a saved model can later score
//       unseen rows (see docs/API.md).
//   mcdc predict <model.json|model.bin> <data> [--out labels.csv]
//       Loads a fitted model from a --json report or a binary artifact and
//       assigns the rows of <data> to its clusters via the NULL-aware
//       similarity.
//   mcdc serve <model.json|model.bin|data> --replay <data> [--shards N]
//              [--routing hash|locality] [--artifact model.bin]
//              [--producers N] [--batch B] [--repeat R] [--swap-every-ms M]
//              [--learn] [--learner streaming|mcdc-online] [--tick-every T]
//              [--window W] [--drift-threshold F] [--drift-inject F]
//              [--drift-strength S] [--detector SPEC] [--trigger-k K]
//              [--expect-no-refit] [--out labels.csv] [--json report.json]
//       Spins up the concurrent serving layer on a saved model (a .json
//       report or .bin artifact) or on a fresh fit of <data> (then
//       --method/--k/--seed/--params apply) and replays the rows of the
//       --replay trace as single-row requests from N producer threads,
//       coalesced into batched sweeps of up to B rows. --shards N serves
//       through a serve::ServingCluster of N ModelServer shards (--routing
//       picks consistent hashing or cluster-mode locality); without it, a
//       single ModelServer. --swap-every-ms hot-reloads the snapshot (or
//       rolls it across the shards) mid-traffic to exercise the swap path.
//       --artifact exports the served model as a binary artifact before
//       traffic starts. Prints throughput, batch occupancy, p50/p99/p99.9
//       latency, swap count and (cluster) the routed-per-shard histogram;
//       --json writes the report with the serving evidence.
//       --learn switches to the continuous-learning loop (docs/API.md,
//       "Online learning"): each replayed row is served off the live
//       snapshot, then fed to a serve::OnlineUpdater whose drift-triggered
//       refits and incremental swaps publish back mid-traffic. --learner
//       picks the learner behind the loop, --tick-every/--window/
//       --drift-threshold tune the cadence, and --detector SPEC selects
//       the drift-detector bank (mean|hist|ph|quantile, a comma list, or
//       ensemble; --trigger-k K refits when K of the voting detectors
//       fire on one tick). --drift-inject F shifts value codes
//       (v -> (v+1) mod cardinality) after the first F fraction of
//       requests — an abrupt, deterministic concept drift the detectors
//       must catch — and --drift-strength S confines the shift to the
//       first ceil(S * d) features, so a weak injection can prove which
//       detectors actually see it. The exit code reports whether the
//       served snapshot recovered (refitted, and re-partitioned the
//       drifted window like a from-scratch refit would); with
//       --expect-no-refit the verdict inverts — the run passes only if
//       the configured bank slept through the injection (the sensitivity
//       control the acceptance tests pair with an ensemble run).
//   mcdc explore  <data> [--seed S] [--newick]
//       Prints the granularity staircase kappa, per-stage internal validity
//       and the nested-cluster dendrogram.
//   mcdc anomalies <data> [--top F] [--seed S]
//       Ranks objects by micro-cluster anomaly score; prints the top
//       fraction F (default 0.05).
//   mcdc datasets
//       Lists the built-in benchmark datasets (Table II + extensions).
//   mcdc generate <abbrev> [--out file.csv] [--seed S]
//       Materialises a built-in dataset as CSV (label in the last column).
//
// CSV conventions: no header row, last column = class label (use
// --no-labels when the file has none), '?' = missing value.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.h"
#include "api/load.h"
#include "common/cli.h"
#include "core/anomaly.h"
#include "core/dendrogram.h"
#include "core/kestimate.h"
#include "core/mgcpl.h"
#include "data/csv.h"
#include "data/registry.h"
#include "data/uci_extra.h"
#include "metrics/indices.h"
#include "serve/cluster.h"

namespace {

using namespace mcdc;

int usage() {
  std::fprintf(stderr,
               "usage: mcdc <methods|cluster|predict|serve|explore|anomalies|"
               "datasets|generate> [args]\n  run 'mcdc <command>' without "
               "arguments for command-specific help\n");
  return 2;
}

api::LoadedDataset load_input(const Cli& cli, std::size_t positional_index) {
  if (cli.positional().size() <= positional_index) {
    throw std::invalid_argument("missing input dataset argument");
  }
  api::DatasetSpec spec;
  spec.source = cli.positional()[positional_index];
  spec.no_labels = cli.has("no-labels");
  return api::load_dataset(spec);
}

// "a=1,b=2" -> {{"a","1"},{"b","2"}}; validation happens in the registry.
api::Params parse_params(const std::string& packed) {
  api::Params params;
  std::istringstream stream(packed);
  std::string item;
  while (std::getline(stream, item, ',')) {
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("--params entry \"" + item +
                                  "\" is not key=value");
    }
    params[item.substr(0, eq)] = item.substr(eq + 1);
  }
  return params;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// Loads a fitted model: a ".bin" path is a binary artifact
// (Model::load_binary, api::ArtifactError on corruption); anything else a
// saved --json report or bare model document. Throws std::runtime_error on
// an unreadable file or malformed model.
api::Model load_model(const std::string& path) {
  if (ends_with(path, ".bin")) return api::Model::load_binary(path);
  std::ifstream file(path);
  if (!file) throw std::runtime_error("cannot read " + path);
  std::stringstream buffer;
  buffer << file.rdbuf();
  const api::Json doc = api::Json::parse(buffer.str());
  return api::Model::from_json(doc.contains("model") ? doc.at("model") : doc);
}

// The --method/--k/--seed/--params block shared by cluster and serve.
api::FitOptions fit_options_from_cli(const Cli& cli) {
  api::FitOptions options;
  options.method = cli.get("method", "mcdc");
  options.k = static_cast<int>(cli.get_int("k", 0));
  options.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  options.params = parse_params(cli.get("params", ""));
  return options;
}

bool write_labels_csv(const std::string& path, const std::vector<int>& labels) {
  std::ofstream file(path);
  if (!file) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  file << "object,cluster\n";
  for (std::size_t i = 0; i < labels.size(); ++i) {
    file << i << ',' << labels[i] << '\n';
  }
  return true;
}

int cmd_methods(const Cli& cli) {
  if (cli.positional().size() > 1) {
    const std::string& key = cli.positional()[1];
    const api::MethodInfo* info = api::registry().info(key);
    if (info == nullptr) {
      std::fprintf(stderr, "unknown method \"%s\"\n", key.c_str());
      return 1;
    }
    std::printf("%s (%s, %s)\n  %s\n", info->key.c_str(),
                info->display_name.c_str(),
                api::to_string(info->family).c_str(), info->summary.c_str());
    if (info->params.empty()) {
      std::printf("  no parameters\n");
      return 0;
    }
    std::printf("  parameters (--params name=value,...):\n");
    for (const api::ParamSpec& param : info->params) {
      std::printf("    %-22s %s (default %s)\n", param.name.c_str(),
                  param.description.c_str(), param.default_value.c_str());
    }
    return 0;
  }

  std::printf("%-16s %-14s %-9s %s\n", "key", "name", "family", "summary");
  for (const api::MethodInfo& info : api::registry().methods()) {
    std::printf("%-16s %-14s %-9s %s\n", info.key.c_str(),
                info.display_name.c_str(),
                api::to_string(info.family).c_str(), info.summary.c_str());
  }
  std::printf("\nrun 'mcdc methods <key>' for a method's parameters\n");
  return 0;
}

int cmd_cluster(const Cli& cli) {
  const auto loaded = load_input(cli, 1);
  const auto& ds = loaded.dataset;

  api::FitOptions options = fit_options_from_cli(cli);

  // --shards W selects the distributed protocol. An explicit non-dist
  // --method takes precedence over the shorthand (and must not receive a
  // num_workers parameter it does not know); an explicit --params
  // num_workers=... wins over the flag.
  const long shards = cli.get_int("shards", 0);
  if (shards > 0) {
    if (!cli.has("method")) options.method = "mcdc-dist";
    if (options.method == "mcdc-dist") {
      options.params.emplace("num_workers", std::to_string(shards));
    }
  }

  const api::FitResult fit = api::Engine().fit(ds, options);
  const api::RunReport& report = fit.report;

  if (!fit.ok()) {
    std::fprintf(stderr, "mcdc cluster: [%s] %s\n",
                 api::to_string(fit.status.code).c_str(),
                 fit.status.message.c_str());
  } else {
    if (report.k_estimated) {
      std::printf("estimated k = %d (from %zu granularities)\n", report.k,
                  report.stages.size());
    }
    std::printf("%s clustered %zu objects of %s into %d clusters in %.3fs\n",
                report.method_display.c_str(), ds.num_objects(),
                loaded.name.c_str(), report.clusters_found,
                report.timings.fit_seconds);
    if (!report.kappa.empty()) {
      std::printf("granularity staircase:");
      for (const int kj : report.kappa) std::printf(" %d", kj);
      std::printf("\n");
    }
    if (report.dist.shards > 0) {
      std::printf("distributed over %d shards:", report.dist.shards);
      for (const int c : report.dist.local_clusters) std::printf(" %d", c);
      std::printf(" local clusters\n");
      std::printf("sketch traffic %zu cells vs %zu raw; parallel %.3fs vs "
                  "sequential %.3fs (%.1fx)\n",
                  report.dist.sketch_cells, report.dist.raw_cells,
                  report.dist.parallel_seconds, report.dist.sequential_seconds,
                  report.dist.parallel_seconds > 0.0
                      ? report.dist.sequential_seconds /
                            report.dist.parallel_seconds
                      : 0.0);
    }
    std::printf("internal validity: compactness %.3f, silhouette %.3f, "
                "category utility %.3f\n",
                report.internal.compactness, report.internal.silhouette,
                report.internal.category_utility);
    if (report.has_external) {
      std::printf("against file labels: ACC %.3f  ARI %.3f  AMI %.3f  "
                  "FM %.3f\n",
                  report.external.acc, report.external.ari,
                  report.external.ami, report.external.fm);
    }
    std::printf("timings: fit %.3fs, stage reports %.3fs, polish %.3fs, "
                "evaluate %.3fs, total %.3fs\n",
                report.timings.fit_seconds, report.timings.stage_report_seconds,
                report.timings.polish_seconds, report.timings.evaluate_seconds,
                report.timings.total_seconds);
  }

  const std::string out_path = cli.get("out", "");
  if (!out_path.empty() && !report.labels.empty()) {
    if (!write_labels_csv(out_path, report.labels)) return 1;
    std::printf("labels written to %s\n", out_path.c_str());
  }

  const std::string json_path = cli.get("json", "");
  if (!json_path.empty()) {
    std::ofstream file(json_path);
    if (!file) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    file << fit.to_json().dump(2) << '\n';
    std::printf("report written to %s\n", json_path.c_str());
  }
  return fit.ok() ? 0 : 1;
}

int cmd_predict(const Cli& cli) {
  if (cli.positional().size() < 3) {
    std::fprintf(stderr,
                 "usage: mcdc predict <model.json|model.bin> <data> "
                 "[--out labels.csv]\n");
    return 2;
  }
  const api::Model model = load_model(cli.positional()[1]);

  const auto loaded = load_input(cli, 2);
  const std::vector<int> labels = model.predict(loaded.dataset);
  std::printf("%s model (k = %d) assigned %zu objects of %s\n",
              model.method().c_str(), model.k(), labels.size(),
              loaded.name.c_str());
  if (loaded.dataset.has_labels()) {
    const auto scores = metrics::score_all(labels, loaded.dataset.labels());
    std::printf("against file labels: ACC %.3f  ARI %.3f  AMI %.3f  FM %.3f\n",
                scores.acc, scores.ari, scores.ami, scores.fm);
  }
  const std::string out_path = cli.get("out", "");
  if (!out_path.empty()) {
    if (!write_labels_csv(out_path, labels)) return 1;
    std::printf("labels written to %s\n", out_path.c_str());
  } else if (!loaded.dataset.has_labels()) {
    for (std::size_t i = 0; i < labels.size(); ++i) {
      std::printf("%zu,%d\n", i, labels[i]);
    }
  }
  return 0;
}

// Exact-partition equality up to cluster renaming: two labelings describe
// the same partition iff their label sets are related by a bijection.
bool partitions_match(const std::vector<int>& a, const std::vector<int>& b) {
  if (a.size() != b.size()) return false;
  std::map<int, int> forward;
  std::map<int, int> reverse;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto f = forward.emplace(a[i], b[i]);
    if (!f.second && f.first->second != b[i]) return false;
    const auto r = reverse.emplace(b[i], a[i]);
    if (!r.second && r.first->second != a[i]) return false;
  }
  return true;
}

// The `serve --learn` loop: a single-threaded replay that serves each row
// off the live snapshot, then feeds it to the OnlineUpdater — predict and
// observe interleave in row order, so every tick, swap and refit lands at
// the same request index on every run (no wall clock anywhere).
int run_serve_learn(const Cli& cli, std::shared_ptr<const api::Model> model,
                    api::RunReport report, const std::vector<data::Value>& rows,
                    std::size_t n, std::size_t d,
                    const serve::ServeConfig& shard_config) {
  serve::OnlineConfig online;
  online.learner = cli.get("learner", "streaming");
  online.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  online.tick_every =
      static_cast<std::size_t>(std::max(1L, cli.get_int("tick-every", 256)));
  online.window_capacity =
      static_cast<std::size_t>(std::max(1L, cli.get_int("window", 1024)));
  online.drift_threshold = cli.get_double("drift-threshold", 0.1);
  online.min_refit_rows =
      std::min(online.window_capacity,
               static_cast<std::size_t>(
                   std::max(1L, cli.get_int("min-refit-rows", 64))));
  online.detector = cli.get("detector", "mean");
  online.trigger_k =
      static_cast<std::size_t>(std::max(1L, cli.get_int("trigger-k", 1)));
  online.serve = shard_config;

  const int repeat = std::max(1, static_cast<int>(cli.get_int("repeat", 1)));
  const double inject = cli.get_double("drift-inject", 0.0);
  const double strength =
      std::clamp(cli.get_double("drift-strength", 1.0), 0.0, 1.0);
  const bool expect_no_refit = cli.has("expect-no-refit");
  const std::vector<int>& cardinalities = model->cardinalities();

  auto server = std::make_shared<serve::ModelServer>(model, online.serve);
  serve::OnlineUpdater updater(
      server,
      serve::make_online_learner(online, cardinalities,
                                 model->value_dictionaries()),
      online);

  const std::size_t total = n * static_cast<std::size_t>(repeat);
  // --drift-inject F: from request floor(F * total) on, value codes shift
  // deterministically (v -> (v+1) mod cardinality) — an abrupt concept
  // drift that keeps the cluster geometry but moves it to codes the
  // published snapshot has never counted. --drift-strength S scales how
  // many features shift (the first ceil(S * d); default 1.0 = all of
  // them), so acceptance runs can dial the injection down to where the
  // mean alarm alone no longer catches it.
  const std::size_t inject_at =
      inject > 0.0 && inject < 1.0
          ? static_cast<std::size_t>(inject * static_cast<double>(total))
          : total;
  const std::size_t drift_features =
      strength >= 1.0 ? d
                      : static_cast<std::size_t>(
                            std::ceil(strength * static_cast<double>(d)));
  const auto drifted_row = [&](std::size_t i, data::Value* out) {
    for (std::size_t r = 0; r < d; ++r) {
      data::Value v = rows[i * d + r];
      if (r < drift_features && v != data::kMissing && cardinalities[r] > 1) {
        v = (v + 1) % cardinalities[r];
      }
      out[r] = v;
    }
  };

  std::vector<int> labels(n, -1);
  std::vector<data::Value> row(d);
  Timer timer;
  std::size_t request = 0;
  for (int rep = 0; rep < repeat; ++rep) {
    for (std::size_t i = 0; i < n; ++i, ++request) {
      if (request >= inject_at) {
        drifted_row(i, row.data());
      } else {
        std::copy(rows.begin() + static_cast<std::ptrdiff_t>(i * d),
                  rows.begin() + static_cast<std::ptrdiff_t>((i + 1) * d),
                  row.begin());
      }
      labels[i] = server->predict(row.data());
      updater.observe(row.data(), 1);
    }
  }
  // Flush the tail: consolidate and publish whatever arrived after the
  // last automatic tick.
  updater.tick();
  const double seconds = timer.elapsed_seconds();

  const std::shared_ptr<const api::Model> snapshot = server->snapshot();
  server->stop();
  report.serve = server->stats();
  report.online = updater.evidence();

  std::printf(
      "online replay: %zu request(s) over %zu rows in %.3fs (%s learner, "
      "tick every %zu, detector %s, trigger k=%zu)\n",
      total, n, seconds, online.learner.c_str(), online.tick_every,
      online.detector.c_str(), online.trigger_k);
  std::printf(
      "ticks %llu: %llu swap(s), %llu refit(s), %llu hold(s); generation "
      "%llu, %d live cluster(s)\n",
      static_cast<unsigned long long>(report.online.ticks),
      static_cast<unsigned long long>(report.online.swaps),
      static_cast<unsigned long long>(report.online.refits),
      static_cast<unsigned long long>(report.online.holds),
      static_cast<unsigned long long>(report.online.generation),
      report.online.clusters);
  std::printf("baseline %.3f, last drift %+.3f, max drift %+.3f\n",
              report.online.baseline_score, report.online.last_drift,
              report.online.max_drift);
  for (const api::DriftDetectorEvidence& det : report.online.detectors) {
    std::printf(
        "detector %-8s %s: fired %llu tick(s), %llu refit(s), last %+.4f, "
        "max %+.4f\n",
        det.name.c_str(), det.voting ? "voting " : "passive",
        static_cast<unsigned long long>(det.fired_ticks),
        static_cast<unsigned long long>(det.refits), det.last_statistic,
        det.max_statistic);
  }
  std::printf("latency p50 %.1fus  p99 %.1fus  p99.9 %.1fus\n",
              report.serve.p50_latency_us, report.serve.p99_latency_us,
              report.serve.p999_latency_us);

  bool ok = true;
  if (inject_at < total && expect_no_refit) {
    // Sensitivity control: this configuration is expected to sleep through
    // the injection (e.g. the mean alarm alone at a low --drift-strength);
    // a refit here means the detector setup is MORE sensitive than claimed.
    std::printf("drift injected at request %zu; refits %llu (expected none)\n",
                inject_at,
                static_cast<unsigned long long>(report.online.refits));
    if (report.online.refits != 0) ok = false;
  } else if (inject_at < total) {
    const std::string triggered =
        report.online.refit_detectors.empty()
            ? std::string("none")
            : report.online.refit_detectors.front();
    std::printf(
        "drift injected at request %zu; first refit at tick %llu%s "
        "(trigger: %s)\n",
        inject_at,
        static_cast<unsigned long long>(report.online.first_refit_tick),
        report.online.refits == 0 ? " (NONE)" : "", triggered.c_str());
    if (report.online.refits == 0) ok = false;

    // Recovery: the served snapshot must partition the drifted tail the
    // same way a from-scratch learner refit on exactly that window does —
    // cluster ids may differ, the grouping may not.
    const std::size_t tail =
        std::min(online.window_capacity, total - inject_at);
    std::vector<data::Value> window(tail * d);
    for (std::size_t j = 0; j < tail; ++j) {
      drifted_row((total - tail + j) % n, window.data() + j * d);
    }
    auto scratch = serve::make_online_learner(online, cardinalities,
                                              model->value_dictionaries());
    for (std::size_t j = 0; j < tail; ++j) {
      scratch->observe(window.data() + j * d);
    }
    scratch->end_chunk();
    const api::Model refit = scratch->to_model();
    std::vector<int> served(tail);
    std::vector<int> rebuilt(tail);
    snapshot->predict_rows(window.data(), tail, served.data());
    refit.predict_rows(window.data(), tail, rebuilt.data());
    const bool match = partitions_match(served, rebuilt);
    std::printf(
        "recovery: served labels on the drifted window match a from-scratch "
        "refit: %s\n",
        match ? "yes" : "NO");
    if (!match) ok = false;
  }

  const std::string out_path = cli.get("out", "");
  if (!out_path.empty()) {
    if (!write_labels_csv(out_path, labels)) return 1;
    std::printf("labels written to %s\n", out_path.c_str());
  }
  const std::string json_path = cli.get("json", "");
  if (!json_path.empty()) {
    std::ofstream file(json_path);
    if (!file) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    api::Json out = report.to_json();
    out["model"] = snapshot->to_json(false);
    file << out.dump(2) << '\n';
    std::printf("report written to %s\n", json_path.c_str());
  }
  return ok ? 0 : 1;
}

int cmd_serve(const Cli& cli) {
  if (cli.positional().size() < 2 || !cli.has("replay")) {
    std::fprintf(stderr,
                 "usage: mcdc serve <model.json|model.bin|data> --replay "
                 "<data> [--shards N] [--routing hash|locality] "
                 "[--artifact model.bin] [--producers N] [--batch B] "
                 "[--repeat R] [--swap-every-ms M] [--learn] "
                 "[--learner streaming|mcdc-online] [--tick-every T] "
                 "[--window W] [--drift-threshold F] [--drift-inject F] "
                 "[--drift-strength S] [--detector SPEC] [--trigger-k K] "
                 "[--expect-no-refit] [--out labels.csv] "
                 "[--json report.json]\n");
    return 2;
  }
  const std::string& source = cli.positional()[1];

  // A .json/.bin positional is a saved model to hot-load; anything else
  // resolves as a dataset to fit first.
  std::shared_ptr<const api::Model> model;
  api::RunReport report;
  if (ends_with(source, ".json") || ends_with(source, ".bin")) {
    model = std::make_shared<const api::Model>(load_model(source));
    report.method = model->method();
    report.k = model->k();
    std::printf("serving %s model (k = %d) hot-loaded from %s\n",
                model->method().c_str(), model->k(), source.c_str());
  } else {
    const auto loaded = load_input(cli, 1);
    const api::FitOptions options = fit_options_from_cli(cli);
    api::Engine engine;
    const api::FitResult fit = engine.fit(loaded.dataset, options);
    if (!fit.ok()) {
      std::fprintf(stderr, "mcdc serve: fit failed: [%s] %s\n",
                   api::to_string(fit.status.code).c_str(),
                   fit.status.message.c_str());
      return 1;
    }
    report = fit.report;
    model = std::make_shared<const api::Model>(fit.model);
    std::printf("serving %s fit of %s (k = %d, fitted in %.3fs)\n",
                report.method_display.c_str(), loaded.name.c_str(), report.k,
                report.timings.fit_seconds);
  }

  // --artifact exports whatever model is being served as a binary
  // artifact — the save half of the `mcdc serve model.bin` round trip
  // (also converts a .json model to .bin in one step).
  const std::string artifact_path = cli.get("artifact", "");
  if (!artifact_path.empty()) {
    model->save_binary(artifact_path);
    std::printf("model artifact written to %s\n", artifact_path.c_str());
  }

  // Replay trace, re-coded once into the model's encoding.
  api::DatasetSpec replay_spec;
  replay_spec.source = cli.get("replay", "");
  replay_spec.no_labels = cli.has("no-labels");
  const auto replay = api::load_dataset(replay_spec);
  const data::Dataset& trace = replay.dataset;
  const std::size_t n = trace.num_objects();
  const std::size_t d = trace.num_features();
  const auto remap = model->encoding_map(trace);
  std::vector<data::Value> rows(n * d);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t r = 0; r < d; ++r) {
      const data::Value v = trace.at(i, r);
      rows[i * d + r] = v == data::kMissing
                            ? data::kMissing
                            : remap[r][static_cast<std::size_t>(v)];
    }
  }

  const int producers =
      std::max(1, static_cast<int>(cli.get_int("producers", 4)));
  const int repeat = std::max(1, static_cast<int>(cli.get_int("repeat", 1)));
  const long swap_every_ms = cli.get_int("swap-every-ms", 0);
  // --batch resizes the per-server coalescing bound.
  const long batch = cli.get_int("batch", 0);
  serve::ServeConfig shard_config;
  if (batch > 0) shard_config.max_batch = static_cast<std::size_t>(batch);

  if (cli.has("learn")) {
    if (cli.get_int("shards", 0) > 0) {
      std::fprintf(stderr,
                   "mcdc serve: --learn drives a single ModelServer; drop "
                   "--shards\n");
      return 2;
    }
    return run_serve_learn(cli, std::move(model), std::move(report), rows, n,
                           d, shard_config);
  }

  // --shards N serves through a ServingCluster of N ModelServer shards
  // instead of one server; --routing picks the shard per request.
  const long shards = cli.get_int("shards", 0);
  const std::string routing_name = cli.get("routing", "hash");
  std::shared_ptr<serve::ModelServer> server;
  std::shared_ptr<serve::ServingCluster> cluster;
  if (shards > 0) {
    serve::ClusterConfig config;
    config.num_shards = static_cast<std::size_t>(shards);
    if (routing_name == "locality") {
      config.routing = serve::RoutingMode::kLocality;
    } else if (routing_name == "hash") {
      config.routing = serve::RoutingMode::kHash;
    } else {
      std::fprintf(stderr, "mcdc serve: unknown --routing %s\n",
                   routing_name.c_str());
      return 2;
    }
    config.shard = shard_config;
    cluster = std::make_shared<serve::ServingCluster>(model, config);
    std::printf("cluster of %ld shards, %s routing\n", shards,
                routing_name.c_str());
  } else {
    server = std::make_shared<serve::ModelServer>(model, shard_config);
  }

  std::atomic<bool> done{false};
  std::thread swapper;
  if (swap_every_ms > 0) {
    if (cluster != nullptr) {
      // The cluster form of the hot-reload storm: roll the same model
      // across every shard, exercising the mixed-generation window.
      swapper = std::thread([&cluster, &done, model, swap_every_ms] {
        while (!done.load()) {
          cluster->rolling_swap(model);
          std::this_thread::sleep_for(
              std::chrono::milliseconds(swap_every_ms));
        }
      });
    } else {
      const api::Json reload = model->to_json(false);
      swapper = std::thread([&server, &done, reload, swap_every_ms] {
        while (!done.load()) {
          server->swap_json(reload);
          std::this_thread::sleep_for(
              std::chrono::milliseconds(swap_every_ms));
        }
      });
    }
  }

  std::vector<int> labels(n, -1);
  Timer timer;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(producers));
  for (int t = 0; t < producers; ++t) {
    threads.emplace_back([&, t] {
      for (int rep = 0; rep < repeat; ++rep) {
        for (std::size_t i = static_cast<std::size_t>(t); i < n;
             i += static_cast<std::size_t>(producers)) {
          const data::Value* row = rows.data() + i * d;
          labels[i] =
              cluster != nullptr ? cluster->predict(row) : server->predict(row);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const double seconds = timer.elapsed_seconds();
  done.store(true);
  if (swapper.joinable()) swapper.join();
  if (cluster != nullptr) {
    cluster->stop();
    report.serve = cluster->stats();
  } else {
    server->stop();
    report.serve = server->stats();
  }

  std::printf(
      "replayed %zu requests (%d producer(s) x %d repeat(s) over %zu rows) "
      "in %.3fs\n",
      n * static_cast<std::size_t>(repeat), producers, repeat, n, seconds);
  std::printf(
      "throughput %.0f req/s over %llu sweeps, mean occupancy %.1f "
      "rows/sweep\n",
      report.serve.throughput_rps,
      static_cast<unsigned long long>(report.serve.batches),
      report.serve.batch_occupancy);
  std::printf(
      "latency p50 %.1fus  p99 %.1fus  p99.9 %.1fus; snapshot swaps: %llu\n",
      report.serve.p50_latency_us, report.serve.p99_latency_us,
      report.serve.p999_latency_us,
      static_cast<unsigned long long>(report.serve.swaps));
  if (cluster != nullptr) {
    std::printf("routed per shard:");
    for (const std::uint64_t r : report.serve.routed) {
      std::printf(" %llu", static_cast<unsigned long long>(r));
    }
    const serve::GenerationStatus gen = cluster->generations();
    std::printf(
        "\ngeneration %llu%s, %llu rolling swap(s), last window %.3fms\n",
        static_cast<unsigned long long>(gen.target),
        gen.mixed ? " (mixed)" : "",
        static_cast<unsigned long long>(gen.rolling_swaps),
        gen.last_window_seconds * 1e3);
  }

  // Serving determinism check: the replayed single-row labels must equal
  // the bulk predict of the same trace (hot-reloads republish the same
  // model, so they cannot move labels either).
  const std::vector<int> bulk = model->predict(trace);
  const bool match = labels == bulk;
  std::printf("labels match bulk predict: %s\n", match ? "yes" : "NO");

  const std::string out_path = cli.get("out", "");
  if (!out_path.empty()) {
    if (!write_labels_csv(out_path, labels)) return 1;
    std::printf("labels written to %s\n", out_path.c_str());
  }
  const std::string json_path = cli.get("json", "");
  if (!json_path.empty()) {
    std::ofstream file(json_path);
    if (!file) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    api::Json out = report.to_json();
    out["model"] = model->to_json(false);
    file << out.dump(2) << '\n';
    std::printf("report written to %s\n", json_path.c_str());
  }
  return match ? 0 : 1;
}

int cmd_explore(const Cli& cli) {
  const auto ds = load_input(cli, 1).dataset;
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const auto mgcpl = core::Mgcpl().run(ds, seed);

  std::printf("k0 = %d; granularity staircase:\n", mgcpl.k0);
  const auto estimate = core::estimate_k(ds, mgcpl);
  for (const auto& cand : estimate.candidates) {
    std::printf("  stage %d: k = %-5d silhouette %.3f  persistence %.3f%s\n",
                cand.stage, cand.k, cand.silhouette, cand.persistence,
                cand.stage == estimate.recommended_stage ? "  <- recommended"
                                                         : "");
  }

  const auto tree = core::build_dendrogram(mgcpl);
  std::printf("\nnesting consistency per stage:\n");
  for (int j = 0; j < tree.sigma(); ++j) {
    std::printf("  stage %d: %.3f\n", j, tree.nesting_consistency(j));
  }
  if (cli.has("newick")) {
    std::printf("\n%s", tree.to_newick().c_str());
  } else {
    std::printf("\n%s", tree.to_text().c_str());
  }
  return 0;
}

int cmd_anomalies(const Cli& cli) {
  const auto ds = load_input(cli, 1).dataset;
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const double top = cli.get_double("top", 0.05);
  const auto mgcpl = core::Mgcpl().run(ds, seed);
  const auto result = core::score_anomalies(ds, mgcpl);
  std::printf("object,score\n");
  for (std::size_t i : result.top_fraction(top)) {
    std::printf("%zu,%.4f\n", i, result.scores[i]);
  }
  return 0;
}

int cmd_datasets() {
  std::printf("%-20s %-7s %6s %8s %4s  %s\n", "name", "abbrev", "d", "n", "k*",
              "fidelity");
  for (const auto& info : data::benchmark_roster()) {
    std::printf("%-20s %-7s %6zu %8zu %4d  %s\n", info.name.c_str(),
                info.abbrev.c_str(), info.d, info.n, info.k_star,
                data::to_string(info.fidelity).c_str());
  }
  for (const auto& info : data::extra_roster()) {
    std::printf("%-20s %-7s %6zu %8zu %4d  %s\n", info.name, info.abbrev,
                info.d, info.n, info.k_star, "simulated (extension)");
  }
  return 0;
}

int cmd_generate(const Cli& cli) {
  if (cli.positional().size() < 2) {
    std::fprintf(stderr, "usage: mcdc generate <abbrev> [--out file.csv]\n");
    return 2;
  }
  api::DatasetSpec spec;
  spec.source = cli.positional()[1];
  spec.seed = static_cast<std::uint64_t>(cli.get_int("seed", 7));
  const auto loaded = api::load_dataset(spec);
  if (!loaded.builtin) {
    std::fprintf(stderr, "mcdc generate: %s is not a built-in dataset\n",
                 spec.source.c_str());
    return 1;
  }
  const std::string out_path = cli.get("out", "");
  if (out_path.empty()) {
    data::write_csv(loaded.dataset, std::cout);
  } else {
    std::ofstream file(out_path);
    if (!file) {
      std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
      return 1;
    }
    data::write_csv(loaded.dataset, file);
    std::printf("%zu rows written to %s\n", loaded.dataset.num_objects(),
                out_path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  if (cli.positional().empty()) return usage();
  const std::string& command = cli.positional().front();
  try {
    if (command == "methods") return cmd_methods(cli);
    if (command == "cluster") return cmd_cluster(cli);
    if (command == "predict") return cmd_predict(cli);
    if (command == "serve") return cmd_serve(cli);
    if (command == "explore") return cmd_explore(cli);
    if (command == "anomalies") return cmd_anomalies(cli);
    if (command == "datasets") return cmd_datasets();
    if (command == "generate") return cmd_generate(cli);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "mcdc %s: %s\n", command.c_str(), error.what());
    return 1;
  }
  return usage();
}

#include "api/registry.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "baselines/adc.h"
#include "baselines/fkmawcw.h"
#include "baselines/gudmm.h"
#include "baselines/kmodes.h"
#include "baselines/linkage.h"
#include "baselines/rock.h"
#include "baselines/wocil.h"
#include "core/rgcl.h"
#include "dist/distributed_mcdc.h"

namespace mcdc::api {

namespace {

[[noreturn]] void bad_param(const std::string& key, const std::string& value) {
  throw std::invalid_argument("parameter " + key + ": bad value \"" + value +
                              "\"");
}

}  // namespace

int param_int(const Params& params, const std::string& key, int fallback) {
  const auto it = params.find(key);
  if (it == params.end()) return fallback;
  try {
    std::size_t used = 0;
    const int value = std::stoi(it->second, &used);
    if (used != it->second.size()) bad_param(key, it->second);
    return value;
  } catch (const std::invalid_argument&) {
    bad_param(key, it->second);
  } catch (const std::out_of_range&) {
    bad_param(key, it->second);
  }
}

double param_double(const Params& params, const std::string& key,
                    double fallback) {
  const auto it = params.find(key);
  if (it == params.end()) return fallback;
  try {
    std::size_t used = 0;
    const double value = std::stod(it->second, &used);
    if (used != it->second.size()) bad_param(key, it->second);
    return value;
  } catch (const std::invalid_argument&) {
    bad_param(key, it->second);
  } catch (const std::out_of_range&) {
    bad_param(key, it->second);
  }
}

bool param_bool(const Params& params, const std::string& key, bool fallback) {
  const auto it = params.find(key);
  if (it == params.end()) return fallback;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "on" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "off" || v == "no") return false;
  bad_param(key, v);
}

std::string param_string(const Params& params, const std::string& key,
                         const std::string& fallback) {
  const auto it = params.find(key);
  return it == params.end() ? fallback : it->second;
}

std::string to_string(MethodFamily family) {
  switch (family) {
    case MethodFamily::baseline: return "baseline";
    case MethodFamily::mcdc: return "mcdc";
    case MethodFamily::ablation: return "ablation";
    case MethodFamily::boosted: return "boosted";
    case MethodFamily::distributed: return "distributed";
    case MethodFamily::online: return "online";
  }
  return "unknown";
}

void Registry::add(MethodInfo info, Factory factory) {
  if (info.key.empty()) {
    throw std::invalid_argument("registry: empty method key");
  }
  if (!factory) {
    throw std::invalid_argument("registry: null factory for " + info.key);
  }
  const std::string key = info.key;
  if (!entries_.emplace(key, Entry{std::move(info), std::move(factory)})
           .second) {
    throw std::invalid_argument("registry: duplicate method key " + key);
  }
}

const MethodInfo* Registry::info(const std::string& key) const {
  const auto it = entries_.find(key);
  return it == entries_.end() ? nullptr : &it->second.info;
}

std::vector<MethodInfo> Registry::methods() const {
  std::vector<MethodInfo> out;
  out.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) out.push_back(entry.info);
  return out;
}

void Registry::validate(const std::string& key, const Params& params) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    throw std::invalid_argument("registry: unknown method \"" + key +
                                "\" (run `mcdc methods` for the catalogue)");
  }
  for (const auto& [name, value] : params) {
    bool known = false;
    for (const ParamSpec& spec : it->second.info.params) {
      if (spec.name == name) {
        known = true;
        break;
      }
    }
    if (!known) {
      throw std::invalid_argument("method " + key + ": unknown parameter \"" +
                                  name + "\"");
    }
  }
}

std::shared_ptr<baselines::Clusterer> Registry::create(
    const std::string& key, const Params& params) const {
  validate(key, params);
  return entries_.at(key).factory(params);
}

std::vector<std::shared_ptr<baselines::Clusterer>> Registry::paper_roster()
    const {
  std::vector<std::pair<int, const Entry*>> ordered;
  for (const auto& [key, entry] : entries_) {
    if (entry.info.paper_order >= 0) ordered.emplace_back(entry.info.paper_order, &entry);
  }
  std::sort(ordered.begin(), ordered.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<std::shared_ptr<baselines::Clusterer>> roster;
  roster.reserve(ordered.size());
  for (const auto& [order, entry] : ordered) {
    roster.push_back(entry->factory({}));
  }
  return roster;
}

// --- built-in registrations -------------------------------------------------

namespace {

// Adapter turning the free-function ablations (core::mcdc_v1..v4) into
// Clusterer objects the registry can serve.
class FunctionClusterer : public baselines::Clusterer {
 public:
  using Fn = std::function<baselines::ClusterResult(const data::DatasetView&,
                                                    int, std::uint64_t)>;
  FunctionClusterer(std::string name, Fn fn)
      : name_(std::move(name)), fn_(std::move(fn)) {}

  std::string name() const override { return name_; }
  baselines::ClusterResult cluster(const data::DatasetView& ds, int k,
                                   std::uint64_t seed) const override {
    return fn_(ds, k, seed);
  }

 private:
  std::string name_;
  Fn fn_;
};

const std::vector<ParamSpec>& max_iterations_only() {
  static const std::vector<ParamSpec> specs = {
      {"max_iterations", "iteration cap of the alternating optimisation",
       "100"},
  };
  return specs;
}

std::vector<ParamSpec> mcdc_param_specs() {
  return {
      {"eta", "competitive learning rate of Eqs. (12)-(13)", "0.03"},
      {"k0", "initial cluster count; 0 = ceil(sqrt(n))", "0"},
      {"feature_weighting", "Eqs. (15)-(18) feature-cluster weighting",
       "true"},
      {"reseed_each_stage", "draw fresh seeds each stage (Alg. 1 line 3)",
       "false"},
      {"stage_drop_fraction",
       "cluster fraction a stage may eliminate before recording", "0.3"},
      {"max_passes_per_stage", "sweep cap per granularity", "6"},
      {"came_init", "CAME seeding: density | random", "density"},
      {"came_weight_update", "CAME weight rule: paper | lagrange | fixed",
       "paper"},
      {"came_beta", "exponent of the Lagrange weight update", "2.0"},
      {"came_max_iterations", "CAME iteration cap", "100"},
  };
}

baselines::FkmawcwConfig fkmawcw_config_from_params(const Params& params) {
  baselines::FkmawcwConfig config;
  config.m = param_double(params, "m", config.m);
  config.p = param_double(params, "p", config.p);
  config.q = param_double(params, "q", config.q);
  config.max_iterations =
      param_int(params, "max_iterations", config.max_iterations);
  config.restart_on_collapse =
      param_bool(params, "restart_on_collapse", config.restart_on_collapse);
  config.max_restarts = param_int(params, "max_restarts", config.max_restarts);
  const std::string init = param_string(
      params, "init",
      config.init == baselines::FkmawcwConfig::Init::density ? "density"
                                                             : "random");
  if (init == "density") {
    config.init = baselines::FkmawcwConfig::Init::density;
  } else if (init == "random") {
    config.init = baselines::FkmawcwConfig::Init::random;
  } else {
    bad_param("init", init);
  }
  return config;
}

std::vector<ParamSpec> fkmawcw_param_specs() {
  return {
      {"m", "membership fuzzifier (> 1)", "1.1"},
      {"p", "attribute-weight exponent (> 1)", "2.0"},
      {"q", "cluster-weight exponent (> 1)", "2.0"},
      {"max_iterations", "iteration cap", "100"},
      {"init", "seeding: random | density", "random"},
      {"restart_on_collapse", "retry collapsed runs with fresh seeds",
       "false"},
      {"max_restarts", "restart budget when restart_on_collapse", "5"},
  };
}

void register_linkage(Registry& registry, const std::string& key,
                      baselines::LinkageKind kind,
                      const std::string& display_name) {
  MethodInfo info;
  info.key = key;
  info.display_name = display_name;
  info.summary = "agglomerative hierarchical clustering over Hamming distance";
  info.family = MethodFamily::baseline;
  info.params = {
      {"max_sample", "sample budget of the Lance-Williams agglomeration",
       "1500"},
  };
  registry.add(std::move(info), [kind](const Params& params) {
    baselines::LinkageConfig config;
    config.kind = kind;
    config.max_sample = static_cast<std::size_t>(
        param_int(params, "max_sample", static_cast<int>(config.max_sample)));
    return std::make_shared<baselines::Linkage>(config);
  });
}

void register_builtins(Registry& registry) {
  // --- the nine baselines of the comparative study -------------------------
  {
    MethodInfo info;
    info.key = "kmodes";
    info.display_name = "K-MODES";
    info.summary = "Huang's k-modes: Hamming assignment to per-feature modes";
    info.family = MethodFamily::baseline;
    info.paper_order = 0;
    info.params = max_iterations_only();
    registry.add(std::move(info), [](const Params& params) {
      baselines::KModesConfig config;
      config.max_iterations =
          param_int(params, "max_iterations", config.max_iterations);
      return std::make_shared<baselines::KModes>(config);
    });
  }
  {
    MethodInfo info;
    info.key = "rock";
    info.display_name = "ROCK";
    info.summary = "link-based agglomeration over Jaccard neighbourhoods";
    info.family = MethodFamily::baseline;
    info.paper_order = 1;
    info.params = {
        {"theta", "Jaccard neighbourhood threshold", "0.5"},
        {"max_sample", "sample budget of the greedy agglomeration", "800"},
    };
    registry.add(std::move(info), [](const Params& params) {
      baselines::RockConfig config;
      config.theta = param_double(params, "theta", config.theta);
      config.max_sample = static_cast<std::size_t>(
          param_int(params, "max_sample", static_cast<int>(config.max_sample)));
      return std::make_shared<baselines::Rock>(config);
    });
  }
  {
    MethodInfo info;
    info.key = "wocil";
    info.display_name = "WOCIL";
    info.summary = "subspace-weighted object-cluster similarity learning";
    info.family = MethodFamily::baseline;
    info.paper_order = 2;
    info.params = max_iterations_only();
    registry.add(std::move(info), [](const Params& params) {
      baselines::WocilConfig config;
      config.max_iterations =
          param_int(params, "max_iterations", config.max_iterations);
      return std::make_shared<baselines::Wocil>(config);
    });
  }
  {
    MethodInfo info;
    info.key = "fkmawcw";
    info.display_name = "FKMAWCW";
    info.summary = "fuzzy k-modes with attribute and cluster weights";
    info.family = MethodFamily::baseline;
    info.paper_order = 3;
    info.params = fkmawcw_param_specs();
    registry.add(std::move(info), [](const Params& params) {
      return std::make_shared<baselines::Fkmawcw>(
          fkmawcw_config_from_params(params));
    });
  }
  {
    MethodInfo info;
    info.key = "gudmm";
    info.display_name = "GUDMM";
    info.summary = "multi-aspect context distances + k-representatives";
    info.family = MethodFamily::baseline;
    info.paper_order = 4;
    info.params = max_iterations_only();
    registry.add(std::move(info), [](const Params& params) {
      baselines::GudmmConfig config;
      config.max_iterations =
          param_int(params, "max_iterations", config.max_iterations);
      return std::make_shared<baselines::Gudmm>(config);
    });
  }
  {
    MethodInfo info;
    info.key = "adc";
    info.display_name = "ADC";
    info.summary = "co-occurrence graph distances + k-representatives";
    info.family = MethodFamily::baseline;
    info.paper_order = 5;
    info.params = max_iterations_only();
    registry.add(std::move(info), [](const Params& params) {
      baselines::AdcConfig config;
      config.max_iterations =
          param_int(params, "max_iterations", config.max_iterations);
      return std::make_shared<baselines::Adc>(config);
    });
  }
  register_linkage(registry, "linkage-single", baselines::LinkageKind::single,
                   "SINGLE-LINK");
  register_linkage(registry, "linkage-complete",
                   baselines::LinkageKind::complete, "COMPLETE-LINK");
  register_linkage(registry, "linkage-average",
                   baselines::LinkageKind::average, "AVERAGE-LINK");

  // --- MCDC ----------------------------------------------------------------
  {
    MethodInfo info;
    info.key = "mcdc";
    info.display_name = "MCDC";
    info.summary = "full pipeline: MGCPL -> Gamma encoding -> CAME";
    info.family = MethodFamily::mcdc;
    info.paper_order = 6;
    info.params = mcdc_param_specs();
    registry.add(std::move(info), [](const Params& params) {
      return std::make_shared<core::McdcClusterer>(
          mcdc_config_from_params(params));
    });
  }

  // --- ablated variants (Fig. 4) -------------------------------------------
  {
    MethodInfo info;
    info.key = "mcdc4";
    info.display_name = "MCDC4";
    info.summary = "MCDC with CAME's weight learning frozen";
    info.family = MethodFamily::ablation;
    info.params = mcdc_param_specs();
    registry.add(std::move(info), [](const Params& params) {
      const core::McdcConfig config = mcdc_config_from_params(params);
      return std::make_shared<FunctionClusterer>(
          "MCDC4", [config](const data::DatasetView& ds, int k,
                            std::uint64_t seed) {
            return core::mcdc_v4(ds, k, seed, config);
          });
    });
  }
  {
    MethodInfo info;
    info.key = "mcdc3";
    info.display_name = "MCDC3";
    info.summary = "MGCPL only: the coarsest partition is the answer";
    info.family = MethodFamily::ablation;
    info.params = mcdc_param_specs();
    registry.add(std::move(info), [](const Params& params) {
      const core::McdcConfig config = mcdc_config_from_params(params);
      return std::make_shared<FunctionClusterer>(
          "MCDC3", [config](const data::DatasetView& ds, int k,
                            std::uint64_t seed) {
            return core::mcdc_v3(ds, k, seed, config);
          });
    });
  }
  {
    MethodInfo info;
    info.key = "mcdc2";
    info.display_name = "MCDC2";
    info.summary = "conventional competitive learning from k*+2 seeds";
    info.family = MethodFamily::ablation;
    info.params = {{"eta", "competitive learning rate", "0.03"}};
    registry.add(std::move(info), [](const Params& params) {
      const double eta = param_double(params, "eta", 0.03);
      return std::make_shared<FunctionClusterer>(
          "MCDC2", [eta](const data::DatasetView& ds, int k, std::uint64_t seed) {
            return core::mcdc_v2(ds, k, seed, eta);
          });
    });
  }
  {
    MethodInfo info;
    info.key = "mcdc1";
    info.display_name = "MCDC1";
    info.summary = "partitional clustering with the Sec. II-A similarity";
    info.family = MethodFamily::ablation;
    info.params = {{"max_passes", "assignment sweep cap", "100"}};
    registry.add(std::move(info), [](const Params& params) {
      const int max_passes = param_int(params, "max_passes", 100);
      return std::make_shared<FunctionClusterer>(
          "MCDC1", [max_passes](const data::DatasetView& ds, int k,
                                std::uint64_t seed) {
            return core::mcdc_v1(ds, k, seed, max_passes);
          });
    });
  }

  // --- distributed deployment (Sec. III-D) ---------------------------------
  {
    MethodInfo info;
    info.key = "mcdc-dist";
    info.display_name = "MCDC-DIST";
    info.summary = "shard -> local MGCPL -> sketch merge over worker shards";
    info.family = MethodFamily::distributed;
    info.params = mcdc_param_specs();
    info.params.push_back(
        {"num_workers", "worker (= shard) count of the distributed protocol",
         "4"});
    registry.add(std::move(info), [](const Params& params) {
      return std::make_shared<dist::DistributedClusterer>(
          distributed_config_from_params(params));
    });
  }

  // --- MCDC+X boosted variants ---------------------------------------------
  {
    MethodInfo info;
    info.key = "mcdc+gudmm";
    info.display_name = "MCDC+G.";
    info.summary = "GUDMM on the Gamma embedding";
    info.family = MethodFamily::boosted;
    info.paper_order = 7;
    info.params = max_iterations_only();
    registry.add(std::move(info), [](const Params& params) {
      baselines::GudmmConfig config;
      config.max_iterations =
          param_int(params, "max_iterations", config.max_iterations);
      return std::make_shared<core::BoostedClusterer>(
          std::make_shared<baselines::Gudmm>(config), "MCDC+G.");
    });
  }
  {
    MethodInfo info;
    info.key = "mcdc+fkmawcw";
    info.display_name = "MCDC+F.";
    info.summary = "FKMAWCW on the Gamma embedding";
    info.family = MethodFamily::boosted;
    info.paper_order = 8;
    info.params = fkmawcw_param_specs();
    registry.add(std::move(info), [](const Params& params) {
      // MCDC+F. seeds the fuzzy stage deterministically on the embedding
      // (FkmawcwConfig::Init::density): random fuzzy seeding collapses too
      // often on the few-feature Gamma space, and the deterministic spread
      // is what reproduces the paper's +/-0.00 stability for the boosted
      // variant.
      Params defaults = params;
      defaults.emplace("init", "density");
      defaults.emplace("restart_on_collapse", "true");
      return std::make_shared<core::BoostedClusterer>(
          std::make_shared<baselines::Fkmawcw>(
              fkmawcw_config_from_params(defaults)),
          "MCDC+F.");
    });
  }
  {
    MethodInfo info;
    info.key = "mcdc+kmodes";
    info.display_name = "MCDC+KM";
    info.summary = "k-modes on the Gamma embedding";
    info.family = MethodFamily::boosted;
    info.params = max_iterations_only();
    registry.add(std::move(info), [](const Params& params) {
      baselines::KModesConfig config;
      config.max_iterations =
          param_int(params, "max_iterations", config.max_iterations);
      return std::make_shared<core::BoostedClusterer>(
          std::make_shared<baselines::KModes>(config), "MCDC+KM");
    });
  }

  // --- continuous-learning serving loop --------------------------------
  {
    MethodInfo info;
    info.key = "mcdc-online";
    info.display_name = "MCDC-ONLINE";
    info.summary =
        "RGCL per-row winner-reward/rival-penalty learner (Likas 1999)";
    info.family = MethodFamily::online;
    info.params = {
        {"eta", "reinforcement learning rate", "0.05"},
        {"epochs", "batch-mode passes over the rows", "4"},
        {"reinforcement",
         "Bernoulli-gated reward; false always rewards the winner", "true"},
    };
    registry.add(std::move(info), [](const Params& params) {
      core::RgclConfig config;
      config.eta = param_double(params, "eta", config.eta);
      config.epochs = param_int(params, "epochs", config.epochs);
      config.reinforcement =
          param_bool(params, "reinforcement", config.reinforcement);
      return std::make_shared<FunctionClusterer>(
          "MCDC-ONLINE", [config](const data::DatasetView& ds, int k,
                                  std::uint64_t seed) {
            return core::RgclLearner::cluster(ds, k, seed, config);
          });
    });
  }
}

}  // namespace

core::McdcConfig mcdc_config_from_params(const Params& params) {
  core::McdcConfig config;
  config.mgcpl.eta = param_double(params, "eta", config.mgcpl.eta);
  config.mgcpl.k0 = param_int(params, "k0", config.mgcpl.k0);
  config.mgcpl.feature_weighting =
      param_bool(params, "feature_weighting", config.mgcpl.feature_weighting);
  config.mgcpl.reseed_each_stage =
      param_bool(params, "reseed_each_stage", config.mgcpl.reseed_each_stage);
  config.mgcpl.stage_drop_fraction = param_double(
      params, "stage_drop_fraction", config.mgcpl.stage_drop_fraction);
  config.mgcpl.max_passes_per_stage = param_int(
      params, "max_passes_per_stage", config.mgcpl.max_passes_per_stage);

  const std::string init = param_string(params, "came_init", "density");
  if (init == "density") {
    config.came.init = core::CameConfig::Init::density;
  } else if (init == "random") {
    config.came.init = core::CameConfig::Init::random;
  } else {
    bad_param("came_init", init);
  }
  const std::string update = param_string(params, "came_weight_update", "paper");
  if (update == "paper") {
    config.came.weight_update = core::CameConfig::WeightUpdate::paper;
  } else if (update == "lagrange") {
    config.came.weight_update = core::CameConfig::WeightUpdate::lagrange;
  } else if (update == "fixed") {
    config.came.weight_update = core::CameConfig::WeightUpdate::fixed;
  } else {
    bad_param("came_weight_update", update);
  }
  config.came.beta = param_double(params, "came_beta", config.came.beta);
  config.came.max_iterations =
      param_int(params, "came_max_iterations", config.came.max_iterations);
  return config;
}

dist::DistributedConfig distributed_config_from_params(const Params& params) {
  dist::DistributedConfig config;
  config.local = mcdc_config_from_params(params);
  config.num_workers = param_int(params, "num_workers", config.num_workers);
  return config;
}

Registry& registry() {
  static Registry* instance = [] {
    auto* r = new Registry();
    register_builtins(*r);
    return r;
  }();
  return *instance;
}

}  // namespace mcdc::api

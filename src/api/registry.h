// Clusterer registry — the string-keyed method catalogue of the library.
//
// Every algorithm of the comparative study registers here under a stable
// key with a parameter schema: the nine baselines of Table III, MCDC
// itself, the MCDC1-4 ablations of Fig. 4 and the MCDC+X boosted variants.
// Consumers (the `mcdc` CLI, the bench harness, the Engine) create methods
// by key instead of hand-wiring constructor calls, so new algorithms become
// visible everywhere by registering once.
//
// Built-in methods are registered when `registry()` is first used;
// downstream code can add its own with Registry::add.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "baselines/clusterer.h"
#include "core/mcdc.h"
#include "dist/distributed_mcdc.h"

namespace mcdc::api {

// Method parameters as parsed key -> value strings ("eta" -> "0.05").
// Factories validate names against the schema and values against the type;
// both failures surface as std::invalid_argument with the offending key.
using Params = std::map<std::string, std::string>;

// Typed accessors; throw std::invalid_argument on unparseable values.
int param_int(const Params& params, const std::string& key, int fallback);
double param_double(const Params& params, const std::string& key,
                    double fallback);
bool param_bool(const Params& params, const std::string& key, bool fallback);
std::string param_string(const Params& params, const std::string& key,
                         const std::string& fallback);

struct ParamSpec {
  std::string name;
  std::string description;
  std::string default_value;
};

enum class MethodFamily {
  baseline,     // one of the nine comparison methods
  mcdc,         // the full pipeline
  ablation,     // MCDC1-4 (Fig. 4)
  boosted,      // MCDC+X (Gamma embedding + inner method)
  distributed,  // Sec. III-D shard -> local-learn -> merge protocol
  online,       // per-row continuous learners feeding the serving tier
};

std::string to_string(MethodFamily family);

struct MethodInfo {
  std::string key;           // registry key, e.g. "kmodes"
  std::string display_name;  // Table III column name, e.g. "K-MODES"
  std::string summary;       // one-line description
  MethodFamily family = MethodFamily::baseline;
  // Column position in the paper's Table III roster; -1 = not part of it.
  int paper_order = -1;
  std::vector<ParamSpec> params;
};

using Factory =
    std::function<std::shared_ptr<baselines::Clusterer>(const Params&)>;

class Registry {
 public:
  // Registers a method; throws std::invalid_argument on a duplicate key.
  void add(MethodInfo info, Factory factory);

  // nullptr when the key is unknown.
  const MethodInfo* info(const std::string& key) const;
  // All registered methods, sorted by key.
  std::vector<MethodInfo> methods() const;

  // Checks every parameter name against the method's schema. Throws
  // std::invalid_argument on an unknown key or an unknown parameter name
  // — a typo silently falling back to a default is the worst failure
  // mode a CLI can have.
  void validate(const std::string& key, const Params& params) const;

  // Instantiates the method. Throws std::invalid_argument on an unknown
  // key, an unknown parameter name, or an unparseable parameter value.
  std::shared_ptr<baselines::Clusterer> create(const std::string& key,
                                               const Params& params = {}) const;

  // The Table III roster in paper column order — every registered method
  // with paper_order >= 0, instantiated with default parameters.
  std::vector<std::shared_ptr<baselines::Clusterer>> paper_roster() const;

 private:
  struct Entry {
    MethodInfo info;
    Factory factory;
  };
  std::map<std::string, Entry> entries_;
};

// The process-wide registry with every built-in method pre-registered.
Registry& registry();

// Builds an McdcConfig from "eta", "k0", "feature_weighting",
// "stage_drop_fraction", "came_init", ... parameters — shared by the
// "mcdc" factory, the ablations, the boosted variants and the Engine.
core::McdcConfig mcdc_config_from_params(const Params& params);

// Builds a DistributedConfig from "num_workers" plus the MCDC parameters
// (which configure the workers' local learning) — shared by the
// "mcdc-dist" factory and the Engine's distributed fit path.
dist::DistributedConfig distributed_config_from_params(const Params& params);

}  // namespace mcdc::api

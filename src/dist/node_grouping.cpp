#include "dist/node_grouping.h"

#include <algorithm>
#include <stdexcept>

#include "core/mcdc.h"
#include "core/mgcpl.h"
#include "core/profile_set.h"

namespace mcdc::dist {

namespace {

// Dominant value and per-feature consistency of group `id`, read from the
// bank of every group's value counts.
NodeGroup profile_group(const data::DatasetView& table,
                        const core::ProfileSet& bank, int id,
                        std::vector<std::size_t> members) {
  const std::size_t d = table.num_features();
  NodeGroup group;
  group.id = id;
  group.members = std::move(members);
  group.dominant_values.resize(d);
  group.consistency.resize(d);

  // Ties resolve to the smallest code; kMissing where no member reports
  // the feature (its count reads 0).
  const std::vector<data::Value> dominant = bank.mode(id);
  double total = 0.0;
  for (std::size_t r = 0; r < d; ++r) {
    group.dominant_values[r] = dominant[r] == data::kMissing
                                   ? "?"
                                   : table.value_name(r, dominant[r]);
    group.consistency[r] = bank.count(id, r, dominant[r]) / bank.size(id);
    total += group.consistency[r];
  }
  group.mean_consistency = d > 0 ? total / static_cast<double>(d) : 0.0;
  return group;
}

}  // namespace

NodeGroupingResult group_nodes(const data::DatasetView& table, int k,
                               std::uint64_t seed) {
  if (table.num_objects() == 0) {
    throw std::invalid_argument("group_nodes: empty node table");
  }
  if (k < 0) {
    throw std::invalid_argument("group_nodes: k < 0");
  }

  NodeGroupingResult result;
  if (k == 0) {
    // The paper's rule: the coarsest converged granularity is the number
    // of hardware classes.
    const core::MgcplResult analysis = core::Mgcpl().run(table, seed);
    result.kappa = analysis.kappa;
    result.assignment = analysis.final_partition();
  } else {
    const core::McdcOutput output = core::Mcdc().cluster(table, k, seed);
    result.kappa = output.mgcpl.kappa;
    result.assignment = output.labels;
  }

  // One bank of every group's value counts; groups are reported by id.
  const int ids = *std::max_element(result.assignment.begin(),
                                    result.assignment.end()) + 1;
  const core::ProfileSet bank =
      core::ProfileSet::from_assignment(table, result.assignment, ids);
  std::vector<std::vector<std::size_t>> members(static_cast<std::size_t>(ids));
  for (std::size_t i = 0; i < result.assignment.size(); ++i) {
    members[static_cast<std::size_t>(result.assignment[i])].push_back(i);
  }
  for (int id = 0; id < ids; ++id) {
    std::vector<std::size_t>& rows = members[static_cast<std::size_t>(id)];
    if (rows.empty()) continue;
    result.groups.push_back(profile_group(table, bank, id, std::move(rows)));
  }
  return result;
}

}  // namespace mcdc::dist

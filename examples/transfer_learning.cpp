// Transfer learning (Section IV-D): learn a policy on one task instance
// and apply it to another.
//
// Two regimes are shown:
//  1. M.S. DS-CT -> M.S. CS: the programs share course codes, so the
//     learned Q-table transfers through exact code matching;
//  2. NYC -> Paris: the POI sets are disjoint, so each Paris POI is matched
//     to its most theme-similar NYC POI and Q-values are pulled through
//     that mapping.
// The example also saves and reloads a policy as a binary snapshot (the file
// `rlplanner_cli save-snapshot` writes and `load-snapshot` reads), which is
// how a deployment would ship pre-trained policies.

#include <cstdio>

#include "core/planner.h"
#include "datagen/course_data.h"
#include "datagen/trip_data.h"
#include "rl/transfer.h"
#include "serve/policy_snapshot.h"

namespace {

void ShowTransfer(const rlplanner::datagen::Dataset& source,
                  const rlplanner::datagen::Dataset& target,
                  const rlplanner::core::PlannerConfig& base_config) {
  using namespace rlplanner;
  std::printf("== learn on %s, plan for %s ==\n", source.name.c_str(),
              target.name.c_str());

  const model::TaskInstance source_instance = source.Instance();
  core::PlannerConfig config = base_config;
  config.sarsa.start_item = source.default_start;
  core::RlPlanner source_planner(source_instance, config);
  if (const auto status = source_planner.Train(); !status.ok()) {
    std::fprintf(stderr, "training failed: %s\n", status.ToString().c_str());
    return;
  }

  // Map the policy into the target catalog and adopt it.
  const model::TaskInstance target_instance = target.Instance();
  core::PlannerConfig target_config = base_config;
  core::RlPlanner target_planner(target_instance, target_config);
  auto adopted = target_planner.AdoptPolicy(rl::PolicyTransfer::MapAcrossCatalogs(
      source_planner.q_table(), source.catalog, target.catalog));
  if (!adopted.ok()) {
    std::fprintf(stderr, "%s\n", adopted.ToString().c_str());
    return;
  }

  auto plan = target_planner.Recommend(target.default_start);
  if (!plan.ok()) {
    std::fprintf(stderr, "%s\n", plan.status().ToString().c_str());
    return;
  }
  std::printf("  plan:  %s\n", plan.value().ToString(target.catalog).c_str());
  std::printf("  check: %s, score %.2f\n\n",
              target_planner.Validate(plan.value()).ToString().c_str(),
              target_planner.Score(plan.value()));
}

}  // namespace

int main() {
  using namespace rlplanner;

  const datagen::Dataset ds_ct = datagen::MakeUniv1DsCt();
  const datagen::Dataset cs = datagen::MakeUniv1Cs();
  ShowTransfer(ds_ct, cs, core::DefaultUniv1Config());

  const datagen::Dataset nyc = datagen::MakeNycTrip();
  const datagen::Dataset paris = datagen::MakeParisTrip();
  ShowTransfer(nyc, paris, core::DefaultTripConfig());

  // Persistence: train once, save the policy as a checksummed snapshot
  // (which also records the catalog fingerprint and training provenance),
  // reload it elsewhere.
  const model::TaskInstance instance = ds_ct.Instance();
  core::PlannerConfig config = core::DefaultUniv1Config();
  config.sarsa.start_item = ds_ct.default_start;
  core::RlPlanner trained(instance, config);
  const char* path = "rlplanner_policy.snap";
  if (!trained.Train().ok()) return 1;
  auto snapshot = serve::MakeSnapshot(trained);
  if (!snapshot.ok() || !snapshot.value().SaveToFile(path).ok()) return 1;
  auto loaded = serve::PolicySnapshot::LoadFromFile(path);
  std::remove(path);
  if (!loaded.ok() ||
      loaded.value().catalog_fingerprint !=
          serve::CatalogFingerprint(ds_ct.catalog)) {
    return 1;
  }
  core::RlPlanner reloaded(instance, config);
  if (!reloaded.AdoptPolicy(loaded.value().table).ok()) return 1;
  auto plan = reloaded.Recommend(ds_ct.default_start);
  std::printf("== reloaded policy from snapshot ==\n  score %.2f (%s)\n",
              plan.ok() ? reloaded.Score(plan.value()) : -1.0,
              plan.ok() ? reloaded.Validate(plan.value()).ToString().c_str()
                        : "recommendation failed");
  return 0;
}

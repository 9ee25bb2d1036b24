// Plan serialization must round-trip every scheme's plan, not just the
// batch scheme's (different mount policies, alignments, pinning).
#include <gtest/gtest.h>

#include "cluster/hierarchy.hpp"
#include "exp/experiment.hpp"
#include "trace/plan_io.hpp"

namespace tapesim::trace {
namespace {

class PlanIoSchemes : public ::testing::TestWithParam<int> {};

TEST_P(PlanIoSchemes, RoundTripsAndResimulates) {
  exp::ExperimentConfig config;
  config.spec.num_libraries = 2;
  config.spec.library.drives_per_library = 3;
  config.spec.library.tapes_per_library = 10;
  config.spec.library.tape_capacity = 40_GB;
  config.workload.num_objects = 600;
  config.workload.num_requests = 20;
  config.workload.min_objects_per_request = 10;
  config.workload.max_objects_per_request = 18;
  config.workload.object_groups = 12;
  config.workload.min_object_size = Bytes{100ULL * 1000 * 1000};
  config.workload.max_object_size = 1_GB;
  const exp::Experiment experiment(config);
  const auto schemes = exp::make_standard_schemes(1);
  const core::PlacementScheme* list[] = {schemes.parallel_batch.get(),
                                         schemes.object_probability.get(),
                                         schemes.cluster_probability.get()};
  const core::PlacementScheme& scheme = *list[GetParam()];

  core::PlacementContext context{&experiment.workload(), &config.spec,
                                 &experiment.clusters()};
  const core::PlacementPlan original = scheme.place(context);

  std::stringstream layout;
  std::stringstream policy;
  save_plan(original, layout, policy);
  const core::PlacementPlan loaded =
      load_plan(config.spec, experiment.workload(), layout, policy);

  EXPECT_EQ(loaded.mount_policy.replacement,
            original.mount_policy.replacement);
  EXPECT_EQ(loaded.mount_policy.drive_pinned,
            original.mount_policy.drive_pinned);
  const auto a = exp::simulate_plan(original, 25, 5);
  const auto b = exp::simulate_plan(loaded, 25, 5);
  EXPECT_DOUBLE_EQ(a.mean_response().count(), b.mean_response().count());
  EXPECT_DOUBLE_EQ(a.mean_switch().count(), b.mean_switch().count());
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, PlanIoSchemes,
                         ::testing::Values(0, 1, 2),
                         [](const ::testing::TestParamInfo<int>& param) {
                           const int i = param.param;
                           return std::string(i == 0   ? "pbp"
                                              : i == 1 ? "opp"
                                                       : "cpp");
                         });

}  // namespace
}  // namespace tapesim::trace

#include "workload/generator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <unordered_map>

namespace tapesim::workload {
namespace {

WorkloadConfig small_config() {
  WorkloadConfig config;
  config.num_objects = 2000;
  config.num_requests = 50;
  config.min_objects_per_request = 20;
  config.max_objects_per_request = 30;
  config.object_groups = 40;
  return config;
}

TEST(Generator, ConfigValidation) {
  WorkloadConfig c = small_config();
  EXPECT_NO_THROW(c.validate());

  c.num_objects = 0;
  EXPECT_THROW(c.validate(), std::invalid_argument);

  c = small_config();
  c.max_objects_per_request = c.num_objects + 1;
  EXPECT_THROW(c.validate(), std::invalid_argument);

  c = small_config();
  c.min_objects_per_request = 40;  // > max (30)
  EXPECT_THROW(c.validate(), std::invalid_argument);

  c = small_config();
  c.min_object_size = 2_GB;
  c.max_object_size = 1_GB;
  EXPECT_THROW(c.validate(), std::invalid_argument);

  c = small_config();
  c.request_locality = 1.5;
  EXPECT_THROW(c.validate(), std::invalid_argument);

  c = small_config();
  c.zipf_alpha = -0.1;
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(Generator, ProducesRequestedCounts) {
  Rng rng{1};
  const Workload wl = generate_workload(small_config(), rng);
  EXPECT_EQ(wl.object_count(), 2000u);
  EXPECT_EQ(wl.request_count(), 50u);
  wl.validate();
}

TEST(Generator, ObjectSizesWithinConfiguredRange) {
  Rng rng{2};
  const WorkloadConfig config = small_config();
  const Workload wl = generate_workload(config, rng);
  for (const ObjectInfo& o : wl.objects()) {
    EXPECT_GE(o.size, config.min_object_size);
    EXPECT_LE(o.size, config.max_object_size);
  }
}

TEST(Generator, RequestSizesWithinConfiguredRange) {
  Rng rng{3};
  const WorkloadConfig config = small_config();
  const Workload wl = generate_workload(config, rng);
  for (const Request& r : wl.requests()) {
    EXPECT_GE(r.objects.size(), config.min_objects_per_request);
    EXPECT_LE(r.objects.size(), config.max_objects_per_request);
  }
}

TEST(Generator, RequestObjectsAreDistinct) {
  Rng rng{4};
  const Workload wl = generate_workload(small_config(), rng);
  for (const Request& r : wl.requests()) {
    std::set<std::uint32_t> unique;
    for (const ObjectId o : r.objects) unique.insert(o.value());
    EXPECT_EQ(unique.size(), r.objects.size());
  }
}

TEST(Generator, PopularityFollowsZipfOrdering) {
  Rng rng{5};
  WorkloadConfig config = small_config();
  config.zipf_alpha = 0.7;
  const Workload wl = generate_workload(config, rng);
  double sum = 0.0;
  for (std::size_t r = 0; r < wl.request_count(); ++r) {
    const double p = wl.requests()[r].probability;
    sum += p;
    if (r > 0) {
      EXPECT_LE(p, wl.requests()[r - 1].probability);
    }
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
  // Exact Zipf ratio: p[0] / p[9] == 10^0.7.
  EXPECT_NEAR(wl.requests()[0].probability / wl.requests()[9].probability,
              std::pow(10.0, 0.7), 1e-9);
}

TEST(Generator, DeterministicGivenSeed) {
  Rng rng1{42};
  Rng rng2{42};
  const Workload a = generate_workload(small_config(), rng1);
  const Workload b = generate_workload(small_config(), rng2);
  ASSERT_EQ(a.object_count(), b.object_count());
  for (std::uint32_t i = 0; i < a.object_count(); ++i) {
    EXPECT_EQ(a.objects()[i].size, b.objects()[i].size);
  }
  for (std::uint32_t r = 0; r < a.request_count(); ++r) {
    EXPECT_EQ(a.requests()[r].objects, b.requests()[r].objects);
  }
}

TEST(Generator, DifferentSeedsProduceDifferentWorkloads) {
  Rng rng1{1};
  Rng rng2{2};
  const Workload a = generate_workload(small_config(), rng1);
  const Workload b = generate_workload(small_config(), rng2);
  bool any_difference = false;
  for (std::uint32_t i = 0; i < a.object_count() && !any_difference; ++i) {
    any_difference = a.objects()[i].size != b.objects()[i].size;
  }
  EXPECT_TRUE(any_difference);
}

TEST(Generator, LocalityConcentratesRequestsOnGroups) {
  // With locality 1.0 and group size >= request size, any two requests
  // either share a home group (huge overlap) or share nothing.
  Rng rng{6};
  WorkloadConfig config = small_config();
  config.request_locality = 1.0;
  const Workload wl = generate_workload(config, rng);
  for (std::size_t i = 0; i < 10; ++i) {
    for (std::size_t j = i + 1; j < 10; ++j) {
      const auto& a = wl.requests()[i].objects;
      const auto& b = wl.requests()[j].objects;
      std::set<std::uint32_t> sa;
      for (const ObjectId o : a) sa.insert(o.value());
      std::size_t shared = 0;
      for (const ObjectId o : b) shared += sa.count(o.value());
      const double frac =
          static_cast<double>(shared) / static_cast<double>(b.size());
      EXPECT_TRUE(frac == 0.0 || frac > 0.3)
          << "requests " << i << "," << j << " share fraction " << frac;
    }
  }
}

TEST(Generator, ZeroLocalitySpreadsUniformly) {
  Rng rng{7};
  WorkloadConfig config = small_config();
  config.request_locality = 0.0;
  const Workload wl = generate_workload(config, rng);
  // Objects drawn uniformly: the most popular object should appear in only
  // a few requests.
  std::unordered_map<std::uint32_t, int> appearances;
  for (const Request& r : wl.requests()) {
    for (const ObjectId o : r.objects) ++appearances[o.value()];
  }
  int max_appearances = 0;
  for (const auto& [_, count] : appearances) {
    max_appearances = std::max(max_appearances, count);
  }
  EXPECT_LE(max_appearances, 6);
}

TEST(Generator, AnalyticExpectationsRoughlyMatchEmpirical) {
  Rng rng{8};
  WorkloadConfig config = WorkloadConfig::paper_default();
  config.num_objects = 20000;
  const Workload wl = generate_workload(config, rng);
  double mean_size = 0.0;
  for (const ObjectInfo& o : wl.objects()) mean_size += o.size.as_double();
  mean_size /= wl.object_count();
  EXPECT_NEAR(mean_size, config.expected_object_size().as_double(),
              0.1 * config.expected_object_size().as_double());
}

TEST(Generator, WithAverageRequestSizeHitsTarget) {
  const WorkloadConfig base = WorkloadConfig::paper_default();
  const Bytes target{160ULL * 1000 * 1000 * 1000};
  const WorkloadConfig scaled = base.with_average_request_size(target);
  EXPECT_NEAR(scaled.expected_request_size().as_double(), target.as_double(),
              0.01 * target.as_double());
  // The range ratio is preserved.
  const double base_ratio =
      base.max_object_size.as_double() / base.min_object_size.as_double();
  const double scaled_ratio = scaled.max_object_size.as_double() /
                              scaled.min_object_size.as_double();
  EXPECT_NEAR(scaled_ratio, base_ratio, 0.01 * base_ratio);
}

TEST(Generator, PaperDefaultAveragesNear213GB) {
  // Figure 6's text quotes an average request size around 213 GB.
  const WorkloadConfig config = WorkloadConfig::paper_default();
  const double expected_gb =
      config.expected_request_size().as_double() / 1e9;
  EXPECT_GT(expected_gb, 180.0);
  EXPECT_LT(expected_gb, 240.0);
}

TEST(Sampler, DrawsByPopularity) {
  Rng rng{9};
  WorkloadConfig config = small_config();
  config.zipf_alpha = 1.0;
  const Workload wl = generate_workload(config, rng);
  const RequestSampler sampler(wl);
  Rng sample_rng{10};
  std::vector<int> counts(wl.request_count(), 0);
  const int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    ++counts[sampler.sample(sample_rng).index()];
  }
  for (std::size_t r = 0; r < wl.request_count(); ++r) {
    const double expected = wl.requests()[r].probability * kDraws;
    EXPECT_NEAR(counts[r], expected, 5.0 * std::sqrt(expected) + 5.0);
  }
}

TEST(Generator, SingleGroupDegeneratesGracefully) {
  Rng rng{11};
  WorkloadConfig config = small_config();
  config.object_groups = 1;
  const Workload wl = generate_workload(config, rng);
  wl.validate();
  EXPECT_EQ(wl.object_count(), 2000u);
}

TEST(Generator, EqualSizeObjects) {
  Rng rng{12};
  WorkloadConfig config = small_config();
  config.min_object_size = config.max_object_size = 2_GB;
  const Workload wl = generate_workload(config, rng);
  for (const ObjectInfo& o : wl.objects()) EXPECT_EQ(o.size, 2_GB);
  EXPECT_EQ(config.expected_object_size(), 2_GB);
}

TEST(Generator, FixedObjectsPerRequest) {
  Rng rng{13};
  WorkloadConfig config = small_config();
  config.min_objects_per_request = config.max_objects_per_request = 25;
  const Workload wl = generate_workload(config, rng);
  for (const Request& r : wl.requests()) EXPECT_EQ(r.objects.size(), 25u);
  EXPECT_DOUBLE_EQ(config.expected_objects_per_request(), 25.0);
}

}  // namespace
}  // namespace tapesim::workload

#include "util/distributions.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>

#include "util/rng.hpp"
#include "util/stats.hpp"

namespace tapesim {
namespace {

TEST(BoundedPareto, RejectsBadParameters) {
  EXPECT_THROW(BoundedParetoDistribution(0.0, 1.0, 1.0),
               std::invalid_argument);
  EXPECT_THROW(BoundedParetoDistribution(2.0, 1.0, 1.0),
               std::invalid_argument);
  EXPECT_THROW(BoundedParetoDistribution(1.0, 2.0, 0.0),
               std::invalid_argument);
  EXPECT_THROW(BoundedParetoDistribution(1.0, 2.0, -1.0),
               std::invalid_argument);
}

TEST(BoundedPareto, SamplesStayInRange) {
  const BoundedParetoDistribution dist(2.0, 50.0, 1.3);
  Rng rng{1};
  for (int i = 0; i < 100000; ++i) {
    const double x = dist.sample(rng);
    ASSERT_GE(x, 2.0);
    ASSERT_LE(x, 50.0);
  }
}

TEST(BoundedPareto, DegenerateRangeIsConstant) {
  const BoundedParetoDistribution dist(5.0, 5.0, 2.0);
  Rng rng{2};
  for (int i = 0; i < 10; ++i) EXPECT_DOUBLE_EQ(dist.sample(rng), 5.0);
  EXPECT_DOUBLE_EQ(dist.mean(), 5.0);
}

class BoundedParetoMean
    : public ::testing::TestWithParam<std::tuple<double, double, double>> {};

TEST_P(BoundedParetoMean, EmpiricalMeanMatchesAnalytic) {
  const auto [lo, hi, alpha] = GetParam();
  const BoundedParetoDistribution dist(lo, hi, alpha);
  Rng rng{42};
  RunningStats stats;
  const int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) stats.add(dist.sample(rng));
  // 5-sigma band around the analytic mean.
  const double sem = stats.stddev() / std::sqrt(double(kDraws));
  EXPECT_NEAR(stats.mean(), dist.mean(), 5.0 * sem + 1e-9)
      << "lo=" << lo << " hi=" << hi << " alpha=" << alpha;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BoundedParetoMean,
    ::testing::Values(std::tuple{1.0, 2.0, 2.0}, std::tuple{1.0, 64.0, 1.2},
                      std::tuple{100.0, 150.0, 1.5},
                      std::tuple{1.0, 100.0, 1.0},  // alpha == 1 special case
                      std::tuple{0.5, 32.0, 0.7},
                      std::tuple{10.0, 11.0, 3.0}));

TEST(BoundedPareto, AnalyticMeanKnownValue) {
  // lo=1, hi=2, alpha=2: E[X] = 4/3 (hand-derived).
  const BoundedParetoDistribution dist(1.0, 2.0, 2.0);
  EXPECT_NEAR(dist.mean(), 4.0 / 3.0, 1e-12);
}

TEST(BoundedPareto, SkewsTowardLowerBound) {
  const BoundedParetoDistribution dist(1.0, 100.0, 1.5);
  Rng rng{3};
  int below_10 = 0;
  const int kDraws = 10000;
  for (int i = 0; i < kDraws; ++i) {
    if (dist.sample(rng) < 10.0) ++below_10;
  }
  EXPECT_GT(below_10, kDraws * 8 / 10);  // heavy lower tail
}

TEST(Zipf, RejectsBadParameters) {
  EXPECT_THROW(ZipfDistribution(0, 0.5), std::invalid_argument);
  EXPECT_THROW(ZipfDistribution(10, -0.1), std::invalid_argument);
}

TEST(Zipf, ProbabilitiesAreNormalizedAndMonotone) {
  const ZipfDistribution dist(300, 0.7);
  const auto& probs = dist.probabilities();
  ASSERT_EQ(probs.size(), 300u);
  double sum = 0.0;
  for (std::size_t r = 0; r < probs.size(); ++r) {
    sum += probs[r];
    if (r > 0) {
      EXPECT_LE(probs[r], probs[r - 1]);
    }
  }
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(Zipf, AlphaZeroIsUniform) {
  const ZipfDistribution dist(50, 0.0);
  for (const double p : dist.probabilities()) {
    EXPECT_NEAR(p, 1.0 / 50.0, 1e-12);
  }
}

TEST(Zipf, ExactPowerLawRatios) {
  const ZipfDistribution dist(10, 1.0);
  const auto& p = dist.probabilities();
  // P_r = c / r, so p[0] / p[r] == r + 1.
  for (std::size_t r = 0; r < 10; ++r) {
    EXPECT_NEAR(p[0] / p[r], static_cast<double>(r + 1), 1e-9);
  }
}

class ZipfSampling : public ::testing::TestWithParam<double> {};

TEST_P(ZipfSampling, EmpiricalFrequenciesMatchProbabilities) {
  const double alpha = GetParam();
  const std::size_t n = 40;
  const ZipfDistribution dist(n, alpha);
  Rng rng{99};
  std::vector<int> counts(n, 0);
  const int kDraws = 400000;
  for (int i = 0; i < kDraws; ++i) ++counts[dist.sample(rng)];
  for (std::size_t r = 0; r < n; ++r) {
    const double expected = dist.probabilities()[r] * kDraws;
    const double tolerance = 5.0 * std::sqrt(expected) + 5.0;
    EXPECT_NEAR(counts[r], expected, tolerance) << "rank " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(Alphas, ZipfSampling,
                         ::testing::Values(0.0, 0.3, 0.7, 1.0));

TEST(Discrete, RejectsDegenerateWeights) {
  EXPECT_THROW(DiscreteDistribution({}), std::invalid_argument);
  EXPECT_THROW(DiscreteDistribution({0.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(DiscreteDistribution({1.0, -0.5}), std::invalid_argument);
}

TEST(Discrete, NormalizesWeights) {
  const DiscreteDistribution dist({2.0, 6.0});
  EXPECT_NEAR(dist.probabilities()[0], 0.25, 1e-12);
  EXPECT_NEAR(dist.probabilities()[1], 0.75, 1e-12);
}

TEST(Discrete, ZeroWeightEntriesNeverSampled) {
  const DiscreteDistribution dist({1.0, 0.0, 1.0, 0.0});
  Rng rng{5};
  for (int i = 0; i < 10000; ++i) {
    const std::size_t s = dist.sample(rng);
    EXPECT_TRUE(s == 0 || s == 2);
  }
}

TEST(Discrete, SingleOutcome) {
  const DiscreteDistribution dist({3.0});
  Rng rng{6};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(dist.sample(rng), 0u);
}

TEST(SampleWithoutReplacement, ProducesDistinctValuesInRange) {
  Rng rng{7};
  for (int trial = 0; trial < 100; ++trial) {
    const auto picks = sample_without_replacement(100, 30, rng);
    ASSERT_EQ(picks.size(), 30u);
    std::set<std::uint32_t> unique(picks.begin(), picks.end());
    EXPECT_EQ(unique.size(), 30u);
    for (const auto p : picks) EXPECT_LT(p, 100u);
  }
}

TEST(SampleWithoutReplacement, FullDrawIsAPermutation) {
  Rng rng{8};
  const auto picks = sample_without_replacement(20, 20, rng);
  std::set<std::uint32_t> unique(picks.begin(), picks.end());
  EXPECT_EQ(unique.size(), 20u);
}

TEST(SampleWithoutReplacement, IsApproximatelyUniform) {
  Rng rng{9};
  std::vector<int> counts(10, 0);
  const int kTrials = 50000;
  for (int t = 0; t < kTrials; ++t) {
    for (const auto p : sample_without_replacement(10, 3, rng)) ++counts[p];
  }
  for (const int c : counts) {
    EXPECT_NEAR(c, kTrials * 3 / 10, kTrials / 20);
  }
}

TEST(SampleWithoutReplacement, ZeroDraw) {
  Rng rng{10};
  EXPECT_TRUE(sample_without_replacement(5, 0, rng).empty());
}

}  // namespace
}  // namespace tapesim

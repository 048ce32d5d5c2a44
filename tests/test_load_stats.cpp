#include <gtest/gtest.h>

#include "net/load_stats.hpp"
#include "net/simulator.hpp"
#include "oracle/routers.hpp"
#include "testing_util.hpp"

namespace dbn::net {
namespace {

TEST(LoadStats, GiniOfUniformIsZero) {
  EXPECT_DOUBLE_EQ(gini_coefficient(std::vector<double>{5, 5, 5, 5}), 0.0);
  EXPECT_DOUBLE_EQ(gini_coefficient(std::vector<double>{}), 0.0);
  EXPECT_DOUBLE_EQ(gini_coefficient(std::vector<double>{0, 0, 0}), 0.0);
}

TEST(LoadStats, GiniOfConcentratedLoadApproachesOne) {
  std::vector<double> values(100, 0.0);
  values[0] = 1000.0;
  const double g = gini_coefficient(values);
  EXPECT_GT(g, 0.95);
  EXPECT_LE(g, 1.0);
}

TEST(LoadStats, GiniIsScaleInvariantAndOrderInvariant) {
  const std::vector<double> a = {1, 2, 3, 4};
  const std::vector<double> b = {4, 2, 1, 3};
  std::vector<double> scaled;
  for (const double v : a) {
    scaled.push_back(10 * v);
  }
  EXPECT_NEAR(gini_coefficient(a), gini_coefficient(b), 1e-12);
  EXPECT_NEAR(gini_coefficient(a), gini_coefficient(scaled), 1e-12);
  // Known value for {1,2,3,4}: G = 0.25.
  EXPECT_NEAR(gini_coefficient(a), 0.25, 1e-12);
}

TEST(LoadStats, CoefficientOfVariation) {
  EXPECT_DOUBLE_EQ(coefficient_of_variation({4, 4, 4}), 0.0);
  EXPECT_DOUBLE_EQ(coefficient_of_variation({}), 0.0);
  // {0, 2}: mean 1, stddev 1 -> CV 1.
  EXPECT_DOUBLE_EQ(coefficient_of_variation({0, 2}), 1.0);
}

TEST(LoadStats, SimulatorLinkTransmissionsConserveHops) {
  SimConfig config;
  config.radix = 2;
  config.k = 5;
  Simulator sim(config);
  Rng rng(7);
  std::uint64_t expected = 0;
  for (int i = 0; i < 60; ++i) {
    const Word src = testing::random_word(rng, 2, 5);
    const Word dst = testing::random_word(rng, 2, 5);
    const RoutingPath path = route_bidirectional_mp(src, dst);
    expected += path.length();
    sim.inject(0.5 * i, Message(ControlCode::Data, src, dst, path));
  }
  sim.run();
  std::uint64_t transmitted = 0;
  for (const std::uint64_t t : sim.link_transmissions()) {
    transmitted += t;
  }
  EXPECT_EQ(transmitted, expected);
  EXPECT_EQ(sim.stats().total_hops, expected);
}

TEST(LoadStats, RandomPolicySpreadsLoadBetterThanZero) {
  auto run = [](WildcardPolicy policy) {
    SimConfig config;
    config.radix = 2;
    config.k = 7;
    config.wildcard_policy = policy;
    config.seed = 11;
    Simulator sim(config);
    Rng rng(13);
    for (int i = 0; i < 600; ++i) {
      const Word src = testing::random_word(rng, 2, 7);
      const Word dst = testing::random_word(rng, 2, 7);
      sim.inject(0.1 * i,
                 Message(ControlCode::Data, src, dst,
                         route_bidirectional_mp(src, dst,
                                                WildcardMode::Wildcards)));
    }
    sim.run();
    return gini_coefficient(sim.link_transmissions());
  };
  // Zero funnels all wildcard hops through 0-digit links; Random spreads
  // them. The gap is small but consistent under a fixed seed.
  EXPECT_LT(run(WildcardPolicy::Random), run(WildcardPolicy::Zero));
}

}  // namespace
}  // namespace dbn::net

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>

#include "common/contract.hpp"
#include "net/traffic.hpp"
#include "testing_util.hpp"

namespace dbn::net {
namespace {

TEST(Traffic, UniformScheduleIsSortedAndInRange) {
  Rng rng(1);
  const auto schedule = uniform_traffic(2, 4, 0.5, 50.0, rng);
  ASSERT_FALSE(schedule.empty());
  const std::uint64_t n = 16;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    EXPECT_GE(schedule[i].time, 0.0);
    EXPECT_LT(schedule[i].time, 50.0);
    EXPECT_LT(schedule[i].source, n);
    EXPECT_LT(schedule[i].destination, n);
    if (i > 0) {
      EXPECT_LE(schedule[i - 1].time, schedule[i].time);
    }
  }
}

TEST(Traffic, UniformRateControlsVolume) {
  Rng rng(2);
  // Expected messages = N * rate * duration = 16 * 0.5 * 200 = 1600.
  const auto schedule = uniform_traffic(2, 4, 0.5, 200.0, rng);
  EXPECT_NEAR(static_cast<double>(schedule.size()), 1600.0, 200.0);
  // Sources are roughly balanced.
  std::vector<int> per_source(16, 0);
  for (const auto& inj : schedule) {
    ++per_source[inj.source];
  }
  for (int c : per_source) {
    EXPECT_NEAR(c, 100, 50);
  }
}

TEST(Traffic, UniformRejectsBadParameters) {
  Rng rng(3);
  EXPECT_THROW(uniform_traffic(2, 3, 0.0, 10.0, rng), ContractViolation);
  EXPECT_THROW(uniform_traffic(2, 3, 1.0, 0.0, rng), ContractViolation);
  // Infinite values would schedule messages forever.
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(uniform_traffic(2, 3, inf, 10.0, rng), ContractViolation);
  EXPECT_THROW(uniform_traffic(2, 3, 1.0, inf, rng), ContractViolation);
}

TEST(Traffic, HotspotSkewsDestinations) {
  Rng rng(4);
  const std::uint64_t hotspot = 5;
  const auto schedule = hotspot_traffic(2, 4, 0.5, 200.0, 0.6, hotspot, rng);
  std::size_t to_hotspot = 0;
  for (const auto& inj : schedule) {
    to_hotspot += (inj.destination == hotspot);
  }
  const double fraction =
      static_cast<double>(to_hotspot) / static_cast<double>(schedule.size());
  // 0.6 redirected plus ~1/16 of the remainder.
  EXPECT_NEAR(fraction, 0.6 + 0.4 / 16.0, 0.05);
}

TEST(Traffic, HotspotValidatesArguments) {
  Rng rng(5);
  EXPECT_THROW(hotspot_traffic(2, 3, 1.0, 1.0, 1.5, 0, rng),
               ContractViolation);
  EXPECT_THROW(hotspot_traffic(2, 3, 1.0, 1.0, 0.5, 8, rng),
               ContractViolation);
}

TEST(Traffic, PermutationIsABijectionAtTimeZero) {
  Rng rng(6);
  const auto schedule = permutation_traffic(3, 3, rng);
  ASSERT_EQ(schedule.size(), 27u);
  std::set<std::uint64_t> sources, destinations;
  for (const auto& inj : schedule) {
    EXPECT_DOUBLE_EQ(inj.time, 0.0);
    sources.insert(inj.source);
    destinations.insert(inj.destination);
  }
  EXPECT_EQ(sources.size(), 27u);
  EXPECT_EQ(destinations.size(), 27u);
}

TEST(Traffic, ReversalMapsToDigitReversedAddress) {
  const auto schedule = reversal_traffic(2, 4);
  ASSERT_EQ(schedule.size(), 16u);
  for (const auto& inj : schedule) {
    const Word src = Word::from_rank(2, 4, inj.source);
    EXPECT_EQ(inj.destination, src.reversed().rank());
  }
  // Reversal is an involution: applying it twice is the identity.
  EXPECT_EQ(schedule[6].destination,
            Word::from_rank(2, 4, 6).reversed().rank());
}

}  // namespace
}  // namespace dbn::net

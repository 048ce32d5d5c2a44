#include <vector>

#include <gtest/gtest.h>

#include "common/contract.hpp"
#include "common/rng.hpp"
#include "core/path.hpp"
#include "testing_util.hpp"

namespace dbn {
namespace {

TEST(RoutingPath, ApplyFollowsShiftSemantics) {
  const Word x(2, {0, 1, 1});
  RoutingPath path({{ShiftType::Left, 0}, {ShiftType::Right, 1}});
  // (0,1,1) -L0-> (1,1,0) -R1-> (1,1,1).
  EXPECT_EQ(path.apply(x), Word(2, {1, 1, 1}));
}

TEST(RoutingPath, EmptyPathIsIdentity) {
  const Word x(3, {2, 0, 1});
  EXPECT_EQ(RoutingPath{}.apply(x), x);
  EXPECT_TRUE(RoutingPath{}.empty());
}

TEST(RoutingPath, WildcardUsesResolver) {
  const Word x(2, {0, 0});
  RoutingPath path({{ShiftType::Left, kWildcard}, {ShiftType::Left, kWildcard}});
  EXPECT_TRUE(path.has_wildcards());
  // Default resolver substitutes zeros.
  EXPECT_EQ(path.apply(x), Word(2, {0, 0}));
  // A custom resolver sees index, type, and current word.
  std::vector<std::size_t> indices;
  const Word got = path.apply(x, [&](std::size_t i, ShiftType t, const Word& at) {
    EXPECT_EQ(t, ShiftType::Left);
    EXPECT_EQ(at.length(), 2u);
    indices.push_back(i);
    return static_cast<Digit>(1);
  });
  EXPECT_EQ(got, Word(2, {1, 1}));
  EXPECT_EQ(indices, (std::vector<std::size_t>{0, 1}));
}

TEST(RoutingPath, ConcretePathHasNoWildcards) {
  RoutingPath path({{ShiftType::Right, 1}});
  EXPECT_FALSE(path.has_wildcards());
}

TEST(RoutingPath, ApplyRejectsOutOfRangeDigit) {
  const Word x(2, {0, 1});
  RoutingPath path({{ShiftType::Left, 5}});
  EXPECT_THROW(path.apply(x), ContractViolation);
}

TEST(RoutingPath, ToStringUsesPaperNotation) {
  RoutingPath path({{ShiftType::Left, 1}, {ShiftType::Right, kWildcard}});
  EXPECT_EQ(path.to_string(), "{(0,1),(1,*)}");
  EXPECT_EQ(RoutingPath{}.to_string(), "{}");
}

TEST(RoutingPath, HopAccessorBoundsChecked) {
  RoutingPath path({{ShiftType::Left, 0}});
  EXPECT_EQ(path.hop(0), (Hop{ShiftType::Left, 0}));
  EXPECT_THROW(path.hop(1), ContractViolation);
}

TEST(RoutingPath, RandomWalkMatchesManualShifts) {
  Rng rng(66);
  for (int trial = 0; trial < 100; ++trial) {
    const std::uint32_t d = 2 + trial % 4;
    const std::size_t k = 1 + rng.below(8);
    Word w = testing::random_word(rng, d, k);
    RoutingPath path;
    Word expected = w;
    for (int h = 0; h < 12; ++h) {
      const Digit a = static_cast<Digit>(rng.below(d));
      if (rng.chance(0.5)) {
        path.push({ShiftType::Left, a});
        expected.left_shift_inplace(a);
      } else {
        path.push({ShiftType::Right, a});
        expected.right_shift_inplace(a);
      }
    }
    EXPECT_EQ(path.apply(w), expected);
    EXPECT_EQ(path.length(), 12u);
  }
}

TEST(RoutingPath, ReachesAgreesWithApply) {
  // The allocation-free replay the route audit runs: on random walks with
  // wildcards, longer and shorter than the word, it accepts exactly the
  // word apply() reaches and rejects one changed digit of it.
  Rng rng(67);
  for (int trial = 0; trial < 300; ++trial) {
    const std::uint32_t d = 2 + trial % 3;
    const std::size_t k = 1 + rng.below(10);
    const Word x = testing::random_word(rng, d, k);
    RoutingPath path;
    const std::size_t hops = rng.below(3 * k);
    for (std::size_t h = 0; h < hops; ++h) {
      const Digit a =
          rng.chance(0.2) ? kWildcard : static_cast<Digit>(rng.below(d));
      path.push({rng.chance(0.5) ? ShiftType::Left : ShiftType::Right, a});
    }
    const Word reached = path.apply(x);
    EXPECT_TRUE(path.reaches(x, reached)) << path.to_string();
    const std::size_t i = rng.below(k);
    std::vector<Digit> digits(reached.symbols().begin(),
                              reached.symbols().end());
    digits[i] = (digits[i] + 1) % d;
    EXPECT_FALSE(path.reaches(x, Word(d, digits))) << path.to_string();
  }
  // Out-of-range digits, where apply throws, and mismatched shapes.
  const Word x(2, {0, 1});
  EXPECT_FALSE(RoutingPath({{ShiftType::Left, 5}}).reaches(x, Word(2, {1, 1})));
  EXPECT_FALSE(RoutingPath{}.reaches(x, Word(2, {0, 1, 1})));
  EXPECT_FALSE(RoutingPath{}.reaches(x, Word(3, {0, 1})));
  EXPECT_TRUE(RoutingPath{}.reaches(x, x));
}

}  // namespace
}  // namespace dbn

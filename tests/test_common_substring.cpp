#include <gtest/gtest.h>

#include "common/contract.hpp"
#include "common/rng.hpp"
#include "oracle/common_substring.hpp"
#include "oracle/naive.hpp"
#include "strings/matching.hpp"
#include "testing_util.hpp"

namespace dbn {
namespace {

using dbn::testing::random_symbols;
using strings::OverlapMin;
using strings::to_symbols;

TEST(MinLCostSuffixTree, MatchesQuadraticScanOnRandomWords) {
  Rng rng(1001);
  for (int trial = 0; trial < 400; ++trial) {
    const std::uint32_t alphabet = 2 + trial % 4;
    const std::size_t k = 1 + rng.below(24);
    const auto x = random_symbols(rng, k, alphabet);
    const auto y = random_symbols(rng, k, alphabet);
    const OverlapMin fast = min_l_cost_suffix_tree(x, y);
    const OverlapMin slow = strings::min_l_cost(x, y);
    EXPECT_EQ(fast.cost, slow.cost)
        << "trial " << trial << " k=" << k << " alphabet=" << alphabet;
    // The (s,t,theta) witness must be genuine: theta <= l_{s,t}.
    if (fast.theta > 0) {
      EXPECT_LE(fast.theta,
                strings::naive::matching_l(
                    x, y, static_cast<std::size_t>(fast.s - 1),
                    static_cast<std::size_t>(fast.t - 1)))
          << "trial " << trial;
    }
    EXPECT_EQ(fast.cost, 2 * static_cast<int>(k) - 1 + fast.s - fast.t -
                             fast.theta);
  }
}

TEST(MinLCostSuffixTree, IdenticalWords) {
  const auto x = to_symbols("0101");
  const OverlapMin m = min_l_cost_suffix_tree(x, x);
  EXPECT_EQ(m.cost, 0);
  EXPECT_EQ(m.theta, 4);
}

TEST(MinLCostSuffixTree, DisjointAlphabetsGiveDiameter) {
  const auto x = to_symbols("aaaa");
  const auto y = to_symbols("bbbb");
  const OverlapMin m = min_l_cost_suffix_tree(x, y);
  EXPECT_EQ(m.cost, 4);
  EXPECT_EQ(m.theta, 0);
  EXPECT_EQ(m.s, 1);
  EXPECT_EQ(m.t, 4);
}

TEST(MinLCostSuffixTree, PaperCounterexamplePair) {
  // X = Y = (0,1): the printed Proposition 5 (tree of X ⊥ reverse(Y) ⊤)
  // would report a strictly positive l-side minimum; the correct value is 0.
  const std::vector<strings::Symbol> x = {0, 1};
  EXPECT_EQ(min_l_cost_suffix_tree(x, x).cost, 0);
}

TEST(MinLCostSuffixTree, SingleDigitWords) {
  const std::vector<strings::Symbol> a = {3};
  const std::vector<strings::Symbol> b = {3};
  const std::vector<strings::Symbol> c = {4};
  EXPECT_EQ(min_l_cost_suffix_tree(a, b).cost, 0);
  EXPECT_EQ(min_l_cost_suffix_tree(a, c).cost, 1);
}

TEST(MinLCostSuffixTree, RejectsBadInput) {
  const auto x = to_symbols("ab");
  const auto y = to_symbols("abc");
  EXPECT_THROW(min_l_cost_suffix_tree(x, y), ContractViolation);
  EXPECT_THROW(min_l_cost_suffix_tree({}, {}), ContractViolation);
}

TEST(LongestCommonSubstring, KnownExamples) {
  EXPECT_EQ(longest_common_substring_suffix_tree(to_symbols("banana"),
                                                 to_symbols("ananas")),
            5);  // "anana"
  EXPECT_EQ(longest_common_substring_suffix_tree(to_symbols("abc"),
                                                 to_symbols("xyz")),
            0);
  EXPECT_EQ(longest_common_substring_suffix_tree(to_symbols("abc"), {}), 0);
}

TEST(LongestCommonSubstring, MatchesNaiveOnRandomStrings) {
  Rng rng(1102);
  for (int trial = 0; trial < 200; ++trial) {
    const std::uint32_t alphabet = 2 + trial % 3;
    const auto a = random_symbols(rng, rng.below(40), alphabet);
    const auto b = random_symbols(rng, rng.below(40), alphabet);
    EXPECT_EQ(longest_common_substring_suffix_tree(a, b),
              strings::naive::longest_common_substring(a, b))
        << "trial " << trial;
  }
}

}  // namespace
}  // namespace dbn

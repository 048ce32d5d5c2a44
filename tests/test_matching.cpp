#include <gtest/gtest.h>

#include "common/contract.hpp"
#include "common/rng.hpp"
#include "oracle/naive.hpp"
#include "strings/matching.hpp"
#include "testing_util.hpp"

namespace dbn::strings {
namespace {

using dbn::testing::random_symbols;

TEST(MatchingRowL, HandComputedExample) {
  // x = abab, y = bbab. Row i=1 (pattern "abab"):
  //   j=1: longest prefix of "abab" ending y_1='b' -> 0
  //   j=2: 0; j=3: 'a' -> 1; j=4: "ab" -> 2.
  const auto x = to_symbols("abab");
  const auto y = to_symbols("bbab");
  EXPECT_EQ(matching_row_l(x, y, 0), (std::vector<int>{0, 0, 1, 2}));
  // Row i=2 (pattern "bab"): j=1 -> 'b' 1; j=2 -> 'b' 1; j=3 -> 0? no:
  // y_3='a', "ba" matches y_2 y_3 -> 2; j=4: "bab" -> 3.
  EXPECT_EQ(matching_row_l(x, y, 1), (std::vector<int>{1, 1, 2, 3}));
}

TEST(MatchingRowL, CapsAtPatternLength) {
  const auto x = to_symbols("ab");
  const auto y = to_symbols("ababab");
  // Pattern "ab" occurs with full length repeatedly; row must cap at 2 and
  // recover via the failure function.
  EXPECT_EQ(matching_row_l(x, y, 0), (std::vector<int>{1, 2, 1, 2, 1, 2}));
}

TEST(MatchingRowL, RejectsBadRow) {
  const auto x = to_symbols("ab");
  EXPECT_THROW(matching_row_l(x, x, 2), ContractViolation);
}

TEST(MatchingTables, MatchNaiveOnRandomStrings) {
  Rng rng(404);
  for (int trial = 0; trial < 120; ++trial) {
    const std::uint32_t alphabet = 2 + trial % 3;
    const std::size_t n = 1 + rng.below(16);
    const std::size_t m = 1 + rng.below(16);
    const auto x = random_symbols(rng, n, alphabet);
    const auto y = random_symbols(rng, m, alphabet);
    const auto l = matching_table_l(x, y);
    const auto r = matching_table_r(x, y);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < m; ++j) {
        EXPECT_EQ(l[i][j], naive::matching_l(x, y, i, j))
            << "l mismatch at i=" << i << " j=" << j << " trial " << trial;
        EXPECT_EQ(r[i][j], naive::matching_r(x, y, i, j))
            << "r mismatch at i=" << i << " j=" << j << " trial " << trial;
      }
    }
  }
}

TEST(MatchingTables, DefinitionBoundsHold) {
  // l_{i,j} <= min(j, k-i+1); r_{i,j} <= min(i, k-j+1) (paper (8)-(9)).
  Rng rng(505);
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t k = 1 + rng.below(12);
    const auto x = random_symbols(rng, k, 2);
    const auto y = random_symbols(rng, k, 2);
    const auto l = matching_table_l(x, y);
    const auto r = matching_table_r(x, y);
    for (std::size_t i0 = 0; i0 < k; ++i0) {
      for (std::size_t j0 = 0; j0 < k; ++j0) {
        EXPECT_LE(l[i0][j0], static_cast<int>(std::min(j0 + 1, k - i0)));
        EXPECT_LE(r[i0][j0], static_cast<int>(std::min(i0 + 1, k - j0)));
      }
    }
  }
}

TEST(MinLCost, MatchesNaiveEnumeration) {
  Rng rng(606);
  for (int trial = 0; trial < 200; ++trial) {
    const std::uint32_t alphabet = 2 + trial % 3;
    const std::size_t k = 1 + rng.below(14);
    const auto x = random_symbols(rng, k, alphabet);
    const auto y = random_symbols(rng, k, alphabet);
    const OverlapMin fast = min_l_cost(x, y);
    const OverlapMin brute = naive::min_l_cost(x, y);
    EXPECT_EQ(fast.cost, brute.cost) << "trial " << trial;
    // The minimizer itself may differ under ties; verify it is a witness.
    EXPECT_EQ(fast.theta,
              naive::matching_l(x, y, static_cast<std::size_t>(fast.s - 1),
                                static_cast<std::size_t>(fast.t - 1)))
        << "returned theta must equal l_{s,t}";
    EXPECT_EQ(fast.cost,
              2 * static_cast<int>(k) - 1 + fast.s - fast.t - fast.theta);
  }
}

TEST(MinLCost, IdenticalWordsGiveZero) {
  const auto x = to_symbols("0110");
  const OverlapMin m = min_l_cost(x, x);
  EXPECT_EQ(m.cost, 0);
  EXPECT_EQ(m.s, 1);
  EXPECT_EQ(m.t, 4);
  EXPECT_EQ(m.theta, 4);
}

TEST(MinLCost, NeverExceedsDiameter) {
  Rng rng(707);
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t k = 1 + rng.below(20);
    const auto x = random_symbols(rng, k, 2);
    const auto y = random_symbols(rng, k, 2);
    EXPECT_LE(min_l_cost(x, y).cost, static_cast<int>(k));
  }
}

TEST(MinLCost, RejectsMismatchedLengths) {
  const auto x = to_symbols("ab");
  const auto y = to_symbols("abc");
  EXPECT_THROW(min_l_cost(x, y), ContractViolation);
  EXPECT_THROW(min_l_cost({}, {}), ContractViolation);
}

}  // namespace
}  // namespace dbn::strings

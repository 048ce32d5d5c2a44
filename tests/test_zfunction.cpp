#include <gtest/gtest.h>

#include "common/contract.hpp"
#include "common/rng.hpp"
#include "oracle/naive.hpp"
#include "oracle/zfunction.hpp"
#include "strings/matching.hpp"
#include "testing_util.hpp"

namespace dbn::strings {
namespace {

using dbn::testing::random_symbols;

std::vector<int> naive_z(SymbolView s) {
  std::vector<int> z(s.size(), 0);
  if (!s.empty()) {
    z[0] = static_cast<int>(s.size());
  }
  for (std::size_t i = 1; i < s.size(); ++i) {
    std::size_t m = 0;
    while (i + m < s.size() && s[m] == s[i + m]) {
      ++m;
    }
    z[i] = static_cast<int>(m);
  }
  return z;
}

TEST(ZFunction, KnownExamples) {
  const auto s = to_symbols("aaabaab");
  EXPECT_EQ(z_function(s), (std::vector<int>{7, 2, 1, 0, 2, 1, 0}));
  const auto t = to_symbols("abacaba");
  EXPECT_EQ(z_function(t), (std::vector<int>{7, 0, 1, 0, 3, 0, 1}));
  EXPECT_TRUE(z_function({}).empty());
}

TEST(ZFunction, MatchesNaiveOnRandomStrings) {
  Rng rng(71);
  for (int trial = 0; trial < 300; ++trial) {
    const std::uint32_t alphabet = 2 + trial % 4;
    const auto s = random_symbols(rng, rng.below(60), alphabet);
    EXPECT_EQ(z_function(s), naive_z(s)) << "trial " << trial;
  }
}

TEST(ZMatchingRow, MatchesFailureFunctionRow) {
  Rng rng(72);
  for (int trial = 0; trial < 200; ++trial) {
    const std::uint32_t alphabet = 2 + trial % 3;
    const std::size_t n = 1 + rng.below(18);
    const std::size_t m = 1 + rng.below(18);
    const auto x = random_symbols(rng, n, alphabet);
    const auto y = random_symbols(rng, m, alphabet);
    for (std::size_t i0 = 0; i0 < n; ++i0) {
      EXPECT_EQ(matching_row_l_z(x, y, i0), matching_row_l(x, y, i0))
          << "trial " << trial << " i0=" << i0;
    }
  }
}

TEST(ZMatchingRow, RejectsBadRow) {
  const auto x = to_symbols("ab");
  EXPECT_THROW(matching_row_l_z(x, x, 2), ContractViolation);
}

TEST(ZMinLCost, MatchesOtherKernels) {
  Rng rng(73);
  for (int trial = 0; trial < 250; ++trial) {
    const std::uint32_t alphabet = 2 + trial % 4;
    const std::size_t k = 1 + rng.below(20);
    const auto x = random_symbols(rng, k, alphabet);
    const auto y = random_symbols(rng, k, alphabet);
    const OverlapMin z = min_l_cost_z(x, y);
    const OverlapMin mp = min_l_cost(x, y);
    EXPECT_EQ(z.cost, mp.cost) << "trial " << trial;
    // Witness validity.
    if (z.theta > 0) {
      EXPECT_LE(z.theta,
                naive::matching_l(x, y, static_cast<std::size_t>(z.s - 1),
                                  static_cast<std::size_t>(z.t - 1)));
    }
    EXPECT_EQ(z.cost,
              2 * static_cast<int>(k) - 1 + z.s - z.t - z.theta);
  }
}

}  // namespace
}  // namespace dbn::strings

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "common/contract.hpp"
#include "common/rng.hpp"
#include "oracle/naive.hpp"
#include "oracle/suffix_array.hpp"
#include "oracle/suffix_tree.hpp"
#include "strings/matching.hpp"
#include "testing_util.hpp"

namespace dbn::strings {
namespace {

using dbn::testing::random_symbols;

std::vector<int> brute_suffix_array(const std::vector<Symbol>& s) {
  std::vector<int> sa(s.size());
  std::iota(sa.begin(), sa.end(), 0);
  std::sort(sa.begin(), sa.end(), [&](int a, int b) {
    return std::lexicographical_compare(s.begin() + a, s.end(),
                                        s.begin() + b, s.end());
  });
  return sa;
}

int brute_lcp(const std::vector<Symbol>& s, std::size_t i, std::size_t j) {
  int l = 0;
  while (i + static_cast<std::size_t>(l) < s.size() &&
         j + static_cast<std::size_t>(l) < s.size() &&
         s[i + static_cast<std::size_t>(l)] == s[j + static_cast<std::size_t>(l)]) {
    ++l;
  }
  return l;
}

TEST(SuffixArray, KnownExample) {
  // banana: suffixes sorted = a, ana, anana, banana, na, nana
  //                    index = 5, 3, 1, 0, 4, 2.
  const auto s = to_symbols("banana");
  EXPECT_EQ(suffix_array(s), (std::vector<int>{5, 3, 1, 0, 4, 2}));
  // LCP between consecutive: -, a|ana=1, ana|anana=3, 0, na|nana... = 0, 2.
  EXPECT_EQ(lcp_array(s, suffix_array(s)), (std::vector<int>{0, 1, 3, 0, 0, 2}));
}

TEST(SuffixArray, MatchesBruteForceOnRandomStrings) {
  Rng rng(601);
  for (int trial = 0; trial < 200; ++trial) {
    const std::uint32_t alphabet = 2 + trial % 4;
    const auto s = random_symbols(rng, 1 + rng.below(80), alphabet);
    EXPECT_EQ(suffix_array(s), brute_suffix_array(s)) << "trial " << trial;
  }
}

TEST(SuffixArray, LcpArrayMatchesBruteForce) {
  Rng rng(602);
  for (int trial = 0; trial < 150; ++trial) {
    const auto s = random_symbols(rng, 1 + rng.below(60), 2 + trial % 3);
    const auto sa = suffix_array(s);
    const auto lcp = lcp_array(s, sa);
    for (std::size_t i = 1; i < sa.size(); ++i) {
      EXPECT_EQ(lcp[i],
                brute_lcp(s, static_cast<std::size_t>(sa[i - 1]),
                          static_cast<std::size_t>(sa[i])))
          << "trial " << trial << " i=" << i;
    }
  }
}

TEST(SuffixArray, AgreesWithSuffixTreeTraversal) {
  Rng rng(603);
  for (int trial = 0; trial < 100; ++trial) {
    auto s = random_symbols(rng, 1 + rng.below(50), 2 + trial % 2);
    s.push_back(100);  // unique endmarker for the tree
    const SuffixTree tree(s);
    const auto from_tree = tree.suffix_array();
    const auto from_sa = suffix_array(s);
    ASSERT_EQ(from_tree.size(), from_sa.size());
    for (std::size_t i = 0; i < from_sa.size(); ++i) {
      EXPECT_EQ(from_tree[i], static_cast<std::size_t>(from_sa[i]))
          << "trial " << trial << " i=" << i;
    }
  }
}

TEST(RmqSparseTableTest, MatchesBruteForce) {
  Rng rng(604);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<int> values(1 + rng.below(50));
    for (auto& v : values) {
      v = static_cast<int>(rng.between(-100, 100));
    }
    const RmqSparseTable rmq(values);
    for (int probe = 0; probe < 100; ++probe) {
      std::size_t l = rng.below(values.size());
      std::size_t r = rng.below(values.size());
      if (l > r) {
        std::swap(l, r);
      }
      EXPECT_EQ(rmq.min_in(l, r),
                *std::min_element(values.begin() + static_cast<long>(l),
                                  values.begin() + static_cast<long>(r) + 1));
    }
  }
}

TEST(RmqSparseTableTest, RejectsBadRanges) {
  const RmqSparseTable rmq(std::vector<int>{1, 2, 3});
  EXPECT_THROW(rmq.min_in(0, 3), ContractViolation);
  EXPECT_THROW(rmq.min_in(2, 1), ContractViolation);
}

TEST(LcpOracleTest, MatchesBruteForceOnAllPairs) {
  Rng rng(605);
  for (int trial = 0; trial < 60; ++trial) {
    const auto s = random_symbols(rng, 1 + rng.below(40), 2 + trial % 2);
    const LcpOracle oracle(s);
    for (std::size_t i = 0; i < s.size(); ++i) {
      for (std::size_t j = 0; j < s.size(); ++j) {
        EXPECT_EQ(oracle.lcp(i, j), brute_lcp(s, i, j))
            << "trial " << trial << " i=" << i << " j=" << j;
      }
    }
  }
}

TEST(SaMinLCost, MatchesOtherKernels) {
  Rng rng(606);
  for (int trial = 0; trial < 400; ++trial) {
    const std::uint32_t alphabet = 2 + trial % 4;
    const std::size_t k = 1 + rng.below(24);
    const auto x = random_symbols(rng, k, alphabet);
    const auto y = random_symbols(rng, k, alphabet);
    const OverlapMin sa = min_l_cost_suffix_array(x, y);
    const OverlapMin mp = min_l_cost(x, y);
    EXPECT_EQ(sa.cost, mp.cost)
        << "trial " << trial << " k=" << k << " alphabet=" << alphabet;
    if (sa.theta > 0) {
      EXPECT_LE(sa.theta,
                naive::matching_l(x, y, static_cast<std::size_t>(sa.s - 1),
                                  static_cast<std::size_t>(sa.t - 1)))
          << "witness must be a genuine match, trial " << trial;
    }
    EXPECT_EQ(sa.cost,
              2 * static_cast<int>(k) - 1 + sa.s - sa.t - sa.theta);
  }
}

TEST(SaMinLCost, EdgeCases) {
  const auto a = to_symbols("a");
  const auto b = to_symbols("b");
  EXPECT_EQ(min_l_cost_suffix_array(a, a).cost, 0);
  EXPECT_EQ(min_l_cost_suffix_array(a, b).cost, 1);
  EXPECT_THROW(min_l_cost_suffix_array(a, to_symbols("xy")),
               ContractViolation);
}

}  // namespace
}  // namespace dbn::strings

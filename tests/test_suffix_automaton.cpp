#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/contract.hpp"
#include "common/rng.hpp"
#include "oracle/naive.hpp"
#include "strings/matching.hpp"
#include "strings/suffix_automaton.hpp"
#include "testing_util.hpp"

namespace dbn::strings {
namespace {

using dbn::testing::random_symbols;

TEST(SuffixAutomaton, ContainsExactlyTheSubstrings) {
  Rng rng(81);
  for (int trial = 0; trial < 60; ++trial) {
    const std::uint32_t alphabet = 2 + trial % 2;
    const auto text = random_symbols(rng, 1 + rng.below(30), alphabet);
    const SuffixAutomaton sam(text);
    // All substrings are accepted.
    for (std::size_t i = 0; i < text.size(); ++i) {
      for (std::size_t len = 1; i + len <= text.size(); ++len) {
        const std::vector<Symbol> sub(text.begin() + static_cast<long>(i),
                                      text.begin() + static_cast<long>(i + len));
        EXPECT_TRUE(sam.contains(sub));
      }
    }
    // Random probes agree with direct search.
    for (int probe = 0; probe < 100; ++probe) {
      const auto pat = random_symbols(rng, 1 + rng.below(5), alphabet);
      const bool expected =
          std::search(text.begin(), text.end(), pat.begin(), pat.end()) !=
          text.end();
      EXPECT_EQ(sam.contains(pat), expected);
    }
  }
}

TEST(SuffixAutomaton, StateCountBound) {
  Rng rng(82);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t n = 2 + rng.below(200);
    const auto text = random_symbols(rng, n, 2);
    const SuffixAutomaton sam(text);
    EXPECT_LE(sam.state_count(), static_cast<int>(2 * n));
  }
}

TEST(SuffixAutomaton, DistinctSubstringCountMatchesBruteForce) {
  Rng rng(83);
  for (int trial = 0; trial < 60; ++trial) {
    const auto text = random_symbols(rng, 1 + rng.below(24), 2 + trial % 2);
    const SuffixAutomaton sam(text);
    std::set<std::vector<Symbol>> all;
    for (std::size_t i = 0; i < text.size(); ++i) {
      for (std::size_t len = 1; i + len <= text.size(); ++len) {
        all.insert({text.begin() + static_cast<long>(i),
                    text.begin() + static_cast<long>(i + len)});
      }
    }
    EXPECT_EQ(sam.distinct_substring_count(), all.size()) << "trial " << trial;
  }
}

TEST(SuffixAutomaton, MatchingStatisticsMatchBruteForce) {
  Rng rng(84);
  for (int trial = 0; trial < 100; ++trial) {
    const std::uint32_t alphabet = 2 + trial % 2;
    const auto text = random_symbols(rng, 1 + rng.below(25), alphabet);
    const auto t = random_symbols(rng, 1 + rng.below(25), alphabet);
    const SuffixAutomaton sam(text);
    const auto ms = sam.matching_statistics(t);
    for (std::size_t j = 0; j < t.size(); ++j) {
      // Brute force: longest suffix of t[0..j] occurring in text.
      int expected = 0;
      for (std::size_t s = 1; s <= j + 1; ++s) {
        const std::vector<Symbol> suffix(t.begin() + static_cast<long>(j + 1 - s),
                                         t.begin() + static_cast<long>(j + 1));
        if (std::search(text.begin(), text.end(), suffix.begin(),
                        suffix.end()) != text.end()) {
          expected = static_cast<int>(s);
        }
      }
      EXPECT_EQ(ms[j], expected) << "trial " << trial << " j=" << j;
    }
  }
}

TEST(SuffixAutomaton, LongestCommonSubstringMatchesNaive) {
  Rng rng(85);
  for (int trial = 0; trial < 150; ++trial) {
    const std::uint32_t alphabet = 2 + trial % 3;
    const auto a = random_symbols(rng, 1 + rng.below(40), alphabet);
    const auto b = random_symbols(rng, 1 + rng.below(40), alphabet);
    const SuffixAutomaton sam(a);
    EXPECT_EQ(sam.longest_common_substring(b),
              naive::longest_common_substring(a, b))
        << "trial " << trial;
  }
}

TEST(SamMinLCost, MatchesOtherKernels) {
  Rng rng(86);
  for (int trial = 0; trial < 400; ++trial) {
    const std::uint32_t alphabet = 2 + trial % 4;
    const std::size_t k = 1 + rng.below(24);
    const auto x = random_symbols(rng, k, alphabet);
    const auto y = random_symbols(rng, k, alphabet);
    const OverlapMin sam = min_l_cost_suffix_automaton(x, y);
    const OverlapMin mp = min_l_cost(x, y);
    EXPECT_EQ(sam.cost, mp.cost)
        << "trial " << trial << " k=" << k << " alphabet=" << alphabet;
    if (sam.theta > 0) {
      EXPECT_LE(sam.theta,
                naive::matching_l(x, y, static_cast<std::size_t>(sam.s - 1),
                                  static_cast<std::size_t>(sam.t - 1)))
          << "witness must be a genuine match, trial " << trial;
    }
    EXPECT_EQ(sam.cost,
              2 * static_cast<int>(k) - 1 + sam.s - sam.t - sam.theta);
  }
}

TEST(SamMinLCost, EdgeCases) {
  const auto a = to_symbols("a");
  const auto b = to_symbols("b");
  EXPECT_EQ(min_l_cost_suffix_automaton(a, a).cost, 0);
  EXPECT_EQ(min_l_cost_suffix_automaton(a, b).cost, 1);
  const auto x = to_symbols("0101");
  EXPECT_EQ(min_l_cost_suffix_automaton(x, x).cost, 0);
  EXPECT_THROW(min_l_cost_suffix_automaton(a, to_symbols("ab")),
               ContractViolation);
}

}  // namespace
}  // namespace dbn::strings

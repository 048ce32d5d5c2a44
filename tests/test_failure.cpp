#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "oracle/kmp.hpp"
#include "oracle/naive.hpp"
#include "strings/failure.hpp"
#include "testing_util.hpp"

namespace dbn::strings {
namespace {

using dbn::testing::random_symbols;

TEST(BorderArray, KnownExamples) {
  // "ababaca": borders 0 0 1 2 3 0 1 (classic CLRS example).
  const auto p = to_symbols("ababaca");
  EXPECT_EQ(border_array(p), (std::vector<int>{0, 0, 1, 2, 3, 0, 1}));

  const auto q = to_symbols("aaaa");
  EXPECT_EQ(border_array(q), (std::vector<int>{0, 1, 2, 3}));

  const auto r = to_symbols("abcd");
  EXPECT_EQ(border_array(r), (std::vector<int>{0, 0, 0, 0}));
}

TEST(BorderArray, EmptyAndSingle) {
  EXPECT_TRUE(border_array({}).empty());
  const auto one = to_symbols("x");
  EXPECT_EQ(border_array(one), (std::vector<int>{0}));
}

TEST(BorderArray, MatchesNaiveOnRandomStrings) {
  Rng rng(101);
  for (int trial = 0; trial < 300; ++trial) {
    const std::uint32_t alphabet = 2 + trial % 4;
    const std::size_t len = 1 + rng.below(40);
    const auto s = random_symbols(rng, len, alphabet);
    EXPECT_EQ(border_array(s), naive::border_array(s)) << "trial " << trial;
  }
}

TEST(SuffixPrefixOverlap, KnownExamples) {
  const auto ab = to_symbols("ab");
  const auto ba = to_symbols("ba");
  EXPECT_EQ(suffix_prefix_overlap(ab, ba), 1);  // "b"
  EXPECT_EQ(suffix_prefix_overlap(ab, ab), 2);  // whole word
  const auto x = to_symbols("aab");
  const auto y = to_symbols("baa");
  EXPECT_EQ(suffix_prefix_overlap(x, y), 1);
  EXPECT_EQ(suffix_prefix_overlap(y, x), 2);  // "aa"
  const auto u = to_symbols("abc");
  const auto v = to_symbols("def");
  EXPECT_EQ(suffix_prefix_overlap(u, v), 0);
}

TEST(SuffixPrefixOverlap, FullMatchInsideDoesNotConfuse) {
  // y occurs inside x but the true suffix-prefix overlap is shorter.
  const auto x = to_symbols("abab");  // contains "ab" twice, ends with "ab"
  const auto y = to_symbols("ab");
  EXPECT_EQ(suffix_prefix_overlap(x, y), 2);
  const auto x2 = to_symbols("abax");
  EXPECT_EQ(suffix_prefix_overlap(x2, y), 0);
}

TEST(SuffixPrefixOverlap, EmptyOperands) {
  const auto a = to_symbols("a");
  EXPECT_EQ(suffix_prefix_overlap({}, a), 0);
  EXPECT_EQ(suffix_prefix_overlap(a, {}), 0);
}

TEST(SuffixPrefixOverlap, UnequalLengthsMatchNaive) {
  Rng rng(202);
  for (int trial = 0; trial < 500; ++trial) {
    const std::uint32_t alphabet = 2 + trial % 3;
    const auto x = random_symbols(rng, 1 + rng.below(30), alphabet);
    const auto y = random_symbols(rng, 1 + rng.below(30), alphabet);
    EXPECT_EQ(suffix_prefix_overlap(x, y), naive::suffix_prefix_overlap(x, y))
        << "trial " << trial;
  }
}

TEST(KmpFindAll, KnownExamples) {
  const auto text = to_symbols("aabaabaaa");
  const auto pat = to_symbols("aab");
  EXPECT_EQ(kmp_find_all(text, pat), (std::vector<std::size_t>{0, 3}));
  const auto aa = to_symbols("aa");
  EXPECT_EQ(kmp_find_all(text, aa), (std::vector<std::size_t>{0, 3, 6, 7}));
}

TEST(KmpFindAll, EmptyPatternOccursEverywhere) {
  const auto text = to_symbols("xy");
  EXPECT_EQ(kmp_find_all(text, {}), (std::vector<std::size_t>{0, 1, 2}));
}

TEST(KmpFindAll, MatchesNaiveOnRandomStrings) {
  Rng rng(303);
  for (int trial = 0; trial < 400; ++trial) {
    const std::uint32_t alphabet = 2;
    const auto text = random_symbols(rng, rng.below(50), alphabet);
    const auto pat = random_symbols(rng, 1 + rng.below(6), alphabet);
    EXPECT_EQ(kmp_find_all(text, pat), naive::find_all(text, pat))
        << "trial " << trial;
  }
}

}  // namespace
}  // namespace dbn::strings

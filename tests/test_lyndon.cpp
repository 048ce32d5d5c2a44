#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/contract.hpp"
#include "common/rng.hpp"
#include "debruijn/sequence.hpp"
#include "oracle/lyndon.hpp"
#include "testing_util.hpp"

namespace dbn::strings {
namespace {

using dbn::testing::random_symbols;

bool brute_is_lyndon(const std::vector<Symbol>& s) {
  if (s.empty()) {
    return false;
  }
  for (std::size_t i = 1; i < s.size(); ++i) {
    const std::vector<Symbol> suffix(s.begin() + static_cast<long>(i), s.end());
    if (!std::lexicographical_compare(s.begin(), s.end(), suffix.begin(),
                                      suffix.end())) {
      return false;
    }
  }
  return true;
}

std::vector<Symbol> rotated(const std::vector<Symbol>& s, std::size_t r) {
  std::vector<Symbol> out(s.begin() + static_cast<long>(r), s.end());
  out.insert(out.end(), s.begin(), s.begin() + static_cast<long>(r));
  return out;
}

TEST(Lyndon, FactorizationKnownExample) {
  // "banana" = b >= anan? Duval: b | anan? The classic: banana ->
  // b, anan? no: factors must be non-increasing Lyndon words:
  // b | an | an | a.
  const auto s = to_symbols("banana");
  const auto f = lyndon_factorization(s);
  ASSERT_EQ(f.size(), 4u);
  EXPECT_EQ(f[0], (std::pair<std::size_t, std::size_t>{0, 1}));  // b
  EXPECT_EQ(f[1], (std::pair<std::size_t, std::size_t>{1, 2}));  // an
  EXPECT_EQ(f[2], (std::pair<std::size_t, std::size_t>{3, 2}));  // an
  EXPECT_EQ(f[3], (std::pair<std::size_t, std::size_t>{5, 1}));  // a
}

TEST(Lyndon, FactorizationPropertiesOnRandomStrings) {
  Rng rng(909);
  for (int trial = 0; trial < 300; ++trial) {
    const auto s = random_symbols(rng, 1 + rng.below(40), 2 + trial % 3);
    const auto factors = lyndon_factorization(s);
    // Covers s exactly.
    std::size_t at = 0;
    for (const auto& [start, len] : factors) {
      EXPECT_EQ(start, at);
      at += len;
      // Every factor is Lyndon.
      const std::vector<Symbol> w(s.begin() + static_cast<long>(start),
                                  s.begin() + static_cast<long>(start + len));
      EXPECT_TRUE(brute_is_lyndon(w)) << "trial " << trial;
    }
    EXPECT_EQ(at, s.size());
    // Factors are non-increasing.
    for (std::size_t i = 1; i < factors.size(); ++i) {
      const auto& [s1, l1] = factors[i - 1];
      const auto& [s2, l2] = factors[i];
      const std::vector<Symbol> a(s.begin() + static_cast<long>(s1),
                                  s.begin() + static_cast<long>(s1 + l1));
      const std::vector<Symbol> b(s.begin() + static_cast<long>(s2),
                                  s.begin() + static_cast<long>(s2 + l2));
      EXPECT_FALSE(std::lexicographical_compare(a.begin(), a.end(), b.begin(),
                                                b.end()))
          << "factors must be non-increasing, trial " << trial;
    }
  }
}

TEST(Lyndon, IsLyndonMatchesBruteForce) {
  Rng rng(910);
  for (int trial = 0; trial < 400; ++trial) {
    const auto s = random_symbols(rng, 1 + rng.below(12), 2);
    EXPECT_EQ(is_lyndon(s), brute_is_lyndon(s)) << "trial " << trial;
  }
  EXPECT_FALSE(is_lyndon({}));
}

TEST(Lyndon, LeastRotationMatchesBruteForce) {
  Rng rng(911);
  for (int trial = 0; trial < 400; ++trial) {
    const auto s = random_symbols(rng, 1 + rng.below(24), 2 + trial % 3);
    const std::size_t r = least_rotation(s);
    ASSERT_LT(r, s.size());
    const auto best = rotated(s, r);
    for (std::size_t i = 0; i < s.size(); ++i) {
      const auto candidate = rotated(s, i);
      EXPECT_FALSE(std::lexicographical_compare(
          candidate.begin(), candidate.end(), best.begin(), best.end()))
          << "trial " << trial << " rotation " << i;
    }
  }
}

TEST(Lyndon, NecklaceCountKnownValues) {
  // Binary necklaces: n=1:2, 2:3, 3:4, 4:6, 5:8, 6:14 (OEIS A000031).
  EXPECT_EQ(necklace_count(2, 1), 2u);
  EXPECT_EQ(necklace_count(2, 2), 3u);
  EXPECT_EQ(necklace_count(2, 3), 4u);
  EXPECT_EQ(necklace_count(2, 4), 6u);
  EXPECT_EQ(necklace_count(2, 5), 8u);
  EXPECT_EQ(necklace_count(2, 6), 14u);
  // Ternary: n=3 -> 11.
  EXPECT_EQ(necklace_count(3, 3), 11u);
}

TEST(Lyndon, NecklaceCountMatchesOrbitEnumeration) {
  // Count rotation orbits of all d-ary words of length n by canonical
  // representatives (least rotation).
  for (const auto& [d, n] : std::vector<std::pair<std::uint32_t, std::size_t>>{
           {2, 5}, {2, 8}, {3, 4}, {4, 3}}) {
    std::set<std::vector<Symbol>> canon;
    const std::uint64_t total = [&] {
      std::uint64_t t = 1;
      for (std::size_t i = 0; i < n; ++i) {
        t *= d;
      }
      return t;
    }();
    for (std::uint64_t r = 0; r < total; ++r) {
      std::vector<Symbol> w(n);
      std::uint64_t v = r;
      for (std::size_t i = n; i-- > 0;) {
        w[i] = static_cast<Symbol>(v % d);
        v /= d;
      }
      canon.insert(rotated(w, least_rotation(w)));
    }
    EXPECT_EQ(canon.size(), necklace_count(d, n)) << "d=" << d << " n=" << n;
  }
}

TEST(Lyndon, FkmSequenceIsSortedLyndonConcatenation) {
  // The FKM theorem: B(d,n) is the concatenation, in lexicographic order,
  // of all Lyndon words over [0,d) whose length divides n. Enumerate those
  // words directly and compare.
  for (const auto& [d, n] : std::vector<std::pair<std::uint32_t, std::size_t>>{
           {2, 4}, {2, 6}, {3, 3}}) {
    std::vector<std::vector<Symbol>> lyndon_words;
    for (std::size_t len = 1; len <= n; ++len) {
      if (n % len != 0) {
        continue;
      }
      std::uint64_t total = 1;
      for (std::size_t i = 0; i < len; ++i) {
        total *= d;
      }
      for (std::uint64_t r = 0; r < total; ++r) {
        std::vector<Symbol> w(len);
        std::uint64_t v = r;
        for (std::size_t i = len; i-- > 0;) {
          w[i] = static_cast<Symbol>(v % d);
          v /= d;
        }
        if (is_lyndon(w)) {
          lyndon_words.push_back(std::move(w));
        }
      }
    }
    std::sort(lyndon_words.begin(), lyndon_words.end());
    std::vector<Symbol> expected;
    for (const auto& w : lyndon_words) {
      expected.insert(expected.end(), w.begin(), w.end());
    }
    const auto seq = dbn::de_bruijn_sequence(d, n);
    const std::vector<Symbol> symbols(seq.begin(), seq.end());
    EXPECT_EQ(symbols, expected) << "d=" << d << " n=" << n;
  }
}

TEST(Lyndon, PrimitivityMatchesDefinition) {
  EXPECT_TRUE(is_primitive(to_symbols("ab")));
  EXPECT_FALSE(is_primitive(to_symbols("abab")));
  EXPECT_FALSE(is_primitive(to_symbols("aaa")));
  EXPECT_TRUE(is_primitive(to_symbols("aab")));
  EXPECT_FALSE(is_primitive({}));
  Rng rng(912);
  for (int trial = 0; trial < 200; ++trial) {
    const auto s = random_symbols(rng, 1 + rng.below(16), 2);
    bool power = false;
    for (std::size_t len = 1; len < s.size(); ++len) {
      if (s.size() % len != 0) {
        continue;
      }
      bool matches = true;
      for (std::size_t i = len; i < s.size() && matches; ++i) {
        matches = s[i] == s[i - len];
      }
      power |= matches;
    }
    EXPECT_EQ(is_primitive(s), !power) << "trial " << trial;
  }
}

}  // namespace
}  // namespace dbn::strings

// Shared helpers for the test suite: random word/string generation, the
// (d,k) parameter grids used by the BFS-validated property sweeps, and
// shard-replayable RNG seeding.
#pragma once

#include <cstdint>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "debruijn/word.hpp"
#include "strings/matching.hpp"
#include "strings/symbol.hpp"

namespace dbn::testing {

/// A (d,k) de Bruijn parameter point, printable for gtest.
struct DkParam {
  std::uint32_t d;
  std::size_t k;

  friend std::ostream& operator<<(std::ostream& os, const DkParam& p) {
    return os << "d" << p.d << "_k" << p.k;
  }
};

/// Every (d,k) with d^k small enough for all-pairs BFS in unit-test time.
inline std::vector<DkParam> small_grid() {
  return {
      {2, 1}, {2, 2}, {2, 3}, {2, 4}, {2, 5}, {2, 6}, {2, 7}, {2, 8},
      {3, 1}, {3, 2}, {3, 3}, {3, 4}, {3, 5},
      {4, 1}, {4, 2}, {4, 3}, {4, 4},
      {5, 1}, {5, 2}, {5, 3},
      {7, 1}, {7, 2}, {7, 3},
  };
}

/// Degenerate corners: the one-letter alphabet (single-vertex networks)
/// and diameter-1 graphs. Kept out of small_grid() because closed forms
/// like equation (5) divide by 1 - 1/d; everything route-related must
/// still work here.
inline std::vector<DkParam> degenerate_grid() {
  return {{1, 1}, {1, 2}, {1, 5}, {2, 1}, {5, 1}, {11, 1}};
}

/// Larger k, used where only per-pair (not all-pairs) work is done.
inline std::vector<DkParam> large_grid() {
  return {{2, 16}, {2, 33}, {2, 64}, {3, 21}, {5, 13}, {10, 9}};
}

inline std::vector<strings::Symbol> random_symbols(Rng& rng, std::size_t len,
                                                   std::uint32_t alphabet) {
  std::vector<strings::Symbol> s(len);
  for (auto& c : s) {
    c = static_cast<strings::Symbol>(rng.below(alphabet));
  }
  return s;
}

inline Word random_word(Rng& rng, std::uint32_t radix, std::size_t k) {
  std::vector<Digit> digits(k);
  for (auto& x : digits) {
    x = static_cast<Digit>(rng.below(radix));
  }
  return Word(radix, std::move(digits));
}

/// Checks the Theorem 2 witness contract shared by every l-side kernel:
/// (s, t, theta) in range, reproducing the cost, and naming a real block.
inline void expect_valid_witness(const std::vector<strings::Symbol>& x,
                                 const std::vector<strings::Symbol>& y,
                                 const strings::OverlapMin& m) {
  const int k = static_cast<int>(x.size());
  ASSERT_GE(m.s, 1);
  ASSERT_LE(m.s, k);
  ASSERT_GE(m.t, 1);
  ASSERT_LE(m.t, k);
  ASSERT_GE(m.theta, 0);
  ASSERT_LE(m.theta, m.t);
  ASSERT_LE(m.theta, k - m.s + 1);
  EXPECT_EQ(m.cost, 2 * k - 1 + m.s - m.t - m.theta);
  for (int i = 0; i < m.theta; ++i) {
    EXPECT_EQ(x[static_cast<std::size_t>(m.s - 1 + i)],
              y[static_cast<std::size_t>(m.t - m.theta + i)])
        << "witness block mismatch at " << i;
  }
}

/// The base seed gtest was (re)started with: --gtest_random_seed=N /
/// GTEST_RANDOM_SEED, 0 unless shuffling. Mixing it into every random
/// test's RNG makes a shuffled shard's failures replayable bit-for-bit by
/// re-running with the seed gtest printed.
inline std::uint64_t gtest_base_seed() {
  const auto* unit = ::testing::UnitTest::GetInstance();
  return unit == nullptr ? 0
                         : static_cast<std::uint64_t>(unit->random_seed());
}

/// Seed for one test: the gtest base seed mixed (splitmix64-style) with a
/// per-test tag so distinct tests draw independent streams.
inline std::uint64_t shard_seed(std::uint64_t tag) {
  std::uint64_t z = gtest_base_seed() + 0x9e3779b97f4a7c15ull * (tag + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Human-readable provenance attached to failures via SCOPED_TRACE.
inline std::string seed_trace(std::uint64_t tag) {
  std::ostringstream out;
  out << "rng: tag=" << tag << " gtest_random_seed=" << gtest_base_seed()
      << " (replay with --gtest_random_seed=" << gtest_base_seed() << ")";
  return out.str();
}

}  // namespace dbn::testing

/// Declares `var`, an Rng seeded from the gtest shard seed and `tag`, and
/// attaches the seed to any failure inside the current scope.
#define DBN_SEEDED_RNG(var, tag)                          \
  ::dbn::Rng var(::dbn::testing::shard_seed(tag));        \
  SCOPED_TRACE(::dbn::testing::seed_trace(tag))

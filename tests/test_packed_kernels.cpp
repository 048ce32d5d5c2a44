// The packed-kernel differential battery: every kernel in
// strings/packed.hpp against its reference — the Morris–Pratt
// implementations in strings/failure.* and strings/matching.*, the
// brute-force oracles in oracle/naive.*, and for both side-minimum kernels
// the witness rule as oracle/side_minima_reference.hpp computes it — over
// random words, unequal lengths, every cell width, and the adversarial
// word/pair families of the conformance fuzzer.
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/contract.hpp"
#include "core/path_builder.hpp"
#include "core/route_engine.hpp"
#include "oracle/common_substring.hpp"
#include "oracle/kmp.hpp"
#include "oracle/naive.hpp"
#include "oracle/side_minima_reference.hpp"
#include "strings/failure.hpp"
#include "strings/matching.hpp"
#include "strings/packed.hpp"
#include "testing_util.hpp"
#include "testkit/word_families.hpp"

namespace dbn {
namespace {

using strings::OverlapMin;
using strings::PackedBuf;
using strings::Symbol;
using testing::expect_valid_witness;

// Pack two symbol sequences at the common width, failing the test if the
// pair was expected to pack.
void pack_pair(const std::vector<Symbol>& x, const std::vector<Symbol>& y,
               PackedBuf& px, PackedBuf& py) {
  ASSERT_TRUE(strings::try_pack_pair(x, y, px, py));
}

// Alphabets that land on every cell width, and length caps that reach the
// lane boundary for each.
struct AlphabetParam {
  std::uint32_t alphabet;
  std::size_t max_k;
};

std::vector<AlphabetParam> alphabet_grid() {
  return {{1, 128}, {2, 128}, {3, 30}, {4, 64}, {5, 32}, {8, 30}, {16, 32}};
}

TEST(PackedKernels, WidthSelectionAndPackability) {
  EXPECT_EQ(strings::packed_width(1), 1u);
  EXPECT_EQ(strings::packed_width(2), 1u);
  EXPECT_EQ(strings::packed_width(3), 2u);
  EXPECT_EQ(strings::packed_width(4), 2u);
  EXPECT_EQ(strings::packed_width(5), 4u);
  EXPECT_EQ(strings::packed_width(16), 4u);
  EXPECT_EQ(strings::packed_width(17), 0u);
  // One 128-bit PackedBuf lane.
  EXPECT_TRUE(strings::packable(2, 128));
  EXPECT_FALSE(strings::packable(2, 129));
  EXPECT_TRUE(strings::packable(4, 64));
  EXPECT_FALSE(strings::packable(4, 65));
  EXPECT_TRUE(strings::packable(16, 32));
  EXPECT_FALSE(strings::packable(16, 33));
  EXPECT_FALSE(strings::packable(17, 1));
  PackedBuf out;
  EXPECT_TRUE(strings::try_pack(std::vector<Symbol>(65, 1), 1, out));
  EXPECT_EQ(out.width, 1u);
  EXPECT_FALSE(strings::try_pack(std::vector<Symbol>(129, 0), 1, out));
  EXPECT_FALSE(strings::try_pack(std::vector<Symbol>(65, 0), 2, out));
}

TEST(PackedKernels, PackUnpackRoundTrip) {
  DBN_SEEDED_RNG(rng, 0x9acc);
  for (const AlphabetParam& p : alphabet_grid()) {
    for (int trial = 0; trial < 50; ++trial) {
      const std::size_t k = 1 + rng.below(p.max_k);
      const std::vector<Symbol> s = testing::random_symbols(rng, k, p.alphabet);
      PackedBuf packed;
      ASSERT_TRUE(
          strings::try_pack(s, strings::packed_width(p.alphabet), packed));
      EXPECT_EQ(packed.size, k);
      for (std::size_t i = 0; i < k; ++i) {
        EXPECT_EQ(packed.get(i), s[i]);
      }
    }
  }
}

TEST(PackedKernels, TryPackRejectsWhatDoesNotFit) {
  PackedBuf out;
  // Digit exceeding the cell width.
  EXPECT_FALSE(strings::try_pack(std::vector<Symbol>{0, 4, 1}, 2, out));
  EXPECT_TRUE(strings::try_pack(std::vector<Symbol>{0, 4, 1}, 4, out));
  EXPECT_FALSE(strings::try_pack(std::vector<Symbol>{16}, 4, out));
  // Unsupported widths.
  EXPECT_FALSE(strings::try_pack(std::vector<Symbol>{0}, 0, out));
  EXPECT_FALSE(strings::try_pack(std::vector<Symbol>{0}, 3, out));
  // Lane overflow.
  EXPECT_FALSE(strings::try_pack(std::vector<Symbol>(65, 0), 2, out));
  EXPECT_FALSE(strings::try_pack(std::vector<Symbol>(33, 0), 4, out));
  EXPECT_TRUE(strings::try_pack(std::vector<Symbol>(64, 3), 2, out));
  EXPECT_TRUE(strings::try_pack(std::vector<Symbol>(32, 15), 4, out));
  // Pair packing picks one common width and rejects alphabet >= 16.
  PackedBuf px, py;
  EXPECT_TRUE(strings::try_pack_pair(std::vector<Symbol>{0, 1},
                                     std::vector<Symbol>{9, 2}, px, py));
  EXPECT_EQ(px.width, 4u);
  EXPECT_EQ(py.width, 4u);
  EXPECT_FALSE(strings::try_pack_pair(std::vector<Symbol>{0, 1},
                                      std::vector<Symbol>{16}, px, py));
  // Requiring one common width is what makes the cell compares meaningful.
  ASSERT_TRUE(strings::try_pack(std::vector<Symbol>{0, 1}, 1, px));
  ASSERT_TRUE(strings::try_pack(std::vector<Symbol>{5, 1}, 4, py));
  EXPECT_THROW(strings::suffix_prefix_overlap_packed(px, py),
               ContractViolation);
}

TEST(PackedKernels, SuffixPrefixOverlapMatchesScalar) {
  DBN_SEEDED_RNG(rng, 0x50f1);
  for (const AlphabetParam& p : alphabet_grid()) {
    for (int trial = 0; trial < 120; ++trial) {
      // Unequal lengths are legal for the overlap kernel.
      const std::size_t kx = 1 + rng.below(p.max_k);
      const std::size_t ky = 1 + rng.below(p.max_k);
      std::vector<Symbol> x = testing::random_symbols(rng, kx, p.alphabet);
      std::vector<Symbol> y = testing::random_symbols(rng, ky, p.alphabet);
      if (rng.chance(0.5)) {
        // Plant an overlap so the interesting region is actually hit.
        const std::size_t s = 1 + rng.below(std::min(kx, ky));
        std::copy(x.end() - static_cast<long>(s), x.end(), y.begin());
      }
      PackedBuf px, py;
      pack_pair(x, y, px, py);
      const int expected = strings::suffix_prefix_overlap(x, y);
      EXPECT_EQ(strings::suffix_prefix_overlap_packed(px, py), expected);
      EXPECT_EQ(strings::naive::suffix_prefix_overlap(x, y), expected);
    }
  }
}

std::string side_text(const OverlapMin& m) {
  std::ostringstream out;
  out << "{cost " << m.cost << ", s " << m.s << ", t " << m.t << ", theta "
      << m.theta << "}";
  return out.str();
}

// Both side minima field by field the reference's, and both witnesses
// valid (the r-side one as an l-side witness of the reversed words).
void expect_reference_sides(const std::vector<Symbol>& x,
                            const std::vector<Symbol>& y,
                            const strings::SideMinima& got) {
  SCOPED_TRACE(::testing::Message() << "x=" << ::testing::PrintToString(x)
                                    << " y=" << ::testing::PrintToString(y));
  const int k = static_cast<int>(x.size());
  const strings::SideMinima want = oracle::side_minima_reference(x, y);
  EXPECT_EQ(got.l_side, want.l_side)
      << "l-side " << side_text(got.l_side) << " want "
      << side_text(want.l_side);
  EXPECT_EQ(got.r_side, want.r_side)
      << "r-side " << side_text(got.r_side) << " want "
      << side_text(want.r_side);
  expect_valid_witness(x, y, got.l_side);
  expect_valid_witness(strings::reversed(x), strings::reversed(y),
                       r_side_from_reversed(k, got.r_side));
}

void expect_seeded_like_reference(const std::vector<Symbol>& x,
                                  const std::vector<Symbol>& y,
                                  std::uint32_t d) {
  expect_reference_sides(x, y, strings::side_minima_seeded(x, y, d));
}

void expect_pass_like_reference(const std::vector<Symbol>& x,
                                const std::vector<Symbol>& y,
                                std::uint32_t d) {
  expect_reference_sides(x, y, strings::side_minima_diagonal(x, y, d));
}

// The smallest q with d^q >= k^2 (k for d = 1): the q-gram length at which
// two random words share O(1) q-grams, so the length around which a seed
// index would hand short blocks to a corner scan.
std::size_t qgram_length(std::uint32_t d, std::size_t k) {
  std::size_t q = 0;
  for (double reach = 1; q < k && reach < static_cast<double>(k) * k; ++q) {
    reach *= d;
  }
  return std::max<std::size_t>(q, 1);
}

// Runs `check(x, y)` over the witness-rule families at (d, k): random
// words; periodic words, a shift of one and two of their own; equal words;
// the one-shift neighbours L_a(x) = x_2..x_k a and R_a(x) = a x_1..x_{k-1}
// for the first `neighbours` letters a, as (x, L_a), (x, R_a) and
// (L_a, x); blocks at both word ends; and blocks of length q - 1 and q on
// each diagonal from |c| = k - 2q - 1 to k - 2q + 4, at each end of the
// diagonal.
template <typename Check>
void for_each_family(Rng& rng, std::uint32_t d, std::size_t k, int randoms,
                     std::uint32_t neighbours, const Check& check) {
  const auto random = [&] { return testing::random_symbols(rng, k, d); };
  for (int trial = 0; trial < randoms; ++trial) {
    check(random(), random());
  }
  const auto periodic = [&](std::size_t shift) {
    const std::size_t period = 1 + rng.below(std::max<std::size_t>(1, k / 2));
    const std::vector<Symbol> block = testing::random_symbols(rng, period, d);
    std::vector<Symbol> w(k);
    for (std::size_t i = 0; i < k; ++i) {
      w[i] = block[(i + shift) % period];
    }
    return w;
  };
  for (int trial = 0; trial < 3; ++trial) {
    const std::vector<Symbol> x = periodic(0);
    const std::size_t shift = rng.below(k);
    std::vector<Symbol> y(k);
    for (std::size_t i = 0; i < k; ++i) {
      y[i] = x[(i + shift) % k];
    }
    check(x, y);
    check(periodic(0), periodic(1));
  }
  const std::vector<Symbol> x = random();
  check(x, x);
  for (Symbol a = 0; a < std::min(d, neighbours); ++a) {
    std::vector<Symbol> left(x.begin() + 1, x.end());
    left.push_back(a);
    std::vector<Symbol> right{a};
    right.insert(right.end(), x.begin(), x.end() - 1);
    check(x, left);
    check(x, right);
    check(left, x);
  }
  for (int trial = 0; trial < 2; ++trial) {
    const std::size_t theta = 1 + rng.below(k);
    std::vector<Symbol> y = random();
    std::copy(x.begin(), x.begin() + static_cast<long>(theta),
              y.end() - static_cast<long>(theta));  // c = k - θ
    check(x, y);
    y = random();
    std::copy(x.end() - static_cast<long>(theta), x.end(), y.begin());
    check(x, y);  // c = -(k - θ)
  }
  const auto ki = static_cast<long>(k);
  const auto q = static_cast<long>(qgram_length(d, k));
  for (long a = ki - 2 * q - 1; a <= ki - 2 * q + 4; ++a) {
    if (a < 0 || a >= ki) {
      continue;
    }
    for (const long theta : {q - 1, q}) {
      const long n = ki - a;
      if (theta < 1 || theta > n) {
        continue;
      }
      for (const long c : {a, -a}) {
        for (const long start : {std::max(0L, -c), std::max(0L, -c) + n - theta}) {
          std::vector<Symbol> y = random();
          std::copy(x.begin() + start, x.begin() + start + theta,
                    y.begin() + start + c);
          check(x, y);
        }
      }
    }
  }
}

TEST(PackedKernels, MinLCostMatchesScalarWithValidWitness) {
  // The seeded kernel's sides against the scalar Algorithm 3 scan on each
  // orientation, over every cell width and unpacked digits.
  DBN_SEEDED_RNG(rng, 0x313c);
  for (const std::uint32_t d : {2u, 3u, 4u, 5u, 16u, 17u, 40u}) {
    for (int trial = 0; trial < 60; ++trial) {
      const std::size_t k = 1 + rng.below(trial % 3 == 0 ? 300 : 70);
      const std::vector<Symbol> x = testing::random_symbols(rng, k, d);
      const std::vector<Symbol> y = testing::random_symbols(rng, k, d);
      const strings::SideMinima m = strings::side_minima_seeded(x, y, d);
      EXPECT_EQ(m.l_side.cost, strings::min_l_cost(x, y).cost);
      EXPECT_EQ(m.r_side.cost,
                strings::min_l_cost(strings::reversed(x), strings::reversed(y))
                    .cost);
      expect_valid_witness(x, y, m.l_side);
    }
  }
}

TEST(PackedKernels, SideMinimumAtEveryLimbEdge) {
  // Both sides of every 64-bit word boundary of the seeded kernel's packed
  // words, where a dropped carry or a window off by one cell would hide,
  // for each word/pair family of the conformance fuzzer.
  struct Edges {
    std::vector<std::uint32_t> alphabets;
    std::vector<std::size_t> ks;
  };
  const std::vector<Edges> edges = {
      {{2}, {63, 64, 65, 127, 128, 129, 192, 193, 256, 257, 511, 512, 513}},
      {{3, 4}, {31, 32, 33, 63, 64, 65, 96, 97, 128, 129, 255, 256, 257}},
      {{5, 16}, {15, 16, 17, 31, 32, 33, 64, 65, 127, 128, 129}},
  };
  DBN_SEEDED_RNG(rng, 0x11b5);
  for (const Edges& e : edges) {
    for (const std::uint32_t d : e.alphabets) {
      for (const std::size_t k : e.ks) {
        for (const testkit::WordFamily wf : testkit::kAllWordFamilies) {
          for (const testkit::PairFamily pf : testkit::kAllPairFamilies) {
            SCOPED_TRACE(::testing::Message()
                         << "d=" << d << " k=" << k << " "
                         << testkit::family_name(wf) << "/"
                         << testkit::family_name(pf));
            const auto [xw, yw] = testkit::sample_pair(rng, d, k, wf, pf);
            const std::vector<Symbol> x(xw.symbols().begin(),
                                        xw.symbols().end());
            const std::vector<Symbol> y(yw.symbols().begin(),
                                        yw.symbols().end());
            expect_seeded_like_reference(x, y, d);
          }
        }
      }
    }
  }
}

TEST(PackedKernels, MinLCostOnAdversarialPairFamilies) {
  DBN_SEEDED_RNG(rng, 0xadfa);
  for (const std::uint32_t d : {2u, 3u, 4u, 8u, 16u, 20u}) {
    for (const std::size_t k : {std::size_t{29}, std::size_t{47}}) {
      for (const testkit::WordFamily wf : testkit::kAllWordFamilies) {
        for (const testkit::PairFamily pf : testkit::kAllPairFamilies) {
          SCOPED_TRACE(::testing::Message()
                       << "d=" << d << " k=" << k << " "
                       << testkit::family_name(wf) << "/"
                       << testkit::family_name(pf));
          for (int trial = 0; trial < 4; ++trial) {
            const auto [xw, yw] = testkit::sample_pair(rng, d, k, wf, pf);
            const std::vector<Symbol> x(xw.symbols().begin(),
                                        xw.symbols().end());
            const std::vector<Symbol> y(yw.symbols().begin(),
                                        yw.symbols().end());
            const strings::SideMinima m = strings::side_minima_seeded(x, y, d);
            EXPECT_EQ(m.l_side.cost, min_l_cost_suffix_tree(x, y).cost);
            expect_seeded_like_reference(x, y, d);
          }
        }
      }
    }
  }
}

TEST(PackedKernels, MinLCostPinnedCorners) {
  // k = 1: equal words cost 0, distinct cost 1.
  strings::SideMinima m = strings::side_minima_seeded(
      std::vector<Symbol>{1}, std::vector<Symbol>{1}, 2);
  EXPECT_EQ(m.l_side, (OverlapMin{0, 1, 1, 1}));
  EXPECT_EQ(m.r_side, (OverlapMin{0, 1, 1, 1}));
  m = strings::side_minima_seeded(std::vector<Symbol>{0},
                                  std::vector<Symbol>{1}, 2);
  EXPECT_EQ(m.l_side, (OverlapMin{1, 1, 1, 0}));
  // X == Y: distance 0 with the full-word witness on both sides.
  DBN_SEEDED_RNG(rng, 0xc02e);
  const std::vector<Symbol> w = testing::random_symbols(rng, 70, 4);
  m = strings::side_minima_seeded(w, w, 4);
  EXPECT_EQ(m.l_side, (OverlapMin{0, 1, 70, 70}));
  EXPECT_EQ(m.r_side, (OverlapMin{0, 70, 1, 70}));
  // No shared symbol at all: the θ = 0 baselines.
  const std::vector<Symbol> zeros(40, 0);
  const std::vector<Symbol> ones(40, 1);
  m = strings::side_minima_seeded(zeros, ones, 2);
  EXPECT_EQ(m.l_side, (OverlapMin{40, 1, 40, 0}));
  EXPECT_EQ(m.r_side, (OverlapMin{40, 40, 1, 0}));
  // One shared digit at each corner, x_1 == y_40 and x_40 == y_1, each
  // the cheapest of the single-digit blocks on its side.
  std::vector<Symbol> corner = zeros;
  corner.front() = 1;
  std::vector<Symbol> other = ones;
  other.front() = 0;
  m = strings::side_minima_seeded(corner, other, 2);
  EXPECT_EQ(m.l_side, (OverlapMin{39, 1, 40, 1}));
  EXPECT_EQ(m.r_side, (OverlapMin{39, 40, 1, 1}));
  // Mismatched sizes and digits past the alphabet violate the contract.
  EXPECT_THROW(strings::side_minima_seeded(zeros, std::vector<Symbol>(39, 0),
                                           2),
               ContractViolation);
  EXPECT_THROW(strings::side_minima_seeded(zeros, ones, 1),
               ContractViolation);
  EXPECT_THROW(strings::side_minima_seeded(zeros,
                                           std::vector<Symbol>(40, 3), 3),
               ContractViolation);
  EXPECT_EQ(strings::side_minima_seeded(std::vector<Symbol>(40, 1),
                                        std::vector<Symbol>(40, 2), 3)
                .l_side,
            (OverlapMin{40, 1, 40, 0}));
  EXPECT_THROW(strings::side_minima_seeded(std::vector<Symbol>(40, 1),
                                           std::vector<Symbol>(40, 2), 2),
               ContractViolation);
  EXPECT_THROW(strings::side_minima_seeded(std::vector<Symbol>(40, 30), ones,
                                           20),
               ContractViolation);
  EXPECT_THROW(strings::side_minima_seeded({}, {}, 2), ContractViolation);
}

TEST(PackedKernels, LongestCommonSubstringMatchesNaiveAndSuffixTree) {
  DBN_SEEDED_RNG(rng, 0x1c5b);
  for (const AlphabetParam& p : alphabet_grid()) {
    for (int trial = 0; trial < 80; ++trial) {
      const std::size_t ka = 1 + rng.below(p.max_k);
      const std::size_t kb = 1 + rng.below(p.max_k);
      std::vector<Symbol> a = testing::random_symbols(rng, ka, p.alphabet);
      std::vector<Symbol> b = testing::random_symbols(rng, kb, p.alphabet);
      if (rng.chance(0.5)) {
        // Plant a shared block at random offsets.
        const std::size_t len = 1 + rng.below(std::min(ka, kb));
        const std::size_t ia = rng.below(ka - len + 1);
        const std::size_t ib = rng.below(kb - len + 1);
        std::copy(a.begin() + static_cast<long>(ia),
                  a.begin() + static_cast<long>(ia + len),
                  b.begin() + static_cast<long>(ib));
      }
      EXPECT_EQ(longest_common_substring_suffix_tree(a, b),
                strings::naive::longest_common_substring(a, b));
    }
  }
}

TEST(PackedKernels, DiagonalPassMatchesTheReference) {
  // Every alphabet and length the pass takes, over the witness-rule
  // families with every one-shift neighbour, plus blocks planted on the
  // extreme diagonals c = k - 1 and c = -(k - 1) and the alternating pair
  // whose runs reach k - 1.
  DBN_SEEDED_RNG(rng, 0xd1a9);
  for (std::uint32_t d = 1; d <= 16; ++d) {
    for (std::size_t k = 1; k <= strings::kDiagonalPassMaxK; ++k) {
      SCOPED_TRACE(::testing::Message() << "d=" << d << " k=" << k);
      ASSERT_TRUE(strings::diagonal_pass_fits(d, k));
      const auto check = [&](const std::vector<Symbol>& x,
                             const std::vector<Symbol>& y) {
        expect_pass_like_reference(x, y, d);
      };
      for_each_family(rng, d, k, 6, d, check);
      if (d >= 2) {
        std::vector<Symbol> alt(k), alt_shifted(k);
        for (std::size_t i = 0; i < k; ++i) {
          alt[i] = static_cast<Symbol>(i % 2);
          alt_shifted[i] = static_cast<Symbol>((i + 1) % 2);
        }
        check(alt, alt_shifted);
      }
      for (int trial = 0; trial < 2; ++trial) {
        const std::vector<Symbol> x = testing::random_symbols(rng, k, d);
        std::vector<Symbol> y = testing::random_symbols(rng, k, d);
        y.back() = x.front();  // c = k - 1
        check(x, y);
        y = testing::random_symbols(rng, k, d);
        y.front() = x.back();  // c = -(k - 1)
        check(x, y);
      }
    }
  }
}

TEST(PackedKernels, SeededKernelMatchesTheReference) {
  // Every length past the pass at d = 1..16 (every cell width) and at
  // unpacked alphabets, over the witness-rule families with up to eight
  // one-shift neighbours: k = 45 -> 46 is where q steps from 11 to 12 at
  // d = 2, and 64/128/256/512 end 64-bit words at one bit per digit. Past
  // them, the first length at each cell width whose packed words leave the
  // kernel's stack buffer for its per-thread scratch: 2,049 digits at one
  // bit, 1,025 at two and 513 at four.
  DBN_SEEDED_RNG(rng, 0x5eed);
  std::vector<std::uint32_t> alphabets;
  for (std::uint32_t d = 1; d <= 16; ++d) {
    alphabets.push_back(d);
  }
  for (const std::uint32_t d : {17u, 20u, 255u}) {
    alphabets.push_back(d);
  }
  const std::vector<std::size_t> lengths = {33,  45,  46,  64,  96,  128, 129,
                                            255, 256, 257, 511, 512};
  for (const std::uint32_t d : alphabets) {
    for (const std::size_t k : lengths) {
      SCOPED_TRACE(::testing::Message() << "d=" << d << " k=" << k);
      for_each_family(rng, d, k, k < 200 ? 4 : 1, 8,
                      [&](const std::vector<Symbol>& x,
                          const std::vector<Symbol>& y) {
                        expect_seeded_like_reference(x, y, d);
                      });
    }
  }
  struct Long {
    std::uint32_t d;
    std::size_t k;
  };
  for (const Long net : {Long{2, 1024}, Long{2, 2049}, Long{4, 1025},
                         Long{16, 513}}) {
    SCOPED_TRACE(::testing::Message() << "d=" << net.d << " k=" << net.k);
    for_each_family(rng, net.d, net.k, 1, 8,
                    [&](const std::vector<Symbol>& x,
                        const std::vector<Symbol>& y) {
                      expect_seeded_like_reference(x, y, net.d);
                    });
  }
}

TEST(PackedKernels, SeededKernelOnEveryDiagonal) {
  // A block of n/2 + 1 and of n cells on each diagonal of n cells in turn,
  // in random words: every diagonal, however its kernel phase treats it,
  // must yield its block. Short words too, where every diagonal is near a
  // corner.
  DBN_SEEDED_RNG(rng, 0xd1a6);
  for (const std::uint32_t d : {2u, 4u, 16u, 20u}) {
    for (const std::size_t k : {std::size_t{1}, std::size_t{5},
                                std::size_t{33}, std::size_t{70},
                                std::size_t{130}}) {
      SCOPED_TRACE(::testing::Message() << "d=" << d << " k=" << k);
      const auto ki = static_cast<long>(k);
      for (long c = -(ki - 1); c <= ki - 1; ++c) {
        const long n = ki - std::abs(c);
        for (const long theta : {n / 2 + 1, n}) {
          const std::vector<Symbol> x = testing::random_symbols(rng, k, d);
          std::vector<Symbol> y = testing::random_symbols(rng, k, d);
          const long start = std::max(0L, -c) +
                             static_cast<long>(rng.below(
                                 static_cast<std::uint64_t>(n - theta + 1)));
          std::copy(x.begin() + start, x.begin() + start + theta,
                    y.begin() + start + c);
          expect_seeded_like_reference(x, y, d);
        }
      }
    }
  }
}

TEST(PackedKernels, DiagonalPassPinnedTieAndExtremeDiagonals) {
  // The k = 32 corpus pairs (tests/corpus/adversarial.case), x over 0..7
  // and y over 8..f outside the planted blocks.
  const auto digits = [](const char* text) {
    std::vector<Symbol> out;
    for (const char* p = text; *p != '\0'; ++p) {
      out.push_back(static_cast<Symbol>(*p <= '9' ? *p - '0' : *p - 'a' + 10));
    }
    return out;
  };
  const std::vector<Symbol> x = digits("01234567012345670123456701234567");
  const auto plan = [](const std::vector<Symbol>& a,
                       const std::vector<Symbol>& b) {
    const strings::SideMinima m = strings::side_minima_diagonal(a, b, 16);
    return make_bidi_plan(32, m.l_side, m.r_side);
  };
  // One digit on diagonal c = 31 (x_1 == y_32), then on c = -31.
  const BidiPlan head = plan(x, digits("8be9cfad8be9cfad8be9cfad8be9cfa0"));
  EXPECT_EQ(head.shape, BidiPlan::Shape::LeftBlock);
  EXPECT_EQ(head.distance, 31);
  EXPECT_EQ(head.s, 1);
  EXPECT_EQ(head.t, 32);
  EXPECT_EQ(head.theta, 1);
  const BidiPlan tail = plan(x, digits("7be9cfad8be9cfad8be9cfad8be9cfad"));
  EXPECT_EQ(tail.shape, BidiPlan::Shape::RightBlock);
  EXPECT_EQ(tail.distance, 31);
  EXPECT_EQ(tail.s, 32);
  EXPECT_EQ(tail.t, 1);
  EXPECT_EQ(tail.theta, 1);
  // Two l-side blocks of cost 31: c = 31 with θ = 1 (x_1 == y_32) and
  // c = 1 with θ = 16 (x_2..x_17 == y_3..y_18). The smaller c wins.
  const std::vector<Symbol> tx = digits("91234567012345670888888888888888");
  const std::vector<Symbol> ty = digits("ab1234567012345670abcdefabcdefa9");
  const BidiPlan tie = plan(tx, ty);
  EXPECT_EQ(tie.shape, BidiPlan::Shape::LeftBlock);
  EXPECT_EQ(tie.distance, 31);
  EXPECT_EQ(tie.s, 2);
  EXPECT_EQ(tie.t, 18);
  EXPECT_EQ(tie.theta, 16);
  expect_pass_like_reference(tx, ty, 16);
  // The seeded kernel keeps the same rule.
  expect_seeded_like_reference(tx, ty, 16);
}

TEST(PackedKernels, DiagonalPassDispatchEdge) {
  // k = 32 is the pass's last length and k = 33 the seeded kernel's first,
  // at one bit and at four bits per digit. On both sides the engine's
  // routes are the ones the reference's plan builds, hop for hop, in both
  // wildcard modes.
  DBN_SEEDED_RNG(rng, 0xed9e);
  BidirectionalRouteEngine engine(33);
  RoutingPath path;
  for (const std::uint32_t d : {2u, 16u}) {
    for (const std::size_t k : {32u, 33u}) {
      SCOPED_TRACE(::testing::Message() << "d=" << d << " k=" << k);
      EXPECT_EQ(strings::diagonal_pass_fits(d, k), k == 32);
      for (const testkit::WordFamily wf : testkit::kAllWordFamilies) {
        for (const testkit::PairFamily pf : testkit::kAllPairFamilies) {
          const auto [xw, yw] = testkit::sample_pair(rng, d, k, wf, pf);
          const std::vector<Symbol> x(xw.symbols().begin(),
                                      xw.symbols().end());
          const std::vector<Symbol> y(yw.symbols().begin(),
                                      yw.symbols().end());
          if (k == 32) {
            expect_pass_like_reference(x, y, d);
          } else {
            EXPECT_THROW(strings::side_minima_diagonal(x, y, d),
                         ContractViolation);
          }
          const strings::SideMinima ref = oracle::side_minima_reference(x, y);
          const BidiPlan plan = make_bidi_plan(static_cast<int>(k), ref.l_side,
                                               ref.r_side);
          for (const WildcardMode mode :
               {WildcardMode::Concrete, WildcardMode::Wildcards}) {
            engine.route_into(xw, yw, mode, path);
            EXPECT_EQ(path, build_bidi_path(xw, yw, plan, mode))
                << testkit::family_name(wf) << "/"
                << testkit::family_name(pf);
          }
        }
      }
    }
  }
  EXPECT_FALSE(strings::diagonal_pass_fits(17, 4));
  EXPECT_FALSE(strings::diagonal_pass_fits(2, 0));
}

TEST(PackedKernels, DispatchersUsePackedAndScalarConsistently) {
  // The public entry points (failure.cpp) dispatch on try_pack_pair; the
  // answers across the packable boundary must be seamless. Alphabet 16
  // packs, alphabet 17 does not — same structure either side.
  DBN_SEEDED_RNG(rng, 0xd15b);
  for (const std::uint32_t alphabet : {16u, 17u}) {
    for (int trial = 0; trial < 40; ++trial) {
      const std::size_t k = 1 + rng.below(30);
      std::vector<Symbol> x = testing::random_symbols(rng, k, alphabet);
      std::vector<Symbol> y = x;
      const std::size_t shift = rng.below(k);
      std::rotate(y.begin(), y.begin() + static_cast<long>(shift), y.end());
      EXPECT_EQ(strings::suffix_prefix_overlap(x, y),
                strings::naive::suffix_prefix_overlap(x, y));
      EXPECT_EQ(strings::kmp_find_all(x, y), strings::naive::find_all(x, y));
      EXPECT_EQ(longest_common_substring_suffix_tree(x, y),
                strings::naive::longest_common_substring(x, y));
    }
  }
}

}  // namespace
}  // namespace dbn

// The packed-vs-scalar differential battery (ISSUE 6 tentpole lock-in):
// every SWAR kernel in strings/packed.hpp against its scalar reference —
// the Morris–Pratt implementations in strings/failure.* and
// strings/matching.*, the suffix-tree search behind core/common_substring,
// and the brute-force oracles in strings/naive.* — over random words,
// unequal lengths, every cell width, and the adversarial word/pair
// families of the conformance fuzzer.
#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/contract.hpp"
#include "core/common_substring.hpp"
#include "strings/failure.hpp"
#include "strings/matching.hpp"
#include "strings/naive.hpp"
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
  EXPECT_TRUE(strings::packable(2, 128, strings::kLaneBits));
  EXPECT_FALSE(strings::packable(2, 129, strings::kLaneBits));
  EXPECT_TRUE(strings::packable(4, 64, strings::kLaneBits));
  EXPECT_FALSE(strings::packable(4, 65, strings::kLaneBits));
  EXPECT_TRUE(strings::packable(16, 32, strings::kLaneBits));
  EXPECT_FALSE(strings::packable(16, 33, strings::kLaneBits));
  // The widest lane, 512 bits of limbs, is the default.
  EXPECT_TRUE(strings::packable(2, 512));
  EXPECT_FALSE(strings::packable(2, 513));
  EXPECT_TRUE(strings::packable(4, 256));
  EXPECT_FALSE(strings::packable(4, 257));
  EXPECT_TRUE(strings::packable(16, 128));
  EXPECT_FALSE(strings::packable(16, 129));
  EXPECT_FALSE(strings::packable(17, 1));
  EXPECT_EQ(strings::pack_word(std::vector<Symbol>(65, 1), 2).width, 1u);
  EXPECT_THROW(strings::pack_word(std::vector<Symbol>(129, 0), 2),
               ContractViolation);
  EXPECT_THROW(strings::pack_word(std::vector<Symbol>(65, 0), 4),
               ContractViolation);
  EXPECT_THROW(strings::pack_wide(std::vector<Symbol>(513, 0), 2),
               ContractViolation);
  EXPECT_THROW(strings::pack_wide(std::vector<Symbol>(257, 0), 4),
               ContractViolation);
}

TEST(PackedKernels, PackUnpackRoundTrip) {
  DBN_SEEDED_RNG(rng, 0x9acc);
  for (const AlphabetParam& p : alphabet_grid()) {
    for (int trial = 0; trial < 50; ++trial) {
      const std::size_t k = 1 + rng.below(p.max_k);
      const std::vector<Symbol> s = testing::random_symbols(rng, k, p.alphabet);
      const PackedBuf packed = strings::pack_word(s, p.alphabet);
      EXPECT_EQ(strings::unpack(packed), s);
      const PackedBuf rev = strings::pack_reversed(s, p.alphabet);
      EXPECT_EQ(strings::unpack(rev), strings::reversed(s));
      // The O(log) lane reversal must agree with packing backwards.
      EXPECT_EQ(strings::reverse_cells(packed), rev);
      EXPECT_EQ(strings::reverse_cells(rev), packed);
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
  EXPECT_THROW(
      strings::suffix_prefix_overlap_packed(
          strings::pack_word(std::vector<Symbol>{0, 1}, 2),
          strings::pack_word(std::vector<Symbol>{5, 1}, 16)),
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

TEST(PackedKernels, MinLCostMatchesScalarWithValidWitness) {
  DBN_SEEDED_RNG(rng, 0x313c);
  for (const AlphabetParam& p : alphabet_grid()) {
    for (int trial = 0; trial < 120; ++trial) {
      const std::size_t k = 1 + rng.below(p.max_k);
      const std::vector<Symbol> x = testing::random_symbols(rng, k, p.alphabet);
      const std::vector<Symbol> y = testing::random_symbols(rng, k, p.alphabet);
      PackedBuf px, py;
      pack_pair(x, y, px, py);
      const OverlapMin packed = strings::min_l_cost_packed(px, py);
      EXPECT_EQ(packed.cost, strings::min_l_cost(x, y).cost);
      expect_valid_witness(x, y, packed);
    }
  }
}

TEST(PackedKernels, BoundedSweepIsExactBelowTheBound) {
  // The engine prunes the r-side sweep with the l-side incumbent; the
  // contract is that min(bound, result) always equals min(bound, true
  // minimum), with a valid witness either way.
  DBN_SEEDED_RNG(rng, 0xb0b0);
  for (int trial = 0; trial < 400; ++trial) {
    const std::uint32_t alphabet = trial % 2 == 0 ? 2 : 5 + rng.below(12);
    const std::size_t k = 1 + rng.below(alphabet == 2 ? 128 : 32);
    const std::vector<Symbol> x = testing::random_symbols(rng, k, alphabet);
    const std::vector<Symbol> y = testing::random_symbols(rng, k, alphabet);
    PackedBuf px, py;
    pack_pair(x, y, px, py);
    const int truth = strings::min_l_cost(x, y).cost;
    EXPECT_EQ(strings::min_l_cost_packed_bounded(px, py,
                                                 strings::kNoSweepBound)
                  .cost,
              truth);
    for (const int bound : {0, 1, truth, truth + 1, static_cast<int>(k)}) {
      const OverlapMin m = strings::min_l_cost_packed_bounded(px, py, bound);
      expect_valid_witness(x, y, m);
      EXPECT_GE(m.cost, truth) << "bound=" << bound;
      EXPECT_EQ(std::min(bound, m.cost), std::min(bound, truth))
          << "bound=" << bound;
      if (truth < bound) {
        EXPECT_EQ(m.cost, truth) << "bound=" << bound;
      }
    }
  }
}

TEST(PackedKernels, SideMinimumAtEveryLimbEdge) {
  // Both sides of 64-bit limb boundaries, of the 64-bit-to-128-bit and
  // 4-to-8-limb switches and of the lane's end, where a dropped carry or
  // a mask off by one limb would hide. Each pair of every word/pair
  // family runs through the wide lane, and through the 128-bit lane too
  // when it fits, against the scalar scan: exact cost, a valid witness,
  // the reversed words the r side sweeps, and the bounded sweep below and
  // above its bound.
  struct Edges {
    std::vector<std::uint32_t> alphabets;
    std::vector<std::size_t> ks;
  };
  const std::vector<Edges> edges = {
      {{2}, {64, 65, 128, 129, 192, 193, 256, 257, 511, 512}},  // width 1
      {{3, 4}, {32, 33, 64, 65, 96, 97, 128, 129, 255, 256}},   // width 2
      {{5, 16}, {16, 17, 32, 33, 64, 65, 127, 128}},            // width 4
  };
  DBN_SEEDED_RNG(rng, 0x11b5);
  for (const Edges& e : edges) {
    for (const std::uint32_t d : e.alphabets) {
      for (const std::size_t k : e.ks) {
        ASSERT_TRUE(strings::packable(d, k));
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
            const int truth = strings::min_l_cost(x, y).cost;
            const strings::WideBuf px = strings::pack_wide(x, d);
            const strings::WideBuf py = strings::pack_wide(y, d);
            const OverlapMin wide = strings::min_l_cost_wide(px, py);
            EXPECT_EQ(wide.cost, truth);
            expect_valid_witness(x, y, wide);
            if (strings::packable(d, k, strings::kLaneBits)) {
              const OverlapMin packed = strings::min_l_cost_packed(
                  strings::pack_word(x, d), strings::pack_word(y, d));
              EXPECT_EQ(packed.cost, truth);
              expect_valid_witness(x, y, packed);
            }
            for (const int bound : {0, truth, truth + 1}) {
              const OverlapMin m = strings::min_l_cost_wide(px, py, bound);
              expect_valid_witness(x, y, m);
              EXPECT_EQ(std::min(bound, m.cost), std::min(bound, truth))
                  << "bound=" << bound;
              if (truth < bound) {
                EXPECT_EQ(m.cost, truth) << "bound=" << bound;
              }
            }
            const std::vector<Symbol> xr = strings::reversed(x);
            const std::vector<Symbol> yr = strings::reversed(y);
            const OverlapMin r_side =
                strings::min_l_cost_wide(strings::pack_wide(x, d, true),
                                         strings::pack_wide(y, d, true));
            EXPECT_EQ(r_side.cost, strings::min_l_cost(xr, yr).cost);
            expect_valid_witness(xr, yr, r_side);
          }
        }
      }
    }
  }
  // One length past the widest lane at each width does not pack, so the
  // engine takes the scalar scan there.
  EXPECT_FALSE(strings::packable(2, 513));
  EXPECT_FALSE(strings::packable(4, 257));
  EXPECT_FALSE(strings::packable(16, 129));
  EXPECT_THROW(strings::pack_wide(std::vector<Symbol>(513, 1), 2),
               ContractViolation);
  EXPECT_THROW(strings::pack_wide(std::vector<Symbol>(257, 1), 4),
               ContractViolation);
  EXPECT_THROW(strings::pack_wide(std::vector<Symbol>(129, 1), 16),
               ContractViolation);
}

TEST(PackedKernels, MinLCostOnAdversarialPairFamilies) {
  DBN_SEEDED_RNG(rng, 0xadfa);
  for (const std::uint32_t d : {2u, 3u, 4u, 8u, 16u}) {
    const std::size_t k = d <= 4 ? 31 : 29;
    for (const testkit::WordFamily wf : testkit::kAllWordFamilies) {
      for (const testkit::PairFamily pf : testkit::kAllPairFamilies) {
        SCOPED_TRACE(::testing::Message()
                     << "d=" << d << " " << testkit::family_name(wf) << "/"
                     << testkit::family_name(pf));
        for (int trial = 0; trial < 4; ++trial) {
          const auto [xw, yw] = testkit::sample_pair(rng, d, k, wf, pf);
          const std::vector<Symbol> x(xw.symbols().begin(),
                                      xw.symbols().end());
          const std::vector<Symbol> y(yw.symbols().begin(),
                                      yw.symbols().end());
          PackedBuf px, py;
          pack_pair(x, y, px, py);
          const OverlapMin packed = strings::min_l_cost_packed(px, py);
          EXPECT_EQ(packed.cost, strings::min_l_cost(x, y).cost);
          EXPECT_EQ(packed.cost, min_l_cost_suffix_tree(x, y).cost);
          expect_valid_witness(x, y, packed);
        }
      }
    }
  }
}

TEST(PackedKernels, MinLCostPinnedCorners) {
  // k = 1: equal words cost 0, distinct cost 1.
  PackedBuf a, b;
  pack_pair(std::vector<Symbol>{1}, std::vector<Symbol>{1}, a, b);
  EXPECT_EQ(strings::min_l_cost_packed(a, b).cost, 0);
  pack_pair(std::vector<Symbol>{0}, std::vector<Symbol>{1}, a, b);
  EXPECT_EQ(strings::min_l_cost_packed(a, b).cost, 1);
  // X == Y: distance 0 with the full-word witness.
  DBN_SEEDED_RNG(rng, 0xc02e);
  const std::vector<Symbol> w = testing::random_symbols(rng, 20, 4);
  pack_pair(w, w, a, b);
  const OverlapMin self = strings::min_l_cost_packed(a, b);
  EXPECT_EQ(self.cost, 0);
  EXPECT_EQ(self.theta, 20);
  // No shared symbol at all: the theta = 0 baseline k.
  const std::vector<Symbol> zeros(16, 0);
  const std::vector<Symbol> ones(16, 1);
  pack_pair(zeros, ones, a, b);
  const OverlapMin far = strings::min_l_cost_packed(a, b);
  EXPECT_EQ(far.cost, 16);
  EXPECT_EQ(far.theta, 0);
  // Mismatched sizes violate the contract.
  pack_pair(zeros, ones, a, b);
  b.size = 15;
  EXPECT_THROW(strings::min_l_cost_packed(a, b), ContractViolation);
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
      PackedBuf pa, pb;
      pack_pair(a, b, pa, pb);
      const int expected = strings::naive::longest_common_substring(a, b);
      EXPECT_EQ(strings::longest_common_substring_packed(pa, pb), expected);
      EXPECT_EQ(longest_common_substring_suffix_tree(a, b), expected);
      // The packed-first front must agree regardless of which kernel ran.
      EXPECT_EQ(longest_common_substring(a, b), expected);
    }
  }
}

TEST(PackedKernels, LongestCommonSubstringFrontFallsBackUnpacked) {
  // Symbols above the packable alphabet force the suffix-tree path of the
  // front; the answer must not depend on the dispatch.
  const std::vector<Symbol> a{100, 200, 300, 400, 500};
  const std::vector<Symbol> b{900, 300, 400, 500, 100};
  EXPECT_EQ(longest_common_substring(a, b), 3);
  EXPECT_EQ(strings::naive::longest_common_substring(a, b), 3);
}

TEST(PackedKernels, BorderArrayMatchesScalar) {
  DBN_SEEDED_RNG(rng, 0xb02d);
  std::vector<int> packed_border;
  for (const AlphabetParam& p : alphabet_grid()) {
    for (int trial = 0; trial < 60; ++trial) {
      const std::size_t k = 1 + rng.below(p.max_k);
      const std::vector<Symbol> s = testing::random_symbols(rng, k, p.alphabet);
      const PackedBuf packed = strings::pack_word(s, p.alphabet);
      strings::border_array_packed(packed, packed_border);
      EXPECT_EQ(packed_border, strings::border_array(s));
      if (k <= 24) {
        EXPECT_EQ(packed_border, strings::naive::border_array(s));
      }
    }
  }
  // Border-rich adversarial patterns (periodic, self-overlapping).
  for (const std::vector<Symbol>& s : std::vector<std::vector<Symbol>>{
           {0, 0, 0, 0, 0, 0, 0},
           {0, 1, 0, 1, 0, 1, 0},
           {0, 1, 0, 0, 1, 0, 0, 1, 0},
           {0, 0, 1, 0, 0, 1, 0, 0},
           {3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3}}) {
    const PackedBuf packed = strings::pack_word(s, 4);
    strings::border_array_packed(packed, packed_border);
    EXPECT_EQ(packed_border, strings::border_array(s));
    EXPECT_EQ(packed_border, strings::naive::border_array(s));
  }
}

TEST(PackedKernels, FindAllMatchesKmpAndNaive) {
  DBN_SEEDED_RNG(rng, 0xf1d4);
  std::vector<std::size_t> hits;
  for (const AlphabetParam& p : alphabet_grid()) {
    for (int trial = 0; trial < 80; ++trial) {
      const std::size_t n = 1 + rng.below(p.max_k);
      const std::size_t m = 1 + rng.below(n);
      const std::vector<Symbol> text =
          testing::random_symbols(rng, n, p.alphabet);
      std::vector<Symbol> pattern;
      if (rng.chance(0.6)) {
        // A real window of the text: guaranteed occurrences.
        const std::size_t at = rng.below(n - m + 1);
        pattern.assign(text.begin() + static_cast<long>(at),
                       text.begin() + static_cast<long>(at + m));
      } else {
        pattern = testing::random_symbols(rng, m, p.alphabet);
      }
      PackedBuf ptext, ppattern;
      pack_pair(text, pattern, ptext, ppattern);
      strings::find_all_packed(ptext, ppattern, hits);
      const std::vector<std::size_t> expected =
          strings::kmp_find_all(text, pattern);
      EXPECT_EQ(hits, expected);
      EXPECT_EQ(strings::naive::find_all(text, pattern), expected);
    }
  }
  // Degenerate shapes: empty pattern matches everywhere, longer-than-text
  // pattern nowhere.
  const std::vector<Symbol> text{0, 1, 0};
  PackedBuf ptext, pempty, plong;
  ASSERT_TRUE(strings::try_pack(text, 2, ptext));
  ASSERT_TRUE(strings::try_pack(std::vector<Symbol>{}, 2, pempty));
  ASSERT_TRUE(strings::try_pack(std::vector<Symbol>{0, 1, 0, 1}, 2, plong));
  strings::find_all_packed(ptext, pempty, hits);
  EXPECT_EQ(hits, (std::vector<std::size_t>{0, 1, 2, 3}));
  strings::find_all_packed(ptext, plong, hits);
  EXPECT_TRUE(hits.empty());
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
      EXPECT_EQ(longest_common_substring(x, y),
                strings::naive::longest_common_substring(x, y));
    }
  }
}

}  // namespace
}  // namespace dbn

// The packed-vs-scalar differential battery (ISSUE 6 tentpole lock-in):
// every SWAR kernel in strings/packed.hpp against its scalar reference —
// the Morris–Pratt implementations in strings/failure.* and
// strings/matching.*, and the brute-force oracles in oracle/naive.* — over
// random words, unequal lengths, every cell width, and the adversarial
// word/pair families of the conformance fuzzer.
#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/contract.hpp"
#include "core/path_builder.hpp"
#include "core/route_engine.hpp"
#include "oracle/common_substring.hpp"
#include "oracle/kmp.hpp"
#include "oracle/naive.hpp"
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
      EXPECT_EQ(packed.size, k);
      for (std::size_t i = 0; i < k; ++i) {
        EXPECT_EQ(packed.get(i), s[i]);
      }
      // The O(log) lane reversal must agree with packing the reversed word.
      const PackedBuf rev =
          strings::pack_word(strings::reversed(s), p.alphabet);
      EXPECT_EQ(strings::reverse_cells(packed), rev);
      EXPECT_EQ(strings::reverse_cells(rev), packed);
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
      EXPECT_EQ(longest_common_substring_suffix_tree(a, b),
                strings::naive::longest_common_substring(a, b));
    }
  }
}

// The route plan the engine made before the diagonal pass, and still makes
// past k = 32: the l-side sweep, then the r-side sweep on the reversed
// words bounded by the l-side minimum, on one 128-bit lane or on limbs.
BidiPlan sweep_plan(const std::vector<Symbol>& x, const std::vector<Symbol>& y,
                    std::uint32_t d) {
  const int k = static_cast<int>(x.size());
  if (!strings::packable(d, x.size(), strings::kLaneBits)) {
    const OverlapMin l_side = strings::min_l_cost_wide(
        strings::pack_wide(x, d), strings::pack_wide(y, d));
    return make_bidi_plan(
        k, l_side,
        r_side_from_reversed(
            k, strings::min_l_cost_wide(strings::pack_wide(x, d, true),
                                        strings::pack_wide(y, d, true),
                                        l_side.cost)));
  }
  const PackedBuf px = strings::pack_word(x, d);
  const PackedBuf py = strings::pack_word(y, d);
  const OverlapMin l_side = strings::min_l_cost_packed(px, py);
  const OverlapMin r_side = r_side_from_reversed(
      k, strings::min_l_cost_packed_bounded(strings::reverse_cells(px),
                                            strings::reverse_cells(py),
                                            l_side.cost));
  return make_bidi_plan(k, l_side, r_side);
}

// The diagonal pass on (x, y): both witnesses valid (the r-side one as an
// l-side witness of the reversed words), and the plan field by field the
// sweep's.
void expect_pass_plans_like_sweep(const std::vector<Symbol>& x,
                                  const std::vector<Symbol>& y,
                                  std::uint32_t d) {
  SCOPED_TRACE(::testing::Message() << "x=" << ::testing::PrintToString(x)
                                    << " y=" << ::testing::PrintToString(y));
  const int k = static_cast<int>(x.size());
  const strings::SideMinima pass = strings::side_minima_diagonal(x, y, d);
  expect_valid_witness(x, y, pass.l_side);
  expect_valid_witness(strings::reversed(x), strings::reversed(y),
                       r_side_from_reversed(k, pass.r_side));
  const BidiPlan want = sweep_plan(x, y, d);
  const BidiPlan got = make_bidi_plan(k, pass.l_side, pass.r_side);
  EXPECT_EQ(got.shape, want.shape);
  EXPECT_EQ(got.distance, want.distance);
  EXPECT_EQ(got.s, want.s);
  EXPECT_EQ(got.t, want.t);
  EXPECT_EQ(got.theta, want.theta);
}

TEST(PackedKernels, DiagonalPassPlansLikeTheOffsetSweep) {
  // Every alphabet and length the pass takes. Random pairs; periodic
  // pairs, whose runs reach the pass's last steps; equal words; each
  // one-shift neighbour L_a(x) = x_2..x_k a and R_a(x) = a x_1..x_{k-1};
  // blocks planted on the extreme diagonals c = k - 1 and c = -(k - 1);
  // and blocks at both word ends (x's head at y's tail and the reverse).
  DBN_SEEDED_RNG(rng, 0xd1a9);
  for (std::uint32_t d = 1; d <= 16; ++d) {
    for (std::size_t k = 1; k <= strings::kDiagonalPassMaxK; ++k) {
      SCOPED_TRACE(::testing::Message() << "d=" << d << " k=" << k);
      ASSERT_TRUE(strings::diagonal_pass_fits(d, k));
      const auto random = [&] { return testing::random_symbols(rng, k, d); };
      const auto periodic = [&](std::size_t shift) {
        const std::size_t period =
            1 + rng.below(std::max<std::size_t>(1, k / 2));
        const std::vector<Symbol> block =
            testing::random_symbols(rng, period, d);
        std::vector<Symbol> w(k);
        for (std::size_t i = 0; i < k; ++i) {
          w[i] = block[(i + shift) % period];
        }
        return w;
      };
      for (int trial = 0; trial < 6; ++trial) {
        expect_pass_plans_like_sweep(random(), random(), d);
      }
      for (int trial = 0; trial < 3; ++trial) {
        const std::size_t shift = rng.below(k);
        std::vector<Symbol> x = periodic(0);
        std::vector<Symbol> y(k);
        for (std::size_t i = 0; i < k; ++i) {
          y[i] = x[(i + shift) % k];
        }
        expect_pass_plans_like_sweep(x, y, d);
        expect_pass_plans_like_sweep(periodic(0), periodic(1), d);
      }
      if (d >= 2) {
        std::vector<Symbol> alt(k), alt_shifted(k);
        for (std::size_t i = 0; i < k; ++i) {
          alt[i] = static_cast<Symbol>(i % 2);
          alt_shifted[i] = static_cast<Symbol>((i + 1) % 2);
        }
        expect_pass_plans_like_sweep(alt, alt_shifted, d);
      }
      const std::vector<Symbol> x = random();
      expect_pass_plans_like_sweep(x, x, d);
      for (Symbol a = 0; a < d; ++a) {
        std::vector<Symbol> left(x.begin() + 1, x.end());
        left.push_back(a);
        std::vector<Symbol> right{a};
        right.insert(right.end(), x.begin(), x.end() - 1);
        expect_pass_plans_like_sweep(x, left, d);
        expect_pass_plans_like_sweep(x, right, d);
        expect_pass_plans_like_sweep(left, x, d);
      }
      for (int trial = 0; trial < 2; ++trial) {
        std::vector<Symbol> y = random();
        y.back() = x.front();  // c = k - 1
        expect_pass_plans_like_sweep(x, y, d);
        y = random();
        y.front() = x.back();  // c = -(k - 1)
        expect_pass_plans_like_sweep(x, y, d);
        const std::size_t theta = 1 + rng.below(k);
        y = random();
        std::copy(x.begin(), x.begin() + static_cast<long>(theta),
                  y.end() - static_cast<long>(theta));
        expect_pass_plans_like_sweep(x, y, d);
        y = random();
        std::copy(x.end() - static_cast<long>(theta), x.end(), y.begin());
        expect_pass_plans_like_sweep(x, y, d);
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
  expect_pass_plans_like_sweep(tx, ty, 16);
}

TEST(PackedKernels, DiagonalPassDispatchEdge) {
  // k = 32 is the pass's last length and k = 33 the sweep's first, at one
  // bit and at four bits per digit. On both sides the engine's routes are
  // the ones the sweep's plan builds, hop for hop, in both wildcard modes.
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
            expect_pass_plans_like_sweep(x, y, d);
          } else {
            EXPECT_THROW(strings::side_minima_diagonal(x, y, d),
                         ContractViolation);
          }
          const BidiPlan plan = sweep_plan(x, y, d);
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

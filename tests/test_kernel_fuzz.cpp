// Heavy cross-kernel fuzzing: the Theorem 2 engines — the Morris–Pratt
// scan, Z rows, suffix tree, suffix automaton, suffix array and the route
// engine's kernels (plus the naive enumeration where affordable) — against
// each other on structured, adversarial and randomized word families. Any
// divergence means one of the independently derived algorithms is wrong.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>

#include "common/rng.hpp"
#include "debruijn/sequence.hpp"
#include "oracle/common_substring.hpp"
#include "oracle/kmp.hpp"
#include "oracle/naive.hpp"
#include "oracle/side_minima_reference.hpp"
#include "oracle/suffix_array.hpp"
#include "oracle/zfunction.hpp"
#include "strings/failure.hpp"
#include "strings/matching.hpp"
#include "strings/packed.hpp"
#include "strings/suffix_automaton.hpp"
#include "testing_util.hpp"

namespace dbn {
namespace {

using strings::OverlapMin;
using strings::Symbol;

void expect_all_kernels_agree(const std::vector<Symbol>& x,
                              const std::vector<Symbol>& y,
                              const char* family) {
  const int expected = strings::min_l_cost(x, y).cost;
  EXPECT_EQ(strings::min_l_cost_z(x, y).cost, expected) << family;
  EXPECT_EQ(min_l_cost_suffix_tree(x, y).cost, expected) << family;
  EXPECT_EQ(strings::min_l_cost_suffix_automaton(x, y).cost, expected)
      << family;
  EXPECT_EQ(strings::min_l_cost_suffix_array(x, y).cost, expected) << family;
  // The route engine's kernels join the panel: the seeded kernel always,
  // the diagonal pass where it fits.
  const Symbol top = std::max(*std::max_element(x.begin(), x.end()),
                              *std::max_element(y.begin(), y.end()));
  EXPECT_EQ(strings::side_minima_seeded(x, y, top + 1).l_side.cost, expected)
      << family;
  if (strings::diagonal_pass_fits(top + 1, x.size())) {
    EXPECT_EQ(strings::side_minima_diagonal(x, y, top + 1).l_side.cost,
              expected)
        << family;
  }
  if (x.size() <= 16) {
    EXPECT_EQ(strings::naive::min_l_cost(x, y).cost, expected) << family;
  }
}

std::vector<Symbol> periodic(std::size_t k, const std::vector<Symbol>& motif) {
  std::vector<Symbol> out(k);
  for (std::size_t i = 0; i < k; ++i) {
    out[i] = motif[i % motif.size()];
  }
  return out;
}

TEST(KernelFuzz, ConstantAndPeriodicWords) {
  for (const std::size_t k : {1u, 2u, 3u, 7u, 16u, 33u}) {
    expect_all_kernels_agree(periodic(k, {0}), periodic(k, {0}), "0^k vs 0^k");
    expect_all_kernels_agree(periodic(k, {0}), periodic(k, {1}), "0^k vs 1^k");
    expect_all_kernels_agree(periodic(k, {0, 1}), periodic(k, {1, 0}),
                             "(01)* vs (10)*");
    expect_all_kernels_agree(periodic(k, {0, 0, 1}), periodic(k, {0, 1}),
                             "(001)* vs (01)*");
  }
}

TEST(KernelFuzz, ReversalAndShiftPairs) {
  Rng rng(777);
  for (int trial = 0; trial < 150; ++trial) {
    const std::uint32_t d = 2 + trial % 3;
    const std::size_t k = 1 + rng.below(28);
    const Word w = testing::random_word(rng, d, k);
    const std::vector<Symbol> x(w.symbols().begin(), w.symbols().end());
    // Against its own reversal.
    std::vector<Symbol> rev(x.rbegin(), x.rend());
    expect_all_kernels_agree(x, rev, "word vs reversal");
    // Against a small rotation (adjacent vertices in the graph).
    std::vector<Symbol> rot = x;
    std::rotate(rot.begin(), rot.begin() + 1, rot.end());
    expect_all_kernels_agree(x, rot, "word vs rotation");
    // Against itself.
    expect_all_kernels_agree(x, x, "word vs itself");
  }
}

TEST(KernelFuzz, DeBruijnSequenceWindows) {
  // Windows of a de Bruijn sequence share long overlaps — the structured
  // regime the routing actually sees.
  const auto seq = de_bruijn_sequence(2, 8);
  const std::size_t k = 12;
  Rng rng(778);
  for (int trial = 0; trial < 120; ++trial) {
    const std::size_t i = rng.below(seq.size() - k);
    const std::size_t j = rng.below(seq.size() - k);
    const std::vector<Symbol> x(seq.begin() + static_cast<long>(i),
                                seq.begin() + static_cast<long>(i + k));
    const std::vector<Symbol> y(seq.begin() + static_cast<long>(j),
                                seq.begin() + static_cast<long>(j + k));
    expect_all_kernels_agree(x, y, "de Bruijn windows");
  }
}

TEST(KernelFuzz, LargeAlphabets) {
  Rng rng(779);
  for (int trial = 0; trial < 80; ++trial) {
    const std::size_t k = 1 + rng.below(20);
    std::vector<Symbol> x(k), y(k);
    for (std::size_t i = 0; i < k; ++i) {
      // Huge sparse alphabet: stresses sentinel handling and map-based
      // children in every suffix structure.
      x[i] = static_cast<Symbol>(rng.below(1u << 20));
      y[i] = rng.chance(0.3) ? x[i] : static_cast<Symbol>(rng.below(1u << 20));
    }
    expect_all_kernels_agree(x, y, "large alphabet");
  }
}

TEST(KernelFuzz, LowEntropyBiasedWords) {
  Rng rng(780);
  for (int trial = 0; trial < 150; ++trial) {
    const std::size_t k = 1 + rng.below(40);
    std::vector<Symbol> x(k), y(k);
    for (std::size_t i = 0; i < k; ++i) {
      x[i] = rng.chance(0.9) ? 0 : 1;  // long runs of zeros
      y[i] = rng.chance(0.9) ? 0 : 1;
    }
    expect_all_kernels_agree(x, y, "low entropy");
  }
}

// --- packed (SWAR) kernel differential fuzzing ----------------------------
//
// The packed kernels are pure bit manipulation — exactly the kind of code
// where an off-by-one in a shift or mask survives unit tests and dies on
// one word shape. These sweeps hammer them against the scalar references
// at volume (the side-minimum sweep above already covers min_l_cost).

TEST(KernelFuzz, PackedOverlapAndSearchKernels) {
  DBN_SEEDED_RNG(rng, 0x9afca11);
  for (int trial = 0; trial < 20000; ++trial) {
    // Alphabet mix: mostly small (every cell width), occasionally at or
    // past the packable edge so the dispatchers' fallback is fuzzed too.
    const std::uint32_t alphabet =
        trial % 7 == 0 ? 16 + rng.below(4) : 1 + rng.below(16);
    const std::uint32_t width = strings::packed_width(alphabet);
    const std::size_t max_k = width == 0 ? 40 : 128 / width;
    const std::size_t kx = 1 + rng.below(max_k);
    const std::size_t ky = 1 + rng.below(max_k);
    std::vector<Symbol> x = testing::random_symbols(rng, kx, alphabet);
    std::vector<Symbol> y = testing::random_symbols(rng, ky, alphabet);
    if (rng.chance(0.4)) {
      // Plant a suffix-prefix overlap (the Property 1 hot case).
      const std::size_t s = 1 + rng.below(std::min(kx, ky));
      std::copy(x.end() - static_cast<long>(s), x.end(), y.begin());
    }
    // The Property 1 dispatcher (packed fast path when the pair fits a
    // lane, Morris–Pratt otherwise) and KMP search against the brute-force
    // oracles.
    EXPECT_EQ(strings::suffix_prefix_overlap(x, y),
              strings::naive::suffix_prefix_overlap(x, y));
    EXPECT_EQ(strings::kmp_find_all(x, y), strings::naive::find_all(x, y));
    strings::PackedBuf px, py;
    if (strings::try_pack_pair(x, y, px, py)) {
      EXPECT_EQ(strings::suffix_prefix_overlap_packed(px, py),
                strings::naive::suffix_prefix_overlap(x, y));
    }
  }
}

TEST(KernelFuzz, PackedSideMinimumAtLaneBoundaries) {
  // Dense sweep of the seeded kernel at the 64-bit word edges of its packed
  // words — k = 64/65, 128/129, ..., 511/512 at width 1 (d = 2), 32/33,
  // 64/65, 96/97, 128/129, 255/256 at width 2 and 16/17, 32/33, 64/65,
  // 127/128 at width 4 — where a window off by one cell would hide.
  // Rotations put long runs across every word boundary.
  static constexpr std::array<std::size_t, 16> kWidth1Edges = {
      64, 65, 128, 129, 192, 193, 256, 257, 320, 321, 384, 385, 448, 449,
      511, 512};
  static constexpr std::array<std::size_t, 10> kWidth2Edges = {
      32, 33, 64, 65, 96, 97, 128, 129, 255, 256};
  static constexpr std::array<std::size_t, 8> kWidth4Edges = {
      16, 17, 32, 33, 64, 65, 127, 128};
  DBN_SEEDED_RNG(rng, 0xede0);
  for (int trial = 0; trial < 4000; ++trial) {
    std::uint32_t alphabet = 2;
    std::size_t k = 0;
    switch (rng.below(3)) {
      case 0:
        k = kWidth1Edges[rng.below(kWidth1Edges.size())];
        break;
      case 1:
        alphabet = 3 + rng.below(2);
        k = kWidth2Edges[rng.below(kWidth2Edges.size())];
        break;
      default:
        alphabet = 5 + rng.below(12);
        k = kWidth4Edges[rng.below(kWidth4Edges.size())];
        break;
    }
    const std::vector<Symbol> x = testing::random_symbols(rng, k, alphabet);
    std::vector<Symbol> y = x;
    const std::size_t rot = rng.below(k);
    std::rotate(y.begin(), y.begin() + static_cast<long>(rot), y.end());
    if (rng.chance(0.5)) {
      y[rng.below(k)] = static_cast<Symbol>(rng.below(alphabet));
    }
    const strings::SideMinima m = strings::side_minima_seeded(x, y, alphabet);
    const strings::SideMinima want = oracle::side_minima_reference(x, y);
    EXPECT_EQ(m.l_side, want.l_side);
    EXPECT_EQ(m.r_side, want.r_side);
    EXPECT_EQ(m.l_side.cost, strings::min_l_cost(x, y).cost);
    testing::expect_valid_witness(x, y, m.l_side);
  }
}

}  // namespace
}  // namespace dbn

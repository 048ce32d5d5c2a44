// Falsification tests for the paper's Proposition 5 as printed (DESIGN.md
// §1.1): the X ⊥ reverse(Y) ⊤ tree computes reversed matches, so its
// candidate differs from the Theorem 2 l-side minimum — and routing with it
// would produce wrong distances.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"
#include "core/distance.hpp"
#include "core/path_builder.hpp"
#include "debruijn/bfs.hpp"
#include "oracle/common_substring.hpp"
#include "oracle/prop5_as_printed.hpp"
#include "strings/matching.hpp"
#include "testing_util.hpp"

namespace dbn {
namespace {

TEST(Prop5AsPrinted, CounterexampleFromDesignDoc) {
  // X = Y = (0,1): l_{1,2} = 2, so the true l-side minimum is 0 (the
  // distance from a vertex to itself). The printed proposition sees only
  // the reversed block "10" and cannot realize it.
  const std::vector<strings::Symbol> w = {0, 1};
  const strings::OverlapMin correct = min_l_cost_suffix_tree(w, w);
  const strings::OverlapMin printed = l_side_min_prop5_as_printed(w, w);
  EXPECT_EQ(correct.cost, 0);
  EXPECT_GT(printed.cost, 0) << "as printed, the minimum 0 is unreachable";
}

TEST(Prop5AsPrinted, AgreesOnPalindromicBlocks) {
  // When the optimal block is a palindrome the reversal is invisible:
  // X = Y = (0,0) has block "00".
  const std::vector<strings::Symbol> w = {0, 0};
  EXPECT_EQ(l_side_min_prop5_as_printed(w, w).cost,
            min_l_cost_suffix_tree(w, w).cost);
}

TEST(Prop5AsPrinted, DisagreementRateOverAllPairsIsSubstantial) {
  // Quantify the error over every ordered pair of DG(2,4): how often the
  // printed l-side candidate differs, and how often the final distance
  // min(D1,D2) (computing the r side the same printed way, via reversed
  // words) would be wrong.
  const std::uint32_t d = 2;
  const std::size_t k = 4;
  const DeBruijnGraph g(d, k, Orientation::Undirected);
  std::uint64_t l_side_wrong = 0;
  std::uint64_t distance_wrong = 0;
  std::uint64_t distance_too_small = 0;
  for (std::uint64_t xr = 0; xr < g.vertex_count(); ++xr) {
    const Word x = g.word(xr);
    const std::vector<int> bfs = bfs_distances(g, xr);
    for (std::uint64_t yr = 0; yr < g.vertex_count(); ++yr) {
      const Word y = g.word(yr);
      const strings::OverlapMin printed_l =
          l_side_min_prop5_as_printed(x.symbols(), y.symbols());
      const strings::OverlapMin correct_l =
          min_l_cost_suffix_tree(x.symbols(), y.symbols());
      l_side_wrong += printed_l.cost != correct_l.cost;
      const Word xrv = x.reversed();
      const Word yrv = y.reversed();
      const strings::OverlapMin printed_r = r_side_from_reversed(
          static_cast<int>(k),
          l_side_min_prop5_as_printed(xrv.symbols(), yrv.symbols()));
      const int printed_distance = std::min(printed_l.cost, printed_r.cost);
      distance_wrong += printed_distance != bfs[yr];
      distance_too_small += printed_distance < bfs[yr];
    }
  }
  const std::uint64_t pairs = g.vertex_count() * g.vertex_count();
  // The printed kernel is wrong on a large fraction of pairs, and it even
  // *underestimates* true distances (e.g. X = (0,1), Y = (1,0): the
  // reversed-block match "01" yields candidate 0, but D = 1) — so paths
  // planned from it would be invalid, not merely suboptimal.
  EXPECT_GT(l_side_wrong, pairs / 10)
      << "expected substantial disagreement, got " << l_side_wrong << "/"
      << pairs;
  EXPECT_GT(distance_wrong, 0u);
  EXPECT_GT(distance_too_small, 0u);
}

TEST(Prop5AsPrinted, CanUnderestimateTheTrueDistance) {
  // X = (0,1), Y = (1,0): LCP of "01..." with reverse(Y) = "01..." is 2,
  // giving the printed candidate k-2+1+1-2 = 0, yet D(X,Y) = 1.
  const std::vector<strings::Symbol> x = {0, 1};
  const std::vector<strings::Symbol> y = {1, 0};
  EXPECT_EQ(l_side_min_prop5_as_printed(x, y).cost, 0);
  EXPECT_EQ(undirected_distance(Word(2, {0, 1}), Word(2, {1, 0})), 1);
}

TEST(Prop5AsPrinted, NeverBeatsTheDiameter) {
  Rng rng(4242);
  for (int trial = 0; trial < 200; ++trial) {
    const std::uint32_t d = 2 + trial % 3;
    const std::size_t k = 1 + rng.below(10);
    const Word x = testing::random_word(rng, d, k);
    const Word y = testing::random_word(rng, d, k);
    const auto printed = l_side_min_prop5_as_printed(x.symbols(), y.symbols());
    EXPECT_LE(printed.cost, static_cast<int>(k));
    EXPECT_GE(printed.cost, 0);
  }
}

}  // namespace
}  // namespace dbn

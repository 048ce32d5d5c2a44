#include <gtest/gtest.h>

#include <algorithm>

#include "common/contract.hpp"
#include "common/rng.hpp"
#include "core/bfs_router.hpp"
#include "core/distance.hpp"
#include "core/routers.hpp"
#include "debruijn/bfs.hpp"
#include "oracle/routers.hpp"
#include "testing_util.hpp"

namespace dbn {
namespace {

using dbn::testing::DkParam;

class RouterGrid : public ::testing::TestWithParam<DkParam> {};

TEST_P(RouterGrid, UnidirectionalPathsAreValidAndOptimalAllPairs) {
  const auto [d, k] = GetParam();
  const DeBruijnGraph g(d, k, Orientation::Directed);
  for (std::uint64_t xr = 0; xr < g.vertex_count(); ++xr) {
    const Word x = g.word(xr);
    const std::vector<int> dist = bfs_distances(g, xr);
    for (std::uint64_t yr = 0; yr < g.vertex_count(); ++yr) {
      const Word y = g.word(yr);
      const RoutingPath path = route_unidirectional(x, y);
      // Optimal: length equals the BFS distance; left shifts only.
      EXPECT_EQ(static_cast<int>(path.length()), dist[yr])
          << "X=" << x.to_string() << " Y=" << y.to_string();
      for (const Hop& h : path.hops()) {
        EXPECT_EQ(h.type, ShiftType::Left);
        EXPECT_FALSE(h.is_wildcard());
      }
      // Valid: applying the path reaches Y.
      EXPECT_EQ(path.apply(x), y);
    }
  }
}

TEST_P(RouterGrid, BidirectionalMpPathsAreValidAndOptimalAllPairs) {
  const auto [d, k] = GetParam();
  const DeBruijnGraph g(d, k, Orientation::Undirected);
  for (std::uint64_t xr = 0; xr < g.vertex_count(); ++xr) {
    const Word x = g.word(xr);
    const std::vector<int> dist = bfs_distances(g, xr);
    for (std::uint64_t yr = 0; yr < g.vertex_count(); ++yr) {
      const Word y = g.word(yr);
      const RoutingPath path = route_bidirectional_mp(x, y);
      EXPECT_EQ(static_cast<int>(path.length()), dist[yr])
          << "X=" << x.to_string() << " Y=" << y.to_string();
      EXPECT_EQ(path.apply(x), y)
          << "X=" << x.to_string() << " Y=" << y.to_string()
          << " path=" << path.to_string();
    }
  }
}

TEST_P(RouterGrid, SuffixTreeRouterAgreesWithMpAllPairs) {
  const auto [d, k] = GetParam();
  const DeBruijnGraph g(d, k, Orientation::Undirected);
  for (std::uint64_t xr = 0; xr < g.vertex_count(); ++xr) {
    const Word x = g.word(xr);
    for (std::uint64_t yr = 0; yr < g.vertex_count(); ++yr) {
      const Word y = g.word(yr);
      const RoutingPath mp = route_bidirectional_mp(x, y);
      const RoutingPath st = route_bidirectional_suffix_tree(x, y);
      EXPECT_EQ(st.length(), mp.length())
          << "X=" << x.to_string() << " Y=" << y.to_string();
      EXPECT_EQ(st.apply(x), y)
          << "X=" << x.to_string() << " Y=" << y.to_string()
          << " path=" << st.to_string();
    }
  }
}

TEST_P(RouterGrid, SuffixAutomatonRouterAgreesWithMpAllPairs) {
  const auto [d, k] = GetParam();
  const DeBruijnGraph g(d, k, Orientation::Undirected);
  for (std::uint64_t xr = 0; xr < g.vertex_count(); ++xr) {
    const Word x = g.word(xr);
    for (std::uint64_t yr = 0; yr < g.vertex_count(); ++yr) {
      const Word y = g.word(yr);
      const RoutingPath mp = route_bidirectional_mp(x, y);
      const RoutingPath sa = route_bidirectional_suffix_automaton(x, y);
      EXPECT_EQ(sa.length(), mp.length())
          << "X=" << x.to_string() << " Y=" << y.to_string();
      EXPECT_EQ(sa.apply(x), y)
          << "X=" << x.to_string() << " Y=" << y.to_string()
          << " path=" << sa.to_string();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(SmallGrid, RouterGrid,
                         ::testing::ValuesIn(dbn::testing::small_grid()),
                         ::testing::PrintToStringParamName());

// Degenerate corners (d=1, k=1) run the identical all-pairs sweeps: every
// router must handle the single-vertex and diameter-1 networks.
INSTANTIATE_TEST_SUITE_P(DegenerateGrid, RouterGrid,
                         ::testing::ValuesIn(dbn::testing::degenerate_grid()),
                         ::testing::PrintToStringParamName());

TEST(Routers, OneLetterAlphabetRoutesAreEmpty) {
  for (std::size_t k : {1u, 3u, 6u}) {
    const Word only = Word::zero(1, k);
    EXPECT_TRUE(route_unidirectional(only, only).empty());
    EXPECT_TRUE(route_bidirectional_mp(only, only).empty());
    EXPECT_TRUE(route_bidirectional_suffix_tree(only, only).empty());
    EXPECT_TRUE(route_bidirectional_suffix_automaton(only, only).empty());
  }
}

TEST(Routers, ExplicitXEqualsYAcrossGrids) {
  for (const auto& grids :
       {dbn::testing::small_grid(), dbn::testing::degenerate_grid()}) {
    for (const auto& [d, k] : grids) {
      const std::uint64_t n = Word::vertex_count(d, k);
      for (std::uint64_t r = 0; r < std::min<std::uint64_t>(n, 32); ++r) {
        const Word x = Word::from_rank(d, k, r);
        EXPECT_TRUE(route_unidirectional(x, x).empty());
        EXPECT_TRUE(route_bidirectional_mp(x, x).empty());
        EXPECT_TRUE(route_bidirectional_suffix_tree(x, x).empty());
        EXPECT_TRUE(route_bidirectional_suffix_automaton(x, x).empty());
      }
    }
  }
}

TEST(Routers, WildcardPathsReachDestinationUnderAnyResolution) {
  DBN_SEEDED_RNG(rng, 3001);
  for (int trial = 0; trial < 300; ++trial) {
    const std::uint32_t d = 2 + trial % 3;
    const std::size_t k = 1 + rng.below(10);
    const Word x = testing::random_word(rng, d, k);
    const Word y = testing::random_word(rng, d, k);
    for (auto route : {&route_bidirectional_mp, &route_bidirectional_suffix_tree}) {
      const RoutingPath path = route(x, y, WildcardMode::Wildcards);
      // Zero, max-digit, and random resolutions must all reach y.
      EXPECT_EQ(path.apply(x), y);
      EXPECT_EQ(path.apply(x, [&](std::size_t, ShiftType, const Word&) {
        return static_cast<Digit>(d - 1);
      }), y);
      Rng sub = rng.fork(trial);
      EXPECT_EQ(path.apply(x, [&](std::size_t, ShiftType, const Word&) {
        return static_cast<Digit>(sub.below(d));
      }), y);
      // Wildcard and concrete variants have equal length.
      EXPECT_EQ(path.length(), route(x, y, WildcardMode::Concrete).length());
    }
  }
}

TEST(Routers, LargeWordsRoutersAgreeAndPathsValid) {
  DBN_SEEDED_RNG(rng, 3002);
  for (const auto& [d, k] : dbn::testing::large_grid()) {
    for (int trial = 0; trial < 25; ++trial) {
      const Word x = testing::random_word(rng, d, k);
      const Word y = testing::random_word(rng, d, k);
      const RoutingPath uni = route_unidirectional(x, y);
      const RoutingPath mp = route_bidirectional_mp(x, y);
      const RoutingPath st = route_bidirectional_suffix_tree(x, y);
      EXPECT_EQ(uni.apply(x), y);
      EXPECT_EQ(mp.apply(x), y);
      EXPECT_EQ(st.apply(x), y);
      EXPECT_EQ(static_cast<int>(uni.length()), directed_distance(x, y));
      EXPECT_EQ(mp.length(), st.length());
      EXPECT_EQ(static_cast<int>(mp.length()), undirected_distance(x, y));
      EXPECT_LE(mp.length(), uni.length());
      EXPECT_LE(mp.length(), k);
    }
  }
}

TEST(Routers, SelfRouteIsEmpty) {
  const Word x(2, {1, 0, 1, 1});
  EXPECT_TRUE(route_unidirectional(x, x).empty());
  EXPECT_TRUE(route_bidirectional_mp(x, x).empty());
  EXPECT_TRUE(route_bidirectional_suffix_tree(x, x).empty());
}

TEST(Routers, RejectMismatchedEndpoints) {
  const Word x(2, {0, 1});
  const Word y(2, {0, 1, 1});
  const Word z(3, {0, 1});
  EXPECT_THROW(route_unidirectional(x, y), ContractViolation);
  EXPECT_THROW(route_bidirectional_mp(x, z), ContractViolation);
  EXPECT_THROW(route_bidirectional_suffix_tree(x, y), ContractViolation);
}

TEST(Routers, PaperTrivialCaseEmitsAllLeftShifts) {
  // X = (0,0,0), Y = (1,1,1): D1 = D2 = k, so Algorithm 2 line 6 applies.
  const Word x(2, {0, 0, 0});
  const Word y(2, {1, 1, 1});
  const RoutingPath path = route_bidirectional_mp(x, y);
  ASSERT_EQ(path.length(), 3u);
  for (const Hop& h : path.hops()) {
    EXPECT_EQ(h.type, ShiftType::Left);
    EXPECT_EQ(h.digit, 1u);
  }
}

TEST(BfsRouter, PathsAreValidAndOptimal) {
  for (Orientation o : {Orientation::Directed, Orientation::Undirected}) {
    const DeBruijnGraph g(3, 3, o);
    for (std::uint64_t xr = 0; xr < g.vertex_count(); xr += 2) {
      const std::vector<int> dist = bfs_distances(g, xr);
      for (std::uint64_t yr = 0; yr < g.vertex_count(); yr += 3) {
        const Word x = g.word(xr);
        const Word y = g.word(yr);
        const RoutingPath path = route_bfs(g, x, y);
        EXPECT_EQ(static_cast<int>(path.length()), dist[yr]);
        EXPECT_EQ(path.apply(x), y);
      }
    }
  }
}

TEST(BfsRouter, ClassifyEdgeRoundTrips) {
  const DeBruijnGraph g(2, 4, Orientation::Undirected);
  for (std::uint64_t u = 0; u < g.vertex_count(); ++u) {
    for (const std::uint64_t v : g.neighbors(u)) {
      const Hop hop = classify_edge(g, u, v);
      const Word w = g.word(u);
      const Word next = hop.type == ShiftType::Left ? w.left_shift(hop.digit)
                                                    : w.right_shift(hop.digit);
      EXPECT_EQ(next.rank(), v);
    }
  }
}

TEST(BfsRouter, ClassifyEdgeRejectsNonEdges) {
  const DeBruijnGraph g(2, 3, Orientation::Undirected);
  EXPECT_THROW(classify_edge(g, 0, 3), ContractViolation);
}

}  // namespace
}  // namespace dbn

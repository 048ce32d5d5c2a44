// Differential battery for the distance-layer tables (core/layer_table.*):
// classify() must agree with brute-force D(·,Y) recomputation on EVERY
// (X, Y, neighbor) triple of every small undirected network — the layer
// table is the adaptive router's only notion of progress, so a single
// wrong byte silently degrades deflection into a random walk.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/contract.hpp"
#include "core/distance.hpp"
#include "core/layer_table.hpp"
#include "testing_util.hpp"

namespace dbn {
namespace {

DistanceLayer expected_layer(int here, int there) {
  if (there < here) {
    return DistanceLayer::Closer;
  }
  return there == here ? DistanceLayer::Same : DistanceLayer::Farther;
}

/// Every (d,k) point the exhaustive sweeps cover: all-pairs brute force
/// stays cheap up to d = k = 4 (256 vertices), and the d = 1 / k = 1
/// degenerate corners ride along.
std::vector<testing::DkParam> layer_grid() {
  std::vector<testing::DkParam> grid;
  for (std::uint32_t d = 1; d <= 4; ++d) {
    for (std::size_t k = 1; k <= 4; ++k) {
      grid.push_back({d, k});
    }
  }
  return grid;
}

TEST(LayerTable, ExhaustiveDifferentialUndirected) {
  for (const auto& p : layer_grid()) {
    SCOPED_TRACE(::testing::Message() << p);
    const DeBruijnGraph g(p.d, p.k, Orientation::Undirected);
    LayerTable table(g);
    const std::uint64_t n = g.vertex_count();
    for (std::uint64_t yr = 0; yr < n; ++yr) {
      const Word y = g.word(yr);
      const auto view = table.view(y);
      ASSERT_NE(view, nullptr);
      EXPECT_EQ(view->destination(), yr);
      for (std::uint64_t xr = 0; xr < n; ++xr) {
        const Word x = g.word(xr);
        const int here = undirected_distance_quadratic(x, y);
        ASSERT_EQ(view->distance(xr), here);
        for (const std::uint64_t nr : g.neighbors(xr)) {
          const int there = undirected_distance_quadratic(g.word(nr), y);
          // Graph metric: one move changes the distance by at most 1, so
          // Closer pins the neighbor to exactly here-1 and Farther to
          // here+1 — the property the O(1) rewrite of net/adaptive.cpp
          // leans on for decision-identity with the old re-scoring.
          ASSERT_LE(there, here + 1);
          ASSERT_GE(there, here - 1);
          ASSERT_EQ(view->classify(xr, nr), expected_layer(here, there))
              << "x=" << xr << " y=" << yr << " neighbor=" << nr;
        }
      }
    }
  }
}

TEST(LayerTable, DegenerateCorners) {
  // d = 1: a single vertex whose only move is the self-loop — every
  // classification is Same at distance 0.
  for (const std::size_t k : {std::size_t{1}, std::size_t{4}}) {
    const DeBruijnGraph g(1, k, Orientation::Undirected);
    LayerTable table(g);
    const auto view = table.view(g.word(0));
    EXPECT_EQ(view->distance(0), 0);
    for (const std::uint64_t nr : g.neighbors(0)) {
      EXPECT_EQ(view->classify(0, nr), DistanceLayer::Same);
    }
  }
  // k = 1: the complete graph K_d — from any x != y the destination is
  // Closer, every other vertex Same, and nothing is ever Farther.
  const DeBruijnGraph g(5, 1, Orientation::Undirected);
  LayerTable table(g);
  const auto view = table.view(g.word(3));
  for (std::uint64_t xr = 0; xr < g.vertex_count(); ++xr) {
    for (const std::uint64_t nr : g.neighbors(xr)) {
      const DistanceLayer layer = view->classify(xr, nr);
      if (xr == 3) {
        EXPECT_EQ(layer, DistanceLayer::Farther) << nr;  // leaving y
      } else {
        EXPECT_EQ(layer, nr == 3 ? DistanceLayer::Closer
                                 : DistanceLayer::Same);
      }
    }
  }
}

TEST(LayerTable, CacheCountsLookupsHitsBuildsEvictions) {
  const DeBruijnGraph g(2, 4, Orientation::Undirected);
  LayerTableOptions options;
  options.cache_destinations = 2;
  LayerTable table(g, options);

  const auto v0 = table.view(g.word(0));
  auto stats = table.stats();
  EXPECT_EQ(stats.lookups, 1u);
  EXPECT_EQ(stats.builds, 1u);
  EXPECT_EQ(stats.hits, 0u);

  // Same destination again: served from cache, same table object.
  const auto v0_again = table.view(g.word(0));
  EXPECT_EQ(v0_again.get(), v0.get());
  stats = table.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.builds, 1u);

  // Two slots, sixteen destinations: displacement is inevitable, and every
  // store over a different destination counts as exactly one eviction.
  for (std::uint64_t y = 0; y < g.vertex_count(); ++y) {
    (void)table.view(g.word(y));
  }
  stats = table.stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_EQ(stats.lookups, 2 + g.vertex_count());
  EXPECT_EQ(stats.builds + stats.hits, stats.lookups);

  // The pinned view survives whatever evicted it.
  EXPECT_EQ(v0->distance(0), 0);
  EXPECT_EQ(v0->classify(0, 1),
            expected_layer(undirected_distance(g.word(0), g.word(0)),
                           undirected_distance(g.word(1), g.word(0))));
}

TEST(LayerTable, UncachedModeRebuildsEveryView) {
  const DeBruijnGraph g(2, 3, Orientation::Undirected);
  LayerTableOptions options;
  options.cache_destinations = 0;
  LayerTable table(g, options);
  const auto a = table.view(g.word(5));
  const auto b = table.view(g.word(5));
  EXPECT_NE(a.get(), b.get());
  const auto stats = table.stats();
  EXPECT_EQ(stats.lookups, 2u);
  EXPECT_EQ(stats.builds, 2u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.evictions, 0u);
}

TEST(LayerTable, ConcurrentViewsAreConsistent) {
  // Hammer one table from several threads with colliding destinations;
  // every returned view must be complete and correct regardless of who
  // built or evicted what. (The TSan job re-runs this for data races.)
  const DeBruijnGraph g(2, 5, Orientation::Undirected);
  LayerTableOptions options;
  options.cache_destinations = 4;
  LayerTable table(g, options);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&table, &g, t] {
      for (int round = 0; round < 50; ++round) {
        const std::uint64_t yr =
            static_cast<std::uint64_t>((t + round) % 8);
        const auto view = table.view(g.word(yr));
        for (std::uint64_t xr = 0; xr < g.vertex_count(); ++xr) {
          const int here = view->distance(xr);
          if (xr == yr) {
            ASSERT_EQ(here, 0);
          } else {
            ASSERT_GT(here, 0);
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  const auto stats = table.stats();
  EXPECT_EQ(stats.lookups, 4u * 50u);
  EXPECT_GE(stats.builds, 8u);  // at least one build per distinct y
}

TEST(LayerTable, RejectsBadUsage) {
  // Only the undirected network: no router reads directed tables.
  EXPECT_THROW(LayerTable(DeBruijnGraph(2, 4, Orientation::Directed)),
               ContractViolation);
  // The vertex cap: construction allocates no table, so the edge is cheap.
  EXPECT_EQ(LayerTable::kMaxVertices, std::uint64_t{1} << 20);
  EXPECT_NO_THROW(LayerTable(DeBruijnGraph(2, 20, Orientation::Undirected)));
  EXPECT_THROW(LayerTable(DeBruijnGraph(2, 21, Orientation::Undirected)),
               ContractViolation);

  const DeBruijnGraph g(2, 4, Orientation::Undirected);
  LayerTable table(g);
  const Word foreign(3, {0, 1, 2, 0});  // wrong radix
  EXPECT_THROW(table.view(foreign), ContractViolation);
  const Word short_word(2, {0, 1});  // wrong length
  EXPECT_THROW(table.view(short_word), ContractViolation);
}

}  // namespace
}  // namespace dbn

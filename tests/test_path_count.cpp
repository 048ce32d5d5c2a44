#include <gtest/gtest.h>

#include <set>

#include "common/contract.hpp"
#include "debruijn/bfs.hpp"
#include "oracle/path_count.hpp"
#include "testing_util.hpp"

namespace dbn {
namespace {

/// Brute-force: enumerate all shortest paths by DFS over the BFS layers.
std::uint64_t brute_count(const DeBruijnGraph& g, std::uint64_t src,
                          std::uint64_t dst) {
  const auto dist = bfs_distances(g, src);
  std::uint64_t total = 0;
  // Iterative DFS over (path end, depth) pairs.
  struct Frame {
    std::uint64_t at;
    int depth;
  };
  std::vector<Frame> frames = {{src, 0}};
  while (!frames.empty()) {
    const Frame f = frames.back();
    frames.pop_back();
    if (f.at == dst && f.depth == dist[dst]) {
      ++total;
      continue;
    }
    for (const std::uint64_t w : g.neighbors(f.at)) {
      if (dist[w] == f.depth + 1 && dist[w] <= dist[dst]) {
        frames.push_back({w, f.depth + 1});
      }
    }
  }
  return total;
}

TEST(PathCount, MatchesBruteForceOnSmallGraphs) {
  for (Orientation o : {Orientation::Directed, Orientation::Undirected}) {
    const DeBruijnGraph g(2, 4, o);
    for (std::uint64_t src = 0; src < g.vertex_count(); ++src) {
      const auto counts = count_shortest_paths_from(g, src);
      for (std::uint64_t dst = 0; dst < g.vertex_count(); ++dst) {
        EXPECT_EQ(counts[dst], brute_count(g, src, dst))
            << "src=" << src << " dst=" << dst;
      }
    }
  }
}

TEST(PathCount, SelfPathIsUnique) {
  const DeBruijnGraph g(3, 3, Orientation::Undirected);
  for (std::uint64_t v = 0; v < g.vertex_count(); v += 5) {
    EXPECT_EQ(count_shortest_paths(g, v, v), 1u);
  }
}

TEST(PathCount, NeighborsHaveExactlyOnePath) {
  const DeBruijnGraph g(2, 5, Orientation::Undirected);
  for (std::uint64_t v = 0; v < g.vertex_count(); ++v) {
    for (const std::uint64_t w : g.neighbors(v)) {
      EXPECT_EQ(count_shortest_paths(g, v, w), 1u);
    }
  }
}

TEST(PathCount, DiversityAtLeastOneOnAverage) {
  const DeBruijnGraph g(2, 5, Orientation::Undirected);
  const double mean = mean_shortest_path_count(g);
  EXPECT_GE(mean, 1.0);
  // The undirected DG(2,5) offers real diversity.
  EXPECT_GT(mean, 1.2);
}

TEST(PathCount, DirectedShortestPathsAreUnique) {
  // A directed path of length j from X necessarily ends at
  // (x_{j+1},...,x_k, a_1,...,a_j); reaching Y forces every inserted digit,
  // so the shortest path is unique for every ordered pair.
  for (const auto& [d, k] : std::vector<std::pair<std::uint32_t, std::size_t>>{
           {2, 5}, {3, 3}, {4, 3}}) {
    const DeBruijnGraph g(d, k, Orientation::Directed);
    for (std::uint64_t src = 0; src < g.vertex_count(); ++src) {
      const auto counts = count_shortest_paths_from(g, src);
      for (std::uint64_t dst = 0; dst < g.vertex_count(); ++dst) {
        EXPECT_EQ(counts[dst], 1u)
            << "d=" << d << " k=" << k << " src=" << src << " dst=" << dst;
      }
    }
  }
}

TEST(PathCount, RejectsBadRanks) {
  const DeBruijnGraph g(2, 3, Orientation::Undirected);
  EXPECT_THROW(count_shortest_paths_from(g, 8), ContractViolation);
  EXPECT_THROW(count_shortest_paths(g, 0, 8), ContractViolation);
}

}  // namespace
}  // namespace dbn

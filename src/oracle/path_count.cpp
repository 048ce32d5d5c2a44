#include "oracle/path_count.hpp"

#include <deque>

#include "common/contract.hpp"
#include "debruijn/bfs.hpp"

namespace dbn {

std::vector<std::uint64_t> count_shortest_paths_from(
    const DeBruijnGraph& graph, std::uint64_t src) {
  const std::uint64_t n = graph.vertex_count();
  DBN_REQUIRE(src < n, "count_shortest_paths_from: rank out of range");
  std::vector<int> dist(n, -1);
  std::vector<std::uint64_t> count(n, 0);
  std::deque<std::uint64_t> frontier;
  dist[src] = 0;
  count[src] = 1;
  frontier.push_back(src);
  // BFS order processes u before any w with dist[w] > dist[u], so count[u]
  // is final when its outgoing shortest-path-DAG edges are relaxed.
  while (!frontier.empty()) {
    const std::uint64_t u = frontier.front();
    frontier.pop_front();
    for (const std::uint64_t w : graph.neighbors(u)) {
      if (dist[w] == -1) {
        dist[w] = dist[u] + 1;
        frontier.push_back(w);
      }
      if (dist[w] == dist[u] + 1) {
        count[w] += count[u];
      }
    }
  }
  return count;
}

std::uint64_t count_shortest_paths(const DeBruijnGraph& graph,
                                   std::uint64_t src, std::uint64_t dst) {
  DBN_REQUIRE(dst < graph.vertex_count(),
              "count_shortest_paths: rank out of range");
  return count_shortest_paths_from(graph, src)[dst];
}

double mean_shortest_path_count(const DeBruijnGraph& graph) {
  const std::uint64_t n = graph.vertex_count();
  DBN_REQUIRE(n >= 2, "mean over ordered pairs needs at least two vertices");
  double total = 0.0;
  for (std::uint64_t src = 0; src < n; ++src) {
    const auto counts = count_shortest_paths_from(graph, src);
    for (std::uint64_t dst = 0; dst < n; ++dst) {
      if (dst != src) {
        total += static_cast<double>(counts[dst]);
      }
    }
  }
  return total / (static_cast<double>(n) * static_cast<double>(n - 1));
}

}  // namespace dbn

#include "oracle/routing_table.hpp"

#include <deque>

#include "common/contract.hpp"
#include "core/bfs_router.hpp"

namespace dbn {

namespace {
constexpr std::uint32_t kTypeBit = 0x80000000u;
constexpr std::uint32_t kSelf = 0xffffffffu;
}  // namespace

RoutingTable::RoutingTable(const DeBruijnGraph& graph)
    : n_(graph.vertex_count()), radix_(graph.radix()) {
  DBN_REQUIRE(n_ <= (1u << 13),
              "routing table needs O(N^2) memory; N is capped at 8192");
  entries_.assign(n_ * n_, kSelf);
  // One reverse BFS per destination: dist[v] = D(v, dst); the next hop of
  // src is any neighbor one closer. For the undirected graph forward and
  // reverse distances coincide; for the directed graph we BFS on reversed
  // arcs (predecessors of v are its right shifts).
  std::vector<int> dist(n_);
  for (std::uint64_t dst = 0; dst < n_; ++dst) {
    std::fill(dist.begin(), dist.end(), -1);
    std::deque<std::uint64_t> frontier;
    dist[dst] = 0;
    frontier.push_back(dst);
    while (!frontier.empty()) {
      const std::uint64_t v = frontier.front();
      frontier.pop_front();
      if (graph.orientation() == Orientation::Directed) {
        for (Digit c = 0; c < radix_; ++c) {
          const std::uint64_t u = graph.right_shift_rank(v, c);
          if (dist[u] == -1) {
            dist[u] = dist[v] + 1;
            frontier.push_back(u);
          }
        }
      } else {
        for (const std::uint64_t u : graph.neighbors(v)) {
          if (dist[u] == -1) {
            dist[u] = dist[v] + 1;
            frontier.push_back(u);
          }
        }
      }
    }
    for (std::uint64_t src = 0; src < n_; ++src) {
      if (src == dst) {
        continue;
      }
      DBN_ASSERT(dist[src] > 0, "DG(d,k) is (strongly) connected");
      // First improving neighbor, deterministic order.
      bool placed = false;
      for (const std::uint64_t w : graph.neighbors(src)) {
        if (dist[w] == dist[src] - 1) {
          const Hop hop = classify_edge(graph, src, w);
          entries_[src * n_ + dst] =
              (hop.type == ShiftType::Right ? kTypeBit : 0) | hop.digit;
          placed = true;
          break;
        }
      }
      DBN_ASSERT(placed, "some neighbor lies on a shortest path");
    }
  }
}

Hop RoutingTable::next_hop(std::uint64_t src, std::uint64_t dst) const {
  DBN_REQUIRE(src < n_ && dst < n_, "next_hop: rank out of range");
  DBN_REQUIRE(src != dst, "next_hop: already at the destination");
  const std::uint32_t entry = entries_[src * n_ + dst];
  return Hop{(entry & kTypeBit) != 0 ? ShiftType::Right : ShiftType::Left,
             entry & ~kTypeBit};
}

int RoutingTable::walk_length(std::uint64_t src, std::uint64_t dst) const {
  DBN_REQUIRE(src < n_ && dst < n_, "walk_length: rank out of range");
  const std::uint64_t top = n_ / radix_;
  int hops = 0;
  std::uint64_t at = src;
  while (at != dst) {
    DBN_ASSERT(hops <= static_cast<int>(2 * n_), "table walk diverged");
    const Hop hop = next_hop(at, dst);
    at = hop.type == ShiftType::Left
             ? (at % top) * radix_ + hop.digit
             : at / radix_ + static_cast<std::uint64_t>(hop.digit) * top;
    ++hops;
  }
  return hops;
}

std::size_t RoutingTable::memory_bytes() const {
  return entries_.size() * sizeof(std::uint32_t);
}

}  // namespace dbn

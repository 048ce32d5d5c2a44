#include <gtest/gtest.h>

#include "common/contract.hpp"
#include "debruijn/bfs.hpp"
#include "oracle/routing_table.hpp"
#include "testing_util.hpp"

namespace dbn {
namespace {

TEST(RoutingTable, WalksAreExactAllPairsUndirected) {
  const DeBruijnGraph g(2, 5, Orientation::Undirected);
  const RoutingTable table(g);
  for (std::uint64_t src = 0; src < g.vertex_count(); ++src) {
    const auto dist = bfs_distances(g, src);
    for (std::uint64_t dst = 0; dst < g.vertex_count(); ++dst) {
      EXPECT_EQ(table.walk_length(src, dst), dist[dst])
          << "src=" << src << " dst=" << dst;
    }
  }
}

TEST(RoutingTable, WalksAreExactAllPairsDirected) {
  const DeBruijnGraph g(3, 3, Orientation::Directed);
  const RoutingTable table(g);
  for (std::uint64_t src = 0; src < g.vertex_count(); ++src) {
    const auto dist = bfs_distances(g, src);
    for (std::uint64_t dst = 0; dst < g.vertex_count(); ++dst) {
      EXPECT_EQ(table.walk_length(src, dst), dist[dst])
          << "src=" << src << " dst=" << dst;
    }
  }
}

TEST(RoutingTable, NextHopsAreRealEdges) {
  const DeBruijnGraph g(2, 4, Orientation::Undirected);
  const RoutingTable table(g);
  for (std::uint64_t src = 0; src < g.vertex_count(); ++src) {
    for (std::uint64_t dst = 0; dst < g.vertex_count(); ++dst) {
      if (src == dst) {
        continue;
      }
      const Hop hop = table.next_hop(src, dst);
      const Word w = g.word(src);
      const Word next = hop.type == ShiftType::Left
                            ? w.left_shift(hop.digit)
                            : w.right_shift(hop.digit);
      EXPECT_TRUE(g.has_edge(src, next.rank()));
    }
  }
}

TEST(RoutingTable, MemoryIsQuadratic) {
  const DeBruijnGraph g(2, 5, Orientation::Undirected);
  const RoutingTable table(g);
  EXPECT_EQ(table.memory_bytes(), 32u * 32u * sizeof(std::uint32_t));
  EXPECT_EQ(table.vertex_count(), 32u);
}

TEST(RoutingTable, RejectsBadUsage) {
  const DeBruijnGraph big(2, 14, Orientation::Undirected);
  EXPECT_THROW(RoutingTable{big}, ContractViolation);
  const DeBruijnGraph g(2, 3, Orientation::Undirected);
  const RoutingTable table(g);
  EXPECT_THROW(table.next_hop(0, 0), ContractViolation);
  EXPECT_THROW(table.next_hop(0, 8), ContractViolation);
}

}  // namespace
}  // namespace dbn

#include <gtest/gtest.h>

#include "common/contract.hpp"
#include "common/rng.hpp"
#include "core/distance.hpp"
#include "debruijn/bfs.hpp"
#include "net/fault.hpp"
#include "net/simulator.hpp"
#include "oracle/routers.hpp"
#include "testing_util.hpp"

namespace dbn::net {
namespace {

TEST(Fault, RouterAvoidsFailedSites) {
  const DeBruijnGraph g(2, 5, Orientation::Undirected);
  Rng rng(11);
  for (int trial = 0; trial < 50; ++trial) {
    const auto failed = random_fault_set(g, 1, rng);
    const FaultAwareRouter router(g, failed);
    for (int probe = 0; probe < 20; ++probe) {
      const std::uint64_t xr = rng.below(g.vertex_count());
      const std::uint64_t yr = rng.below(g.vertex_count());
      const Word x = g.word(xr);
      const Word y = g.word(yr);
      const auto path = router.route(x, y);
      if (failed[xr] || failed[yr]) {
        EXPECT_FALSE(path.has_value());
        continue;
      }
      ASSERT_TRUE(path.has_value())
          << "d-1 = 1 failure must not disconnect DN(2,5)";
      // Walk the path: never touch a failed site, end at y.
      Word at = x;
      for (const Hop& h : path->hops()) {
        at = h.type == ShiftType::Left ? at.left_shift(h.digit)
                                       : at.right_shift(h.digit);
        EXPECT_FALSE(failed[at.rank()]) << "path crosses a failed site";
      }
      EXPECT_EQ(at, y);
    }
  }
}

TEST(Fault, RoutesAreShortestAmongSurvivors) {
  const DeBruijnGraph g(2, 4, Orientation::Undirected);
  std::vector<bool> failed(g.vertex_count(), false);
  failed[3] = true;
  const FaultAwareRouter router(g, failed);
  for (std::uint64_t xr = 0; xr < g.vertex_count(); ++xr) {
    if (failed[xr]) {
      continue;
    }
    const auto dist = bfs_distances_avoiding(g, xr, failed);
    for (std::uint64_t yr = 0; yr < g.vertex_count(); ++yr) {
      if (failed[yr]) {
        continue;
      }
      const auto path = router.route(g.word(xr), g.word(yr));
      ASSERT_TRUE(path.has_value());
      EXPECT_EQ(static_cast<int>(path->length()), dist[yr]);
    }
  }
}

TEST(Fault, ToleratesUpToDMinusOneFailures) {
  // Pradhan–Reddy claim measured: for f <= d-1 random failures the
  // survivors of the undirected DN(d,k) stay connected.
  Rng rng(22);
  for (const auto& [d, k] : std::vector<std::pair<std::uint32_t, std::size_t>>{
           {2, 5}, {3, 3}, {4, 3}, {5, 2}}) {
    const DeBruijnGraph g(d, k, Orientation::Undirected);
    for (std::size_t f = 0; f + 1 <= static_cast<std::size_t>(d) - 1; ++f) {
      for (int trial = 0; trial < 30; ++trial) {
        const auto failed = random_fault_set(g, f + 1, rng);
        EXPECT_TRUE(survivors_connected(g, failed))
            << "d=" << d << " k=" << k << " f=" << (f + 1);
      }
    }
  }
}

TEST(Fault, DFailuresCanDisconnect) {
  // Failing all d in-window predecessors of a site isolates it for
  // forward routing; undirected DG(2,k): the two words (0,1,0,...) style
  // neighborhoods are small. Construct an explicit disconnection for d=2:
  // vertex 01 in DG(2,2) has neighbors {00, 10, 11}... use the constant
  // word 00 in DG(2,3), whose cleaned degree is 2d-2 = 2: failing its two
  // neighbors isolates it.
  const DeBruijnGraph g(2, 3, Orientation::Undirected);
  const Word zero(2, {0, 0, 0});
  std::vector<bool> failed(g.vertex_count(), false);
  for (const std::uint64_t v : g.neighbors(zero.rank())) {
    failed[v] = true;
  }
  EXPECT_EQ(g.neighbors(zero.rank()).size(), 2u);
  EXPECT_FALSE(survivors_connected(g, failed));
  const FaultAwareRouter router(g, failed);
  EXPECT_FALSE(router.route(zero, Word(2, {1, 1, 1})).has_value());
}

TEST(Fault, DirectedConnectivityChecksBothDirections) {
  const DeBruijnGraph g(2, 3, Orientation::Directed);
  const std::vector<bool> none(g.vertex_count(), false);
  EXPECT_TRUE(survivors_connected(g, none));
  // Cutting both successors of the constant-0 word's "exit" breaks strong
  // connectivity: 000's only non-self successor is 001.
  std::vector<bool> failed(g.vertex_count(), false);
  failed[1] = true;  // 001
  EXPECT_FALSE(survivors_connected(g, failed));
}

TEST(Fault, RandomFaultSetProperties) {
  const DeBruijnGraph g(2, 6, Orientation::Undirected);
  Rng rng(33);
  const auto failed = random_fault_set(g, 10, rng);
  std::size_t count = 0;
  for (const bool f : failed) {
    count += f;
  }
  EXPECT_EQ(count, 10u);
  EXPECT_THROW(random_fault_set(g, 64, rng), ContractViolation);
}

TEST(Fault, LinkFailuresDropAndRerouteAround) {
  const DeBruijnGraph g(2, 5, Orientation::Undirected);
  SimConfig config;
  config.radix = 2;
  config.k = 5;
  Simulator sim(config);
  const Word src = Word::from_rank(2, 5, 3);
  const Word dst = Word::from_rank(2, 5, 26);
  const RoutingPath path = route_bidirectional_mp(src, dst);
  // Fail the first link of the oblivious path.
  const Hop& h = path.hop(0);
  const Word next = h.type == ShiftType::Left ? src.left_shift(h.digit)
                                              : src.right_shift(h.digit);
  sim.fail_link(src.rank(), next.rank());
  EXPECT_TRUE(sim.is_link_failed(src.rank(), next.rank()));
  sim.inject(0.0, Message(ControlCode::Data, src, dst, path));
  sim.run();
  EXPECT_EQ(sim.stats().delivered, 0u);
  EXPECT_EQ(sim.stats().dropped_link, 1u);

  // route_avoiding finds a way around the dead link and delivers.
  std::unordered_set<std::uint64_t> failed_links = {
      src.rank() * g.vertex_count() + next.rank()};
  const std::vector<bool> no_nodes(g.vertex_count(), false);
  const auto detour = route_avoiding(g, no_nodes, failed_links, src, dst);
  ASSERT_TRUE(detour.has_value());
  EXPECT_GE(detour->length(), path.length());
  sim.inject(sim.now(), Message(ControlCode::Data, src, dst, *detour));
  sim.run();
  EXPECT_EQ(sim.stats().delivered, 1u);
}

TEST(Fault, RouteAvoidingMatchesPlainRouterWithNoFaults) {
  const DeBruijnGraph g(2, 4, Orientation::Undirected);
  const std::vector<bool> none(g.vertex_count(), false);
  const std::unordered_set<std::uint64_t> no_links;
  for (std::uint64_t xr = 0; xr < g.vertex_count(); ++xr) {
    for (std::uint64_t yr = 0; yr < g.vertex_count(); ++yr) {
      const auto path = route_avoiding(g, none, no_links, g.word(xr), g.word(yr));
      ASSERT_TRUE(path.has_value());
      EXPECT_EQ(static_cast<int>(path->length()),
                undirected_distance(g.word(xr), g.word(yr)));
    }
  }
}

TEST(Fault, IsolatingLinkCutIsDetected) {
  // Cutting every link incident to the constant word isolates it.
  const DeBruijnGraph g(2, 4, Orientation::Undirected);
  const Word zero = Word::zero(2, 4);
  std::unordered_set<std::uint64_t> failed_links;
  for (const std::uint64_t v : g.neighbors(zero.rank())) {
    failed_links.insert(zero.rank() * g.vertex_count() + v);
    failed_links.insert(v * g.vertex_count() + zero.rank());
  }
  const std::vector<bool> none(g.vertex_count(), false);
  EXPECT_FALSE(route_avoiding(g, none, failed_links, zero,
                              Word(2, {1, 1, 1, 1}))
                   .has_value());
}

TEST(Fault, DegenerateNetworksRouteExactly) {
  // d = 1 and k = 1 corners: the BFS router must agree with the distance
  // function everywhere, including the single-vertex networks.
  for (const auto& p : testing::degenerate_grid()) {
    const DeBruijnGraph g(p.d, p.k, Orientation::Undirected);
    const std::vector<bool> none(g.vertex_count(), false);
    const FaultAwareRouter router(g, none);
    for (std::uint64_t xr = 0; xr < g.vertex_count(); ++xr) {
      for (std::uint64_t yr = 0; yr < g.vertex_count(); ++yr) {
        const auto path = router.route(g.word(xr), g.word(yr));
        ASSERT_TRUE(path.has_value()) << p;
        EXPECT_EQ(static_cast<int>(path->length()),
                  undirected_distance(g.word(xr), g.word(yr)))
            << p;
      }
    }
  }
}

TEST(Fault, DegenerateK1ToleratesHeavyFaults) {
  // K_7: any two survivors stay adjacent no matter how many others die —
  // far beyond the d-1 bound the general topology guarantees.
  const DeBruijnGraph g(7, 1, Orientation::Undirected);
  std::vector<bool> failed(g.vertex_count(), false);
  for (std::uint64_t v = 1; v <= 5; ++v) {
    failed[v] = true;
  }
  EXPECT_TRUE(survivors_connected(g, failed));
  const FaultAwareRouter router(g, failed);
  const auto path = router.route(g.word(0), g.word(6));
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->length(), 1u);
  EXPECT_FALSE(router.route(g.word(0), g.word(3)).has_value())
      << "a dead endpoint has no route";
}

TEST(Fault, DegenerateLinkAvoidanceDetoursOnK1) {
  const DeBruijnGraph g(3, 1, Orientation::Undirected);
  const std::vector<bool> none(g.vertex_count(), false);
  const std::unordered_set<std::uint64_t> dead_link = {
      0 * g.vertex_count() + 1};  // the directed link 0 -> 1
  const auto path = route_avoiding(g, none, dead_link, g.word(0), g.word(1));
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->length(), 2u) << "0 -> 2 -> 1 is the only detour in K_3";
  // The single-vertex network degenerates cleanly too.
  const DeBruijnGraph one(1, 3, Orientation::Undirected);
  const auto trivial = route_avoiding(one, {false}, {}, one.word(0),
                                      one.word(0));
  ASSERT_TRUE(trivial.has_value());
  EXPECT_EQ(trivial->length(), 0u);
}

TEST(Fault, SimulatorAndFaultRouterTogether) {
  // End to end: with one failed site, fault-aware paths deliver while the
  // oblivious shortest path through the failed site is dropped.
  const DeBruijnGraph g(2, 5, Orientation::Undirected);
  Rng rng(44);
  SimConfig config;
  config.radix = 2;
  config.k = 5;
  Simulator sim(config);
  const auto failed = random_fault_set(g, 1, rng);
  std::uint64_t failed_rank = 0;
  for (std::uint64_t v = 0; v < g.vertex_count(); ++v) {
    if (failed[v]) {
      failed_rank = v;
    }
  }
  sim.fail_node(failed_rank);
  const FaultAwareRouter router(g, failed);
  std::uint64_t sent = 0;
  for (std::uint64_t xr = 0; xr < g.vertex_count(); xr += 3) {
    for (std::uint64_t yr = 0; yr < g.vertex_count(); yr += 5) {
      if (failed[xr] || failed[yr]) {
        continue;
      }
      const auto path = router.route(g.word(xr), g.word(yr));
      ASSERT_TRUE(path.has_value());
      sim.inject(0.0, Message(ControlCode::Data, g.word(xr), g.word(yr), *path));
      ++sent;
    }
  }
  sim.run();
  EXPECT_EQ(sim.stats().delivered, sent);
  EXPECT_EQ(sim.stats().dropped_fault, 0u);
}

}  // namespace
}  // namespace dbn::net

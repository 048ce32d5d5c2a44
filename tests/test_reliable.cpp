#include <gtest/gtest.h>

#include "common/contract.hpp"
#include "common/rng.hpp"
#include "net/fault.hpp"
#include "net/reliable.hpp"
#include "oracle/routers.hpp"
#include "testing_util.hpp"

namespace dbn::net {
namespace {

AttemptRouter wildcard_router() {
  return [](const Word& x, const Word& y, int) {
    return route_bidirectional_suffix_tree(x, y, WildcardMode::Wildcards);
  };
}

std::vector<Transfer> random_transfers(std::uint64_t n, std::size_t count,
                                       Rng& rng) {
  std::vector<Transfer> transfers(count);
  for (auto& t : transfers) {
    t.source = rng.below(n);
    t.destination = rng.below(n);
  }
  return transfers;
}

TEST(Reliable, LosslessNetworkNeedsNoRetransmissions) {
  SimConfig config;
  config.radix = 2;
  config.k = 5;
  Simulator sim(config);
  Rng rng(1);
  const auto transfers = random_transfers(32, 50, rng);
  const ReliableReport report =
      run_reliable(sim, transfers, wildcard_router());
  EXPECT_EQ(report.transfers, 50u);
  EXPECT_EQ(report.completed, 50u);
  EXPECT_EQ(report.retransmissions, 0u);
  EXPECT_EQ(report.abandoned, 0u);
}

TEST(Reliable, RecoversOverflowDrops) {
  // Tiny queues + a burst: the raw network drops, the protocol recovers.
  SimConfig config;
  config.radix = 2;
  config.k = 5;
  config.link_queue_capacity = 1;
  config.wildcard_policy = WildcardPolicy::Random;
  config.seed = 3;
  Simulator sim(config);
  Rng rng(2);
  // Everybody sends to the same site at the same instant.
  std::vector<Transfer> transfers;
  for (std::uint64_t src = 0; src < 32; ++src) {
    transfers.push_back({src, 7});
  }
  ReliableConfig rc;
  rc.timeout = 64.0;
  rc.max_attempts = 30;
  const ReliableReport report =
      run_reliable(sim, transfers, wildcard_router(), rc);
  EXPECT_EQ(report.completed, transfers.size());
  EXPECT_EQ(report.abandoned, 0u);
  EXPECT_GT(report.retransmissions, 0u)
      << "the burst must overflow capacity-1 queues";
  EXPECT_GT(sim.stats().dropped_overflow, 0u);
}

TEST(Reliable, RoutesAroundFaultsWithAFaultAwareAttemptRouter) {
  const DeBruijnGraph g(2, 5, Orientation::Undirected);
  Rng rng(5);
  const auto failed = random_fault_set(g, 1, rng);
  SimConfig config;
  config.radix = 2;
  config.k = 5;
  Simulator sim(config);
  for (std::uint64_t v = 0; v < g.vertex_count(); ++v) {
    if (failed[v]) {
      sim.fail_node(v);
    }
  }
  const FaultAwareRouter fault_router(g, failed);
  // First attempt uses the oblivious shortest path (may cross the dead
  // site); retries fall back to the fault-aware route.
  const AttemptRouter router = [&](const Word& x, const Word& y, int attempt) {
    if (attempt == 0) {
      return route_bidirectional_mp(x, y);
    }
    auto path = fault_router.route(x, y);
    return path.value_or(RoutingPath{});
  };
  std::vector<Transfer> transfers;
  Rng pick(6);
  while (transfers.size() < 40) {
    const std::uint64_t s = pick.below(g.vertex_count());
    const std::uint64_t t = pick.below(g.vertex_count());
    if (!failed[s] && !failed[t]) {
      transfers.push_back({s, t});
    }
  }
  const ReliableReport report = run_reliable(sim, transfers, router);
  EXPECT_EQ(report.completed, transfers.size());
  EXPECT_EQ(report.abandoned, 0u);
}

TEST(Reliable, AbandonsAfterMaxAttemptsWhenDestinationIsDead) {
  SimConfig config;
  config.radix = 2;
  config.k = 4;
  Simulator sim(config);
  sim.fail_node(9);
  ReliableConfig rc;
  rc.timeout = 16.0;
  rc.max_attempts = 3;
  const ReliableReport report = run_reliable(
      sim, {Transfer{1, 9}}, wildcard_router(), rc);
  EXPECT_EQ(report.completed, 0u);
  EXPECT_EQ(report.abandoned, 1u);
  EXPECT_EQ(report.retransmissions, 2u);  // attempts 2 and 3
}

TEST(Reliable, RejectsBadConfig) {
  SimConfig config;
  Simulator sim(config);
  ReliableConfig rc;
  rc.timeout = 0.0;
  EXPECT_THROW(run_reliable(sim, {}, wildcard_router(), rc),
               ContractViolation);
}

}  // namespace
}  // namespace dbn::net

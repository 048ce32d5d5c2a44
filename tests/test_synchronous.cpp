#include <gtest/gtest.h>

#include <algorithm>

#include "common/contract.hpp"
#include "common/rng.hpp"
#include "core/distance.hpp"
#include "net/synchronous.hpp"
#include "oracle/routers.hpp"
#include "testing_util.hpp"

namespace dbn::net {
namespace {

Message routed(const Word& src, const Word& dst) {
  return Message(ControlCode::Data, src, dst,
                 route_bidirectional_mp(src, dst));
}

TEST(Synchronous, SingleMessageLatencyEqualsHops) {
  SimConfig config;
  config.radix = 2;
  config.k = 5;
  SynchronousNetwork net(config);
  const Word src = Word::from_rank(2, 5, 6);
  const Word dst = Word::from_rank(2, 5, 25);
  net.inject(0, routed(src, dst));
  net.run();
  EXPECT_EQ(net.stats().delivered, 1u);
  EXPECT_DOUBLE_EQ(net.stats().mean_latency(),
                   static_cast<double>(undirected_distance(src, dst)));
}

TEST(Synchronous, MatchesDiscreteEventSimulatorOnStaggeredWorkload) {
  // Same staggered (contention-tie-free) workload through both substrates:
  // per-message latencies must agree exactly (unit link delay).
  SimConfig config;
  config.radix = 2;
  config.k = 6;
  SynchronousNetwork sync(config);
  Simulator des(config);
  Rng rng(12321);
  for (int i = 0; i < 150; ++i) {
    const Word src = testing::random_word(rng, 2, 6);
    const Word dst = testing::random_word(rng, 2, 6);
    const Message m = routed(src, dst);
    sync.inject(3 * i, m);
    des.inject(3.0 * i, m);
  }
  sync.run();
  des.run();
  EXPECT_EQ(sync.stats().delivered, des.stats().delivered);
  EXPECT_EQ(sync.stats().total_hops, des.stats().total_hops);
  ASSERT_EQ(sync.stats().latencies.size(), des.stats().latencies.size());
  // Latencies are recorded in delivery order which can differ; compare as
  // sorted multisets.
  auto a = sync.stats().latencies;
  auto b = des.stats().latencies;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i], b[i]) << "latency multiset mismatch at " << i;
  }
}

TEST(Synchronous, ContendedBurstConservesAndSerializes) {
  SimConfig config;
  config.radix = 2;
  config.k = 4;
  SynchronousNetwork net(config);
  const Word src(2, {0, 0, 0, 0});
  const Word dst(2, {0, 0, 0, 1});
  for (int i = 0; i < 5; ++i) {
    net.inject(0, routed(src, dst));
  }
  net.run();
  EXPECT_EQ(net.stats().delivered, 5u);
  // One link, one message per round: latencies 1..5.
  auto lat = net.stats().latencies;
  std::sort(lat.begin(), lat.end());
  for (int i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(lat[static_cast<std::size_t>(i)], i + 1.0);
  }
  EXPECT_EQ(net.stats().max_queue, 5u);
}

TEST(Synchronous, FaultsAndOverflowAccounted) {
  SimConfig config;
  config.radix = 2;
  config.k = 4;
  config.link_queue_capacity = 2;
  SynchronousNetwork net(config);
  net.fail_node(9);
  const Word src(2, {0, 0, 0, 0});
  const Word dst(2, {0, 0, 0, 1});
  for (int i = 0; i < 4; ++i) {
    net.inject(0, routed(src, dst));
  }
  const Word dead = Word::from_rank(2, 4, 9);
  net.inject(0, routed(src, dead));
  net.run();
  const SimStats& s = net.stats();
  EXPECT_EQ(s.injected,
            s.delivered + s.dropped_fault + s.dropped_overflow +
                s.misdelivered);
  EXPECT_GT(s.dropped_overflow, 0u);
  EXPECT_EQ(s.dropped_fault, 1u);
}

TEST(Synchronous, HopByHopForwardingWorks) {
  SimConfig config;
  config.radix = 2;
  config.k = 5;
  config.forwarding = ForwardingMode::HopByHop;
  SynchronousNetwork net(config);
  Rng rng(77);
  std::uint64_t expected_hops = 0;
  for (int i = 0; i < 40; ++i) {
    const Word src = testing::random_word(rng, 2, 5);
    const Word dst = testing::random_word(rng, 2, 5);
    expected_hops += static_cast<std::uint64_t>(undirected_distance(src, dst));
    net.inject(2 * i, Message(ControlCode::Data, src, dst, RoutingPath{}));
  }
  net.run();
  EXPECT_EQ(net.stats().delivered, 40u);
  EXPECT_EQ(net.stats().total_hops, expected_hops);
}

TEST(Synchronous, RejectsBadUsage) {
  SimConfig config;
  config.radix = 2;
  config.k = 3;
  SynchronousNetwork net(config);
  EXPECT_THROW(net.fail_node(8), ContractViolation);
  const Word w(3, {0, 1, 2});
  EXPECT_THROW(net.inject(0, Message(ControlCode::Data, w, w, RoutingPath{})),
               ContractViolation);
}

}  // namespace
}  // namespace dbn::net

#include <gtest/gtest.h>

#include "common/contract.hpp"
#include "common/rng.hpp"
#include "core/distance.hpp"
#include "net/simulator.hpp"
#include "net/traffic.hpp"
#include "oracle/routers.hpp"
#include "testing_util.hpp"

namespace dbn::net {
namespace {

Message data_message(const Word& src, const Word& dst,
                     WildcardMode mode = WildcardMode::Concrete) {
  return Message(ControlCode::Data, src, dst,
                 route_bidirectional_mp(src, dst, mode));
}

TEST(Simulator, DeliversSingleMessageWithExactLatency) {
  SimConfig config;
  config.radix = 2;
  config.k = 4;
  Simulator sim(config);
  const Word src = Word::from_rank(2, 4, 3);
  const Word dst = Word::from_rank(2, 4, 12);
  const int dist = undirected_distance(src, dst);
  sim.inject(0.0, data_message(src, dst));
  sim.run();
  EXPECT_EQ(sim.stats().injected, 1u);
  EXPECT_EQ(sim.stats().delivered, 1u);
  EXPECT_EQ(sim.stats().misdelivered, 0u);
  // Uncongested: latency = hops * link_delay.
  EXPECT_DOUBLE_EQ(sim.stats().mean_latency(), static_cast<double>(dist));
  EXPECT_EQ(sim.stats().total_hops, static_cast<std::uint64_t>(dist));
}

TEST(Simulator, SelfMessageDeliversWithZeroLatency) {
  SimConfig config;
  Simulator sim(config);
  const Word w = Word::from_rank(2, 4, 7);
  sim.inject(1.5, data_message(w, w));
  sim.run();
  EXPECT_EQ(sim.stats().delivered, 1u);
  EXPECT_DOUBLE_EQ(sim.stats().mean_latency(), 0.0);
}

TEST(Simulator, AllMessagesDeliveredUnderUniformTraffic) {
  SimConfig config;
  config.radix = 2;
  config.k = 5;
  config.wildcard_policy = WildcardPolicy::Random;
  Simulator sim(config);
  Rng rng(555);
  const auto schedule = uniform_traffic(2, 5, 0.05, 100.0, rng);
  ASSERT_GT(schedule.size(), 50u);
  for (const Injection& inj : schedule) {
    const Word src = Word::from_rank(2, 5, inj.source);
    const Word dst = Word::from_rank(2, 5, inj.destination);
    sim.inject(inj.time, data_message(src, dst, WildcardMode::Wildcards));
  }
  sim.run();
  EXPECT_EQ(sim.stats().injected, schedule.size());
  EXPECT_EQ(sim.stats().delivered, schedule.size());
  EXPECT_EQ(sim.stats().misdelivered, 0u);
  EXPECT_EQ(sim.stats().dropped_fault, 0u);
  EXPECT_EQ(sim.stats().dropped_overflow, 0u);
  // Congestion can only add latency over the hop count.
  EXPECT_GE(sim.stats().mean_latency(), sim.stats().mean_hops());
}

TEST(Simulator, FifoLinkSerializesContendingMessages) {
  // Two messages injected simultaneously on the same first link: the second
  // waits one link_delay behind the first.
  SimConfig config;
  config.radix = 2;
  config.k = 3;
  Simulator sim(config);
  const Word src(2, {0, 0, 0});
  const Word dst(2, {0, 0, 1});  // one left shift away
  sim.inject(0.0, data_message(src, dst));
  sim.inject(0.0, data_message(src, dst));
  sim.run();
  EXPECT_EQ(sim.stats().delivered, 2u);
  EXPECT_DOUBLE_EQ(sim.stats().max_latency, 2.0);
  EXPECT_DOUBLE_EQ(sim.stats().total_latency, 3.0);  // 1 + 2
  EXPECT_EQ(sim.stats().max_queue, 2u);
}

TEST(Simulator, QueueCapacityDropsOverflow) {
  SimConfig config;
  config.radix = 2;
  config.k = 3;
  config.link_queue_capacity = 2;
  Simulator sim(config);
  const Word src(2, {0, 0, 0});
  const Word dst(2, {0, 0, 1});
  for (int i = 0; i < 5; ++i) {
    sim.inject(0.0, data_message(src, dst));
  }
  sim.run();
  EXPECT_EQ(sim.stats().delivered, 2u);
  EXPECT_EQ(sim.stats().dropped_overflow, 3u);
}

TEST(Simulator, FailedNodeDropsTraffic) {
  SimConfig config;
  config.radix = 2;
  config.k = 4;
  Simulator sim(config);
  const Word src = Word::from_rank(2, 4, 1);
  const Word dst = Word::from_rank(2, 4, 9);
  const RoutingPath path = route_bidirectional_mp(src, dst);
  // Fail the first intermediate site on the route.
  Word first_hop = src;
  const Hop& h = path.hop(0);
  first_hop = h.type == ShiftType::Left ? first_hop.left_shift(h.digit)
                                        : first_hop.right_shift(h.digit);
  sim.fail_node(first_hop.rank());
  EXPECT_TRUE(sim.is_failed(first_hop.rank()));
  sim.inject(0.0, Message(ControlCode::Data, src, dst, path));
  sim.run();
  EXPECT_EQ(sim.stats().delivered, 0u);
  EXPECT_EQ(sim.stats().dropped_fault, 1u);
}

TEST(Simulator, MisdeliveryDetected) {
  // A deliberately wrong path (too short) ends at a non-destination site.
  SimConfig config;
  config.radix = 2;
  config.k = 3;
  Simulator sim(config);
  const Word src(2, {0, 0, 0});
  const Word dst(2, {1, 1, 1});
  RoutingPath wrong({{ShiftType::Left, 1}});
  sim.inject(0.0, Message(ControlCode::Data, src, dst, wrong));
  sim.run();
  EXPECT_EQ(sim.stats().delivered, 0u);
  EXPECT_EQ(sim.stats().misdelivered, 1u);
}

TEST(Simulator, WildcardPoliciesAllDeliver) {
  for (WildcardPolicy policy :
       {WildcardPolicy::Zero, WildcardPolicy::Random, WildcardPolicy::LeastQueue}) {
    SimConfig config;
    config.radix = 2;
    config.k = 5;
    config.wildcard_policy = policy;
    Simulator sim(config);
    Rng rng(777);
    for (int i = 0; i < 64; ++i) {
      const Word src = testing::random_word(rng, 2, 5);
      const Word dst = testing::random_word(rng, 2, 5);
      sim.inject(static_cast<double>(i) * 0.25,
                 data_message(src, dst, WildcardMode::Wildcards));
    }
    sim.run();
    EXPECT_EQ(sim.stats().delivered, 64u)
        << "policy " << static_cast<int>(policy);
    EXPECT_EQ(sim.stats().misdelivered, 0u);
  }
}

TEST(Simulator, DeterministicAcrossRunsWithSameSeed) {
  auto run_once = [] {
    SimConfig config;
    config.radix = 2;
    config.k = 5;
    config.wildcard_policy = WildcardPolicy::Random;
    config.seed = 424242;
    Simulator sim(config);
    Rng rng(31337);
    const auto schedule = uniform_traffic(2, 5, 0.1, 40.0, rng);
    for (const Injection& inj : schedule) {
      const Word src = Word::from_rank(2, 5, inj.source);
      const Word dst = Word::from_rank(2, 5, inj.destination);
      sim.inject(inj.time, data_message(src, dst, WildcardMode::Wildcards));
    }
    sim.run();
    return sim.stats();
  };
  const SimStats a = run_once();
  const SimStats b = run_once();
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_DOUBLE_EQ(a.total_latency, b.total_latency);
  EXPECT_EQ(a.max_queue, b.max_queue);
  EXPECT_EQ(a.latencies, b.latencies);
}

TEST(Simulator, RunUntilStopsTheClock) {
  SimConfig config;
  config.radix = 2;
  config.k = 4;
  Simulator sim(config);
  const Word src = Word::from_rank(2, 4, 0);
  const Word dst = Word::from_rank(2, 4, 15);  // distance 4
  sim.inject(0.0, data_message(src, dst));
  sim.run(2.0);
  EXPECT_EQ(sim.stats().delivered, 0u);  // still in flight
  sim.run();
  EXPECT_EQ(sim.stats().delivered, 1u);
}

TEST(Simulator, LatencyPercentilesOrdered) {
  SimConfig config;
  config.radix = 2;
  config.k = 5;
  Simulator sim(config);
  Rng rng(99);
  for (int i = 0; i < 200; ++i) {
    const Word src = testing::random_word(rng, 2, 5);
    const Word dst = testing::random_word(rng, 2, 5);
    sim.inject(0.1 * i, data_message(src, dst));
  }
  sim.run();
  const SimStats& s = sim.stats();
  EXPECT_LE(s.latency_percentile(50), s.latency_percentile(95));
  EXPECT_LE(s.latency_percentile(95), s.latency_percentile(100));
  EXPECT_DOUBLE_EQ(s.latency_percentile(100), s.max_latency);
  EXPECT_THROW(s.latency_percentile(101), ContractViolation);
}

TEST(Simulator, RejectsBadConfigAndUsage) {
  SimConfig config;
  config.link_delay = 0.0;
  EXPECT_THROW(Simulator{config}, ContractViolation);
  config.link_delay = 1.0;
  config.radix = 2;
  config.k = 30;  // 2^30 > 2^26 cap
  EXPECT_THROW(Simulator{config}, ContractViolation);
  config.k = 3;
  Simulator sim(config);
  const Word wrong(3, {0, 1, 2});
  EXPECT_THROW(sim.inject(0.0, data_message(wrong, wrong)), ContractViolation);
  EXPECT_THROW(sim.fail_node(8), ContractViolation);
}

}  // namespace
}  // namespace dbn::net

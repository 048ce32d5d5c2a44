// Randomized scenario sweep over the simulator: for arbitrary
// configurations (orientation, policies, forwarding mode, queue limits,
// link delays, faults) the accounting and causality invariants must hold.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/route_engine.hpp"
#include "core/routers.hpp"
#include "net/adaptive.hpp"
#include "net/fault.hpp"
#include "net/simulator.hpp"
#include "net/traffic.hpp"
#include "oracle/routers.hpp"
#include "testing_util.hpp"

namespace dbn::net {
namespace {

struct Scenario {
  SimConfig config;
  std::size_t messages = 0;
  std::size_t faults = 0;
};

Scenario random_scenario(Rng& rng) {
  Scenario s;
  s.config.radix = 2 + static_cast<std::uint32_t>(rng.below(3));
  s.config.k = 2 + rng.below(4);
  s.config.orientation =
      rng.chance(0.3) ? Orientation::Directed : Orientation::Undirected;
  s.config.link_delay = 0.25 + rng.uniform01() * 3.0;
  if (rng.chance(0.4)) {
    s.config.link_queue_capacity = 1 + rng.below(4);
  }
  s.config.wildcard_policy = static_cast<WildcardPolicy>(rng.below(3));
  // Hop-by-hop + faults can livelock conceptually; greedy is stateless and
  // always reaches the destination in a fault-free run, so only pair
  // hop-by-hop with zero faults here.
  const bool hop_by_hop = rng.chance(0.3);
  s.config.forwarding =
      hop_by_hop ? ForwardingMode::HopByHop : ForwardingMode::SourceRouted;
  s.config.record_traces = rng.chance(0.5);
  s.config.seed = rng();
  s.messages = 1 + rng.below(120);
  s.faults = hop_by_hop ? 0 : rng.below(3);
  return s;
}

TEST(SimulatorProperties, AccountingAlwaysBalances) {
  Rng rng(8088);
  for (int trial = 0; trial < 60; ++trial) {
    const Scenario s = random_scenario(rng);
    Simulator sim(s.config);
    const DeBruijnGraph& g = sim.graph();
    std::vector<bool> failed(g.vertex_count(), false);
    if (s.faults > 0 && s.faults < g.vertex_count()) {
      failed = random_fault_set(g, s.faults, rng);
      for (std::uint64_t v = 0; v < g.vertex_count(); ++v) {
        if (failed[v]) {
          sim.fail_node(v);
        }
      }
    }
    for (std::size_t m = 0; m < s.messages; ++m) {
      const Word src = testing::random_word(rng, s.config.radix, s.config.k);
      const Word dst = testing::random_word(rng, s.config.radix, s.config.k);
      RoutingPath path;
      if (s.config.forwarding == ForwardingMode::SourceRouted) {
        path = s.config.orientation == Orientation::Directed
                   ? route_unidirectional(src, dst)
                   : route_bidirectional_suffix_tree(
                         src, dst, WildcardMode::Wildcards);
      }
      sim.inject(rng.uniform01() * 50.0,
                 Message(ControlCode::Data, src, dst, std::move(path)));
    }
    sim.run();
    const SimStats& st = sim.stats();
    // Conservation: every injected message reaches exactly one outcome.
    EXPECT_EQ(st.injected, st.delivered + st.dropped_fault + st.dropped_link +
                               st.dropped_overflow + st.misdelivered)
        << "trial " << trial;
    EXPECT_EQ(st.injected, s.messages);
    EXPECT_EQ(st.misdelivered, 0u) << "all paths are correct by construction";
    EXPECT_EQ(st.latencies.size(), st.delivered);
    // Latency sanity: hops * delay <= latency (queueing only adds).
    if (st.delivered > 0) {
      EXPECT_GE(st.total_latency + 1e-9,
                static_cast<double>(st.total_hops) * s.config.link_delay -
                    1e-6 * static_cast<double>(st.delivered))
          << "trial " << trial;
    }
    // Link transmissions equal total hops of all messages (delivered or
    // not, every transmission was counted when it started)...
    std::uint64_t transmitted = 0;
    for (const std::uint64_t t : sim.link_transmissions()) {
      transmitted += t;
    }
    EXPECT_GE(transmitted, st.total_hops) << "trial " << trial;
    // Traces: if recorded, one per message, timestamps non-decreasing.
    if (s.config.record_traces) {
      ASSERT_EQ(sim.traces().size(), s.messages);
      for (const auto& trace : sim.traces()) {
        for (std::size_t i = 1; i < trace.visits.size(); ++i) {
          EXPECT_LE(trace.visits[i - 1].first, trace.visits[i].first);
        }
      }
    }
  }
}

TEST(SimulatorProperties, AdaptiveNeverBeatsTheBfsOracle) {
  // Local-knowledge routing cross-checked against global knowledge: the
  // adaptive walk (deflections included) must never deliver a pair the
  // fault-aware BFS proves disconnected, and a delivered walk can never
  // undercut the surviving shortest path.
  Rng rng(9099);
  const std::vector<std::pair<std::uint32_t, std::size_t>> grid = {
      {2, 4}, {2, 6}, {3, 3}};
  for (const auto& [d, k] : grid) {
    const DeBruijnGraph g(d, k, Orientation::Undirected);
    for (int trial = 0; trial < 12; ++trial) {
      const std::size_t faults =
          rng.below(std::min<std::uint64_t>(g.vertex_count() / 4, 9));
      const auto failed = random_fault_set(g, faults, rng);
      const FaultAwareRouter oracle(g, failed);
      for (int probe = 0; probe < 20; ++probe) {
        const std::uint64_t xr = rng.below(g.vertex_count());
        const std::uint64_t yr = rng.below(g.vertex_count());
        if (failed[xr] || failed[yr]) {
          continue;
        }
        AdaptiveConfig config;
        config.jitter = rng.chance(0.5) ? 0.2 : 0.0;
        const AdaptiveResult r =
            adaptive_route(g, failed, g.word(xr), g.word(yr), rng, config);
        const auto path = oracle.route(g.word(xr), g.word(yr));
        if (r.delivered) {
          ASSERT_TRUE(path.has_value())
              << "d=" << d << " k=" << k << " " << xr << "->" << yr
              << ": adaptive delivered across a proven partition";
          EXPECT_GE(r.hops, static_cast<int>(path->length()));
        }
      }
    }
  }
}

TEST(SimulatorProperties, LoneAdaptiveMessageWalksLikeAdaptiveRoute) {
  // The simulator's adaptive mode runs adaptive_route's rule in-network. A
  // lone message meets no queue and is the only consumer of the
  // simulator's RNG, so seeded like adaptive_route it must take the same
  // walk under either scoring: same outcome, hop count and deflections.
  Rng rng(7077);
  const std::vector<std::pair<std::uint32_t, std::size_t>> grid = {
      {2, 4}, {2, 6}, {3, 3}};
  for (const auto& [d, k] : grid) {
    const DeBruijnGraph g(d, k, Orientation::Undirected);
    for (int trial = 0; trial < 60; ++trial) {
      const std::size_t faults =
          rng.below(std::min<std::uint64_t>(g.vertex_count() / 4, 9));
      const auto failed = random_fault_set(g, faults, rng);
      const std::uint64_t xr = rng.below(g.vertex_count());
      const std::uint64_t yr = rng.below(g.vertex_count());
      if (failed[xr] || failed[yr]) {
        continue;
      }
      AdaptiveConfig config;
      config.jitter = rng.chance(0.5) ? 0.3 : 0.0;
      const std::uint64_t seed = rng();
      Rng walk_rng(seed);
      const AdaptiveResult walk =
          adaptive_route(g, failed, g.word(xr), g.word(yr), walk_rng, config);
      for (const AdaptiveScoring scoring :
           {AdaptiveScoring::Rescore, AdaptiveScoring::LayerTable}) {
        SimConfig sim_config;
        sim_config.radix = d;
        sim_config.k = k;
        sim_config.forwarding = ForwardingMode::Adaptive;
        sim_config.adaptive_scoring = scoring;
        sim_config.adaptive_jitter = config.jitter;
        sim_config.seed = seed;
        Simulator sim(sim_config);
        for (std::uint64_t v = 0; v < g.vertex_count(); ++v) {
          if (failed[v]) {
            sim.fail_node(v);
          }
        }
        sim.inject(0.0, Message(ControlCode::Data, g.word(xr), g.word(yr),
                                RoutingPath{}));
        sim.run();
        std::uint64_t hops = 0;
        for (const std::uint64_t t : sim.link_transmissions()) {
          hops += t;
        }
        const SimStats& st = sim.stats();
        ASSERT_EQ(st.delivered == 1, walk.delivered)
            << "d=" << d << " k=" << k << " " << xr << "->" << yr
            << " jitter=" << config.jitter;
        ASSERT_EQ(hops, static_cast<std::uint64_t>(walk.hops));
        ASSERT_EQ(st.adaptive_deflections,
                  static_cast<std::uint64_t>(walk.deflections));
      }
    }
  }
}

TEST(SimulatorProperties, DeliveredLatenciesScaleWithLinkDelay) {
  // Doubling link_delay exactly doubles every uncongested latency.
  for (const double delay : {0.5, 1.0, 2.0}) {
    SimConfig config;
    config.radix = 2;
    config.k = 5;
    config.link_delay = delay;
    Simulator sim(config);
    const Word src = Word::from_rank(2, 5, 1);
    const Word dst = Word::from_rank(2, 5, 30);
    const RoutingPath path = route_bidirectional_mp(src, dst);
    sim.inject(0.0, Message(ControlCode::Data, src, dst, path));
    sim.run();
    EXPECT_DOUBLE_EQ(sim.stats().mean_latency(),
                     static_cast<double>(path.length()) * delay);
  }
}

TEST(SimulatorProperties, EngineSourceRoutesMatchTheSuffixTreeOracle) {
  // `dbn simulate` source-routes through the engine. On unbounded queues
  // nothing drops, so the oracle's routes and the engine's, both shortest,
  // deliver every message over the same total hop count whatever witness
  // each picked.
  Rng rng(606);
  const std::vector<Injection> schedule =
      uniform_traffic(2, 6, 0.2, 60.0, rng);
  ASSERT_FALSE(schedule.empty());
  const auto run = [&schedule](bool engine_routes) {
    SimConfig config;
    config.radix = 2;
    config.k = 6;
    config.wildcard_policy = WildcardPolicy::Random;
    Simulator sim(config);
    BidirectionalRouteEngine engine(config.k);
    for (const Injection& inj : schedule) {
      const Word src = Word::from_rank(2, 6, inj.source);
      const Word dst = Word::from_rank(2, 6, inj.destination);
      RoutingPath path;
      if (engine_routes) {
        engine.route_into(src, dst, WildcardMode::Wildcards, path);
      } else {
        path = route_bidirectional_suffix_tree(src, dst,
                                               WildcardMode::Wildcards);
      }
      sim.inject(inj.time,
                 Message(ControlCode::Data, src, dst, std::move(path)));
    }
    sim.run();
    return sim.stats();
  };
  const SimStats oracle = run(false);
  const SimStats engine = run(true);
  EXPECT_EQ(engine.injected, oracle.injected);
  EXPECT_EQ(engine.delivered, oracle.delivered);
  EXPECT_EQ(engine.total_hops, oracle.total_hops);
  EXPECT_EQ(oracle.delivered, schedule.size());
}

}  // namespace
}  // namespace dbn::net

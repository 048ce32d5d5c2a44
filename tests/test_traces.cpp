#include <gtest/gtest.h>

#include "net/simulator.hpp"
#include "oracle/routers.hpp"
#include "testing_util.hpp"

namespace dbn::net {
namespace {

TEST(Traces, RecordedVisitsMatchThePath) {
  SimConfig config;
  config.radix = 2;
  config.k = 5;
  config.record_traces = true;
  Simulator sim(config);
  const Word src = Word::from_rank(2, 5, 3);
  const Word dst = Word::from_rank(2, 5, 28);
  const RoutingPath path = route_bidirectional_mp(src, dst);
  sim.inject(0.0, Message(ControlCode::Data, src, dst, path));
  sim.run();
  ASSERT_EQ(sim.traces().size(), 1u);
  const auto& visits = sim.traces()[0].visits;
  ASSERT_EQ(visits.size(), path.length() + 1);
  EXPECT_EQ(visits.front().second, src.rank());
  EXPECT_EQ(visits.back().second, dst.rank());
  Word at = src;
  for (std::size_t i = 0; i < path.length(); ++i) {
    const Hop& h = path.hop(i);
    at = h.type == ShiftType::Left ? at.left_shift(h.digit)
                                   : at.right_shift(h.digit);
    EXPECT_EQ(visits[i + 1].second, at.rank());
    EXPECT_GE(visits[i + 1].first, visits[i].first);
  }
}

TEST(Traces, HopByHopTracesEndAtDestination) {
  SimConfig config;
  config.radix = 2;
  config.k = 5;
  config.forwarding = ForwardingMode::HopByHop;
  config.record_traces = true;
  Simulator sim(config);
  Rng rng(71);
  for (int i = 0; i < 20; ++i) {
    const Word src = testing::random_word(rng, 2, 5);
    const Word dst = testing::random_word(rng, 2, 5);
    sim.inject(static_cast<double>(i), Message(ControlCode::Data, src, dst,
                                               RoutingPath{}));
  }
  sim.run();
  ASSERT_EQ(sim.traces().size(), 20u);
  for (const auto& trace : sim.traces()) {
    ASSERT_FALSE(trace.visits.empty());
    // Visits are distinct sites (greedy never revisits: distance strictly
    // decreases).
    for (std::size_t a = 0; a < trace.visits.size(); ++a) {
      for (std::size_t b = a + 1; b < trace.visits.size(); ++b) {
        EXPECT_NE(trace.visits[a].second, trace.visits[b].second);
      }
    }
  }
}

TEST(Traces, DisabledByDefault) {
  SimConfig config;
  Simulator sim(config);
  const Word w = Word::from_rank(2, 4, 5);
  sim.inject(0.0, Message(ControlCode::Data, w, w, RoutingPath{}));
  sim.run();
  EXPECT_TRUE(sim.traces().empty());
}

}  // namespace
}  // namespace dbn::net

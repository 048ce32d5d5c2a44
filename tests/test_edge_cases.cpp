// Edge cases that cut across modules: extreme radixes, in-run hook
// injection, big payloads, and an extra-large-alphabet all-pairs sweep.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/distance.hpp"
#include "core/routers.hpp"
#include "debruijn/bfs.hpp"
#include "net/message.hpp"
#include "net/simulator.hpp"
#include "oracle/routers.hpp"
#include "testing_util.hpp"

namespace dbn {
namespace {

TEST(EdgeCases, LargeRadixAllPairsAgainstBfs) {
  // d = 11 exceeds every digit assumption a binary-focused implementation
  // might hide; full all-pairs validation (N = 1331).
  const std::uint32_t d = 11;
  const std::size_t k = 3;
  const DeBruijnGraph g(d, k, Orientation::Undirected);
  const DeBruijnGraph gd(d, k, Orientation::Directed);
  for (std::uint64_t xr = 0; xr < g.vertex_count(); xr += 7) {
    const Word x = g.word(xr);
    const auto und = bfs_distances(g, xr);
    const auto dir = bfs_distances(gd, xr);
    for (std::uint64_t yr = 0; yr < g.vertex_count(); ++yr) {
      const Word y = g.word(yr);
      EXPECT_EQ(undirected_distance(x, y), und[yr]);
      EXPECT_EQ(directed_distance(x, y), dir[yr]);
      EXPECT_EQ(route_bidirectional_suffix_tree(x, y).length(),
                static_cast<std::size_t>(und[yr]));
    }
  }
}

TEST(EdgeCases, HugeRadixWordsRoute) {
  // Radix 65536: digits far outside char range.
  const std::uint32_t d = 1u << 16;
  Rng rng(55);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t k = 1 + rng.below(8);
    const Word x = testing::random_word(rng, d, k);
    const Word y = testing::random_word(rng, d, k);
    const RoutingPath path = route_bidirectional_mp(x, y);
    EXPECT_EQ(path.apply(x), y);
    EXPECT_EQ(static_cast<int>(path.length()), undirected_distance(x, y));
    // Random words over a huge alphabet almost never share digits, so the
    // distance is almost always exactly k.
    EXPECT_LE(path.length(), k);
  }
}

TEST(EdgeCases, DeliveryHookMayInjectReentrantly) {
  // A ping-pong protocol implemented purely in the hook: on delivery of a
  // Data message, send an Ack back along the reverse route.
  using namespace dbn::net;
  SimConfig config;
  config.radix = 2;
  config.k = 5;
  Simulator sim(config);
  int acks_sent = 0;
  sim.set_delivery_hook([&](const Message& m, double time) {
    if (m.control == ControlCode::Data) {
      ++acks_sent;
      sim.inject(time, Message(ControlCode::Ack, m.destination, m.source,
                               route_bidirectional_mp(m.destination,
                                                      m.source)));
    }
  });
  Rng rng(66);
  const int kMessages = 30;
  for (int i = 0; i < kMessages; ++i) {
    const Word src = testing::random_word(rng, 2, 5);
    const Word dst = testing::random_word(rng, 2, 5);
    sim.inject(1.5 * i, Message(ControlCode::Data, src, dst,
                                route_bidirectional_mp(src, dst)));
  }
  sim.run();
  EXPECT_EQ(acks_sent, kMessages);
  // Every Data message and every Ack delivered.
  EXPECT_EQ(sim.stats().delivered, static_cast<std::uint64_t>(2 * kMessages));
  EXPECT_EQ(sim.stats().injected, static_cast<std::uint64_t>(2 * kMessages));
}

TEST(EdgeCases, LargePayloadRoundTrip) {
  using namespace dbn::net;
  const Word w(2, {0, 1, 1, 0});
  std::vector<std::uint8_t> payload(1 << 16);
  Rng rng(77);
  for (auto& b : payload) {
    b = static_cast<std::uint8_t>(rng.below(256));
  }
  const Message m(ControlCode::Data, w, w, RoutingPath{}, payload);
  const auto back = decode(encode(m));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->payload, payload);
}

TEST(EdgeCases, KEqualsOneEverywhere) {
  // DG(d,1) is the complete graph with loops; everything must still hold.
  for (const std::uint32_t d : {2u, 5u, 9u}) {
    const DeBruijnGraph g(d, 1, Orientation::Undirected);
    for (std::uint64_t a = 0; a < d; ++a) {
      for (std::uint64_t b = 0; b < d; ++b) {
        const Word x = g.word(a);
        const Word y = g.word(b);
        const int expected = a == b ? 0 : 1;
        EXPECT_EQ(undirected_distance(x, y), expected);
        EXPECT_EQ(directed_distance(x, y), expected);
        EXPECT_EQ(route_bidirectional_suffix_tree(x, y).length(),
                  static_cast<std::size_t>(expected));
        EXPECT_EQ(route_unidirectional(x, y).length(),
                  static_cast<std::size_t>(expected));
      }
    }
  }
}

}  // namespace
}  // namespace dbn

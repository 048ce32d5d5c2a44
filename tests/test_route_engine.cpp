#include <gtest/gtest.h>

#include "common/contract.hpp"
#include "common/rng.hpp"
#include "core/distance.hpp"
#include "core/route_engine.hpp"
#include "oracle/routers.hpp"
#include "testing_util.hpp"
#include "testkit/word_families.hpp"

namespace dbn {
namespace {

TEST(RouteEngine, MatchesAllocatingRouterOnRandomPairs) {
  BidirectionalRouteEngine engine(64);
  Rng rng(9001);
  RoutingPath path;
  for (int trial = 0; trial < 500; ++trial) {
    const std::uint32_t d = 2 + trial % 4;
    const std::size_t k = 1 + rng.below(32);
    const Word x = testing::random_word(rng, d, k);
    const Word y = testing::random_word(rng, d, k);
    const WildcardMode mode =
        trial % 2 == 0 ? WildcardMode::Concrete : WildcardMode::Wildcards;
    engine.route_into(x, y, mode, path);
    const RoutingPath reference = route_bidirectional_mp(x, y, mode);
    EXPECT_EQ(path.length(), reference.length())
        << "X=" << x.to_string() << " Y=" << y.to_string();
    EXPECT_EQ(path.apply(x), y) << "path=" << path.to_string();
    EXPECT_EQ(engine.distance(x, y), undirected_distance(x, y));
  }
}

TEST(RouteEngine, MatchesAllocatingRouterPastOneLane) {
  // Words past the diagonal pass, on the seeded kernel: packed words of
  // one, two and four bits per digit across several 64-bit words, and
  // digits read directly for d > 16. Every word and pair family, so runs
  // cross word boundaries at many offsets, not only the baseline.
  BidirectionalRouteEngine engine(513);
  DBN_SEEDED_RNG(rng, 0x1a4e);
  RoutingPath path;
  const auto check = [&](std::uint32_t d, std::size_t k) {
    int trial = 0;
    for (const testkit::WordFamily wf : testkit::kAllWordFamilies) {
      for (const testkit::PairFamily pf : testkit::kAllPairFamilies) {
        SCOPED_TRACE(::testing::Message()
                     << "d=" << d << " k=" << k << " "
                     << testkit::family_name(wf) << "/"
                     << testkit::family_name(pf));
        const auto [x, y] = testkit::sample_pair(rng, d, k, wf, pf);
        const WildcardMode mode =
            ++trial % 2 == 0 ? WildcardMode::Concrete : WildcardMode::Wildcards;
        engine.route_into(x, y, mode, path);
        const RoutingPath reference = route_bidirectional_mp(x, y, mode);
        EXPECT_EQ(path.length(), reference.length())
            << "X=" << x.to_string() << " Y=" << y.to_string();
        EXPECT_EQ(path.apply(x), y) << "path=" << path.to_string();
        EXPECT_EQ(engine.distance(x, y),
                  static_cast<int>(reference.length()));
        // The suffix automaton is a second, independent check.
        EXPECT_EQ(engine.distance(x, y), undirected_distance(x, y));
      }
    }
  };
  for (const std::uint32_t d : {2u, 4u}) {
    for (const std::size_t k : {65u, 100u, 128u, 200u, 256u}) {
      check(d, k);
    }
  }
  check(2, 257);
  check(2, 512);
  for (const std::size_t k : {33u, 64u, 128u}) {
    check(16, k);
  }
  check(2, 513);
  check(16, 129);
  check(20, 6);
  check(20, 64);
  check(255, 40);
}

TEST(RouteEngine, ReusableAcrossDifferentLengthsAndRadixes) {
  BidirectionalRouteEngine engine(16);
  RoutingPath path;
  const Word a(2, {0, 1, 1});
  const Word b(2, {1, 1, 0});
  engine.route_into(a, b, WildcardMode::Concrete, path);
  EXPECT_EQ(path.apply(a), b);
  const Word c(5, {4, 0, 2, 3, 1, 0, 4});
  const Word e(5, {0, 0, 1, 2, 3, 4, 4});
  engine.route_into(c, e, WildcardMode::Concrete, path);
  EXPECT_EQ(path.apply(c), e);
}

TEST(RouteEngine, EnforcesMaxK) {
  BidirectionalRouteEngine engine(4);
  const Word x = Word::zero(2, 5);
  RoutingPath path;
  EXPECT_THROW(engine.route_into(x, x, WildcardMode::Concrete, path),
               ContractViolation);
  EXPECT_THROW(engine.distance(x, x), ContractViolation);
  EXPECT_THROW(BidirectionalRouteEngine{0}, ContractViolation);
}

TEST(RouteEngine, AllPairsSweepAgainstBfsValidatedRouter) {
  BidirectionalRouteEngine engine(8);
  RoutingPath path;
  for (const std::uint32_t d : {2u, 3u}) {
    const std::size_t k = d == 2 ? 5u : 3u;
    const std::uint64_t n = Word::vertex_count(d, k);
    for (std::uint64_t xr = 0; xr < n; ++xr) {
      for (std::uint64_t yr = 0; yr < n; ++yr) {
        const Word x = Word::from_rank(d, k, xr);
        const Word y = Word::from_rank(d, k, yr);
        engine.route_into(x, y, WildcardMode::Concrete, path);
        EXPECT_EQ(static_cast<int>(path.length()), undirected_distance(x, y));
        EXPECT_EQ(path.apply(x), y);
      }
    }
  }
}

}  // namespace
}  // namespace dbn

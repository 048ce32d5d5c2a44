// End-to-end integration: the whole stack exercised in one choreography,
// through the umbrella header (which also proves it compiles cleanly).
#include <gtest/gtest.h>

#include <algorithm>

#include "dbn.hpp"
#include "oracle/routers.hpp"
#include "testing_util.hpp"

namespace dbn {
namespace {

TEST(Integration, FullStackChoreography) {
  using namespace dbn::net;
  constexpr std::uint32_t d = 2;
  constexpr std::size_t k = 6;
  const DeBruijnGraph g(d, k, Orientation::Undirected);
  Rng rng(20260707);

  // 1. Route a batch three ways; all agree with the distance function.
  BidirectionalRouteEngine engine(k);
  RoutingPath engine_path;
  std::vector<Transfer> transfers;
  for (int i = 0; i < 50; ++i) {
    const Word x = testing::random_word(rng, d, k);
    const Word y = testing::random_word(rng, d, k);
    const RoutingPath a = route_bidirectional_mp(x, y);
    const RoutingPath b = route_bidirectional_suffix_tree(x, y);
    const RoutingPath c = route_bidirectional_suffix_automaton(x, y);
    engine.route_into(x, y, WildcardMode::Concrete, engine_path);
    const int dist = undirected_distance(x, y);
    ASSERT_EQ(static_cast<int>(a.length()), dist);
    ASSERT_EQ(b.length(), a.length());
    ASSERT_EQ(c.length(), a.length());
    ASSERT_EQ(engine_path.length(), a.length());
    ASSERT_EQ(a.apply(x), y);
    transfers.push_back({x.rank(), y.rank()});
  }

  // 2. Encode/decode every message that will ride the network.
  for (const Transfer& t : transfers) {
    const Word x = g.word(t.source);
    const Word y = g.word(t.destination);
    const Message m(ControlCode::Data, x, y,
                    route_bidirectional_suffix_tree(x, y));
    const auto decoded = decode(encode(m));
    ASSERT_TRUE(decoded.has_value());
    ASSERT_EQ(*decoded, m);
  }

  // 3. Break a site; the reliable protocol still completes every transfer
  //    whose endpoints survive.
  const auto failed = random_fault_set(g, 1, rng);
  std::vector<Transfer> live;
  for (const Transfer& t : transfers) {
    if (!failed[t.source] && !failed[t.destination]) {
      live.push_back(t);
    }
  }
  SimConfig config;
  config.radix = d;
  config.k = k;
  config.record_traces = true;
  Simulator sim(config);
  for (std::uint64_t v = 0; v < g.vertex_count(); ++v) {
    if (failed[v]) {
      sim.fail_node(v);
    }
  }
  const FaultAwareRouter fault_router(g, failed);
  const ReliableReport report = run_reliable(
      sim, live,
      [&](const Word& x, const Word& y, int attempt) {
        return attempt == 0 ? route_bidirectional_mp(x, y)
                            : fault_router.route(x, y).value_or(RoutingPath{});
      });
  EXPECT_EQ(report.completed, live.size());
  EXPECT_EQ(report.abandoned, 0u);

  // 4. Broadcast from the first live site; all-port completion equals the
  //    root's eccentricity.
  std::uint64_t root = 0;
  while (failed[root]) {
    ++root;
  }
  const BroadcastTree tree = build_broadcast_tree(g, root);
  EXPECT_EQ(schedule_broadcast(tree, PortModel::AllPort).completion,
            eccentricity(g, root));
  EXPECT_EQ(schedule_reduce(tree, PortModel::AllPort).completion,
            eccentricity(g, root));

  // 5. Sort one value per site on the embedded array.
  std::vector<std::uint64_t> values(g.vertex_count());
  for (auto& v : values) {
    v = rng.below(512);
  }
  const SortEmulationResult sorted = odd_even_transposition_sort(d, k, values);
  EXPECT_TRUE(std::is_sorted(sorted.sorted.begin(), sorted.sorted.end()));

  // 6. The Kautz sibling routes with the same machinery.
  const KautzGraph kautz(d, k);
  const Word kx = kautz.word(rng.below(kautz.vertex_count()));
  const Word ky = kautz.word(rng.below(kautz.vertex_count()));
  const RoutingPath kautz_path = kautz_route(kautz, kx, ky);
  EXPECT_EQ(static_cast<int>(kautz_path.length()),
            kautz_directed_distance(kautz, kx, ky));
}

}  // namespace
}  // namespace dbn

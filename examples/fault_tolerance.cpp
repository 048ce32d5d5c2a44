// Fault tolerance demo: DN(3,4) with failed sites.
//
// Shows the Section 1 claim in action: with f <= d-1 failures the network
// keeps routing (here with the fault-aware BFS router), the oblivious
// shortest paths that cross a dead site are dropped, and the adversarial
// 2d-2 cut isolates a site.
//
// Run: ./build/examples/fault_tolerance
#include <iostream>

#include "common/rng.hpp"
#include "core/route_engine.hpp"
#include "net/fault.hpp"
#include "net/simulator.hpp"

int main() {
  using namespace dbn;
  using namespace dbn::net;

  constexpr std::uint32_t d = 3;
  constexpr std::size_t k = 4;
  const DeBruijnGraph g(d, k, Orientation::Undirected);
  Rng rng(99);

  // --- Fail d-1 = 2 random sites. -----------------------------------------
  const auto failed = random_fault_set(g, d - 1, rng);
  std::cout << "DN(3,4), " << g.vertex_count() << " sites; failed:";
  for (std::uint64_t v = 0; v < g.vertex_count(); ++v) {
    if (failed[v]) {
      std::cout << " " << g.word(v).to_string();
    }
  }
  std::cout << "\nsurvivors connected: "
            << (survivors_connected(g, failed) ? "yes" : "no")
            << "   (paper: tolerates up to d-1 = " << d - 1 << ")\n\n";

  // --- Route around the failures. -----------------------------------------
  const FaultAwareRouter router(g, failed);
  SimConfig config;
  config.radix = d;
  config.k = k;
  Simulator sim(config);
  for (std::uint64_t v = 0; v < g.vertex_count(); ++v) {
    if (failed[v]) {
      sim.fail_node(v);
    }
  }

  BidirectionalRouteEngine engine(k);
  std::uint64_t sent = 0, detoured = 0;
  for (int probe = 0; probe < 300; ++probe) {
    const std::uint64_t xr = rng.below(g.vertex_count());
    const std::uint64_t yr = rng.below(g.vertex_count());
    if (failed[xr] || failed[yr]) {
      continue;
    }
    const Word x = g.word(xr);
    const Word y = g.word(yr);
    const auto path = router.route(x, y);
    if (!path.has_value()) {
      std::cout << "UNROUTABLE: " << x.to_string() << " -> " << y.to_string()
                << "\n";
      continue;
    }
    detoured += path->length() >
                static_cast<std::size_t>(engine.distance(x, y));
    sim.inject(0.0, Message(ControlCode::Data, x, y, *path));
    ++sent;
  }
  sim.run();
  std::cout << "sent " << sent << " messages around the failures: "
            << sim.stats().delivered << " delivered, "
            << sim.stats().dropped_fault << " dropped (expected 0)\n";
  std::cout << detoured
            << " of them needed a detour longer than the fault-free optimum\n\n";

  // --- The tight cut: isolate a constant word. -----------------------------
  const Word corner = Word::zero(d, k);
  std::vector<bool> cut(g.vertex_count(), false);
  for (const std::uint64_t v : g.neighbors(corner.rank())) {
    cut[v] = true;
  }
  std::cout << "failing all " << g.neighbors(corner.rank()).size()
            << " neighbors of " << corner.to_string() << " (degree 2d-2 = "
            << 2 * d - 2 << "): survivors connected: "
            << (survivors_connected(g, cut) ? "yes" : "no")
            << "   (the bound is tight)\n";
  return 0;
}

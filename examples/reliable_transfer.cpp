// Reliable transfers over a faulty, congested DN(2,6): the paper's raw
// forwarding drops on dead sites and full queues; the retransmission
// protocol (net/reliable.hpp) recovers, falling back to fault-aware routes
// after the first attempt.
//
// Run: ./build/examples/reliable_transfer
#include <iostream>

#include "common/rng.hpp"
#include "core/route_engine.hpp"
#include "net/fault.hpp"
#include "net/reliable.hpp"
#include "net/simulator.hpp"

int main() {
  using namespace dbn;
  using namespace dbn::net;

  constexpr std::uint32_t d = 2;
  constexpr std::size_t k = 6;
  const DeBruijnGraph g(d, k, Orientation::Undirected);

  Rng rng(17);
  const auto failed = random_fault_set(g, 2, rng);
  SimConfig config;
  config.radix = d;
  config.k = k;
  config.link_queue_capacity = 2;  // tight queues: overflow drops happen
  config.wildcard_policy = WildcardPolicy::Random;
  Simulator sim(config);
  std::cout << "failed sites:";
  for (std::uint64_t v = 0; v < g.vertex_count(); ++v) {
    if (failed[v]) {
      sim.fail_node(v);
      std::cout << " " << g.word(v).to_string();
    }
  }
  std::cout << "\nlink queues capped at 2 messages\n\n";

  const FaultAwareRouter fault_router(g, failed);
  BidirectionalRouteEngine engine(k);
  const AttemptRouter router = [&](const Word& x, const Word& y, int attempt) {
    if (attempt == 0) {
      // First try: the paper's oblivious shortest path with wildcards.
      RoutingPath path;
      engine.route_into(x, y, WildcardMode::Wildcards, path);
      return path;
    }
    return fault_router.route(x, y).value_or(RoutingPath{});
  };

  // A synchronized burst of 120 transfers (stressful for the queues).
  std::vector<Transfer> transfers;
  while (transfers.size() < 120) {
    const std::uint64_t s = rng.below(g.vertex_count());
    const std::uint64_t t = rng.below(g.vertex_count());
    if (!failed[s] && !failed[t] && s != t) {
      transfers.push_back({s, t});
    }
  }
  ReliableConfig rc;
  rc.timeout = 48.0;
  rc.max_attempts = 10;
  const ReliableReport report = run_reliable(sim, transfers, router, rc);

  std::cout << "transfers:       " << report.transfers << "\n"
            << "completed:       " << report.completed << "\n"
            << "retransmissions: " << report.retransmissions << "\n"
            << "abandoned:       " << report.abandoned << "\n"
            << "completion time: " << report.completion_time << "\n\n";
  std::cout << "raw network drops underneath: "
            << sim.stats().dropped_fault << " at dead sites, "
            << sim.stats().dropped_overflow << " queue overflows\n";
  return 0;
}

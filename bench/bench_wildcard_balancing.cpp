// Experiment S1 — Section 3.1's wildcard remark: "This would allow the site
// which transmits the message to be able to select freely one of the
// neighbors of the specified type, so that the traffic could be more or
// less balanced."
//
// The paper does not evaluate this; we do. DN(2,8) (256 sites), hotspot and
// uniform workloads, paths from Algorithm 4 with wildcard digits, and three
// resolution policies at the forwarding sites:
//   Zero       — all wildcards resolve to digit 0 (no balancing; every
//                arbitrary hop funnels through the 0-shift links),
//   Random     — uniform random digit,
//   LeastQueue — pick the emptiest outgoing link.
// Expected shape: Random and LeastQueue cut the maximum link backlog and
// tail latency versus Zero, most visibly under load; LeastQueue <= Random.
#include <iostream>
#include <string>

#include "common/rng.hpp"
#include "common/table.hpp"
#include "net/load_stats.hpp"
#include "net/simulator.hpp"
#include "net/traffic.hpp"
#include "oracle/routers.hpp"

namespace {

using namespace dbn;
using namespace dbn::net;

constexpr std::uint32_t kRadix = 2;
constexpr std::size_t kK = 8;

const char* policy_name(WildcardPolicy policy) {
  switch (policy) {
    case WildcardPolicy::Zero:
      return "Zero";
    case WildcardPolicy::Random:
      return "Random";
    case WildcardPolicy::LeastQueue:
      return "LeastQueue";
  }
  return "?";
}

struct RunResult {
  SimStats stats;
  double link_gini = 0.0;
  double link_cv = 0.0;
};

RunResult run(const std::vector<Injection>& schedule, WildcardPolicy policy) {
  SimConfig config;
  config.radix = kRadix;
  config.k = kK;
  config.wildcard_policy = policy;
  config.seed = 7;
  Simulator sim(config);
  for (const Injection& inj : schedule) {
    const Word src = Word::from_rank(kRadix, kK, inj.source);
    const Word dst = Word::from_rank(kRadix, kK, inj.destination);
    sim.inject(inj.time,
               Message(ControlCode::Data, src, dst,
                       route_bidirectional_suffix_tree(
                           src, dst, WildcardMode::Wildcards)));
  }
  sim.run();
  const auto loads = sim.link_transmissions();
  return RunResult{sim.stats(), gini_coefficient(loads),
                   coefficient_of_variation(loads)};
}

void run_workload(const std::string& name,
                  const std::vector<Injection>& schedule) {
  Table table({"policy", "delivered", "mean lat", "p99 lat", "max queue",
               "link Gini", "link CV"});
  for (WildcardPolicy policy : {WildcardPolicy::Zero, WildcardPolicy::Random,
                                WildcardPolicy::LeastQueue}) {
    const RunResult r = run(schedule, policy);
    table.add_row({policy_name(policy), std::to_string(r.stats.delivered),
                   Table::num(r.stats.mean_latency(), 2),
                   Table::num(r.stats.latency_percentile(99), 2),
                   std::to_string(r.stats.max_queue),
                   Table::num(r.link_gini, 3), Table::num(r.link_cv, 3)});
  }
  std::cout << "\n";
  table.print(std::cout, name);
}

}  // namespace

int main() {
  std::cout << "== Experiment S1: wildcard (\"*\") traffic balancing in "
               "DN(2,8) ==\n";
  Rng rng(101);
  run_workload(
      "Uniform traffic, moderate load (rate 0.08/site over 300 time units)",
      uniform_traffic(kRadix, kK, 0.08, 300.0, rng));
  run_workload(
      "Uniform traffic, heavy load (rate 0.25/site over 300 time units)",
      uniform_traffic(kRadix, kK, 0.25, 300.0, rng));
  run_workload(
      "Hotspot traffic (30% of messages to one site, rate 0.10/site)",
      hotspot_traffic(kRadix, kK, 0.10, 300.0, 0.3, /*hotspot=*/170, rng));
  std::cout << "\nExpected shape: Zero funnels every arbitrary hop through "
               "the 0-digit links;\nRandom/LeastQueue spread them, reducing "
               "max queue and tail latency. The\nhotspot's final links are "
               "saturated for every policy (wildcards cannot help\nthe last "
               "hops), so the gap shows mid-path.\n";
  return 0;
}

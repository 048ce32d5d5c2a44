// Experiment D6 — recovering from faults and drops with increasing
// knowledge, the S2 companion:
//   oblivious     — paper's shortest path, no fault knowledge: drops;
//   adaptive      — greedy per-site forwarding, *local* fault knowledge
//                   (net/adaptive.hpp): usually delivers, no guarantee;
//   fault-aware   — global fault map (net/fault.hpp): always delivers while
//                   the survivors stay connected;
//   reliable      — oblivious first try + fault-aware retransmissions
//                   (net/reliable.hpp): always delivers, costs round trips.
#include <iostream>
#include <string>

#include "common/rng.hpp"
#include "common/table.hpp"
#include "net/adaptive.hpp"
#include "net/fault.hpp"
#include "net/reliable.hpp"
#include "net/simulator.hpp"
#include "oracle/routers.hpp"

namespace {

using namespace dbn;
using namespace dbn::net;

constexpr std::uint32_t kRadix = 2;
constexpr std::size_t kK = 7;  // 128 sites

}  // namespace

int main() {
  std::cout << "== Experiment D6: fault recovery by knowledge level, DN(2,7) "
               "==\n\n";
  const DeBruijnGraph g(kRadix, kK, Orientation::Undirected);
  Rng rng(999);

  Table table({"failures f", "oblivious %", "adaptive %", "fault-aware %",
               "reliable %", "reliable retx"});
  for (const std::size_t f : {1u, 2u, 4u, 8u, 16u}) {
    int oblivious_ok = 0, adaptive_ok = 0, aware_ok = 0, total = 0;
    std::uint64_t reliable_done = 0, reliable_total = 0, retx = 0;
    for (int trial = 0; trial < 20; ++trial) {
      const auto failed = random_fault_set(g, f, rng);
      const FaultAwareRouter aware(g, failed);
      // Sample live pairs.
      std::vector<Transfer> transfers;
      while (transfers.size() < 25) {
        const std::uint64_t s = rng.below(g.vertex_count());
        const std::uint64_t t = rng.below(g.vertex_count());
        if (!failed[s] && !failed[t] && s != t) {
          transfers.push_back({s, t});
        }
      }
      for (const Transfer& tr : transfers) {
        const Word x = g.word(tr.source);
        const Word y = g.word(tr.destination);
        ++total;
        // Oblivious: does the shortest path dodge the faults by luck?
        const RoutingPath path = route_bidirectional_mp(x, y);
        Word at = x;
        bool survived = true;
        for (const Hop& h : path.hops()) {
          at = h.type == ShiftType::Left ? at.left_shift(h.digit)
                                         : at.right_shift(h.digit);
          if (failed[at.rank()]) {
            survived = false;
            break;
          }
        }
        oblivious_ok += survived;
        AdaptiveConfig config;
        config.jitter = 0.1;
        adaptive_ok += adaptive_route(g, failed, x, y, rng, config).delivered;
        aware_ok += aware.route(x, y).has_value();
      }
      // Reliable protocol over the simulator.
      SimConfig sc;
      sc.radix = kRadix;
      sc.k = kK;
      Simulator sim(sc);
      for (std::uint64_t v = 0; v < g.vertex_count(); ++v) {
        if (failed[v]) {
          sim.fail_node(v);
        }
      }
      const AttemptRouter router = [&](const Word& x, const Word& y,
                                       int attempt) {
        if (attempt == 0) {
          return route_bidirectional_mp(x, y);
        }
        return aware.route(x, y).value_or(RoutingPath{});
      };
      ReliableConfig rc;
      rc.timeout = 40.0;
      const ReliableReport report = run_reliable(sim, transfers, router, rc);
      reliable_done += report.completed;
      reliable_total += report.transfers;
      retx += report.retransmissions;
    }
    const auto pct = [&](int ok) {
      return Table::num(100.0 * ok / total, 1);
    };
    table.add_row({std::to_string(f), pct(oblivious_ok), pct(adaptive_ok),
                   pct(aware_ok),
                   Table::num(100.0 * static_cast<double>(reliable_done) /
                                  static_cast<double>(reliable_total),
                              1),
                   std::to_string(retx)});
  }
  table.print(std::cout,
              "Delivery rate (%) of 500 random live pairs per row, random "
              "fault sets");
  std::cout
      << "\nShape: oblivious delivery decays with f (paths blunder into dead "
         "sites);\nadaptive local routing recovers nearly everything; the "
         "global fault-aware\nrouter and the retransmitting protocol deliver "
         "100% while survivors stay\nconnected. Retransmission count grows "
         "with f — the price of obliviousness\non the first attempt.\n";
  return 0;
}

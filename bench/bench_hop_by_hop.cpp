// Experiment D3 — source routing (the paper's scheme) vs hop-by-hop
// forwarding (each site computes the greedy next hop from the distance
// function; core/hop_by_hop.hpp).
//
// Both are exact — identical hop counts — so the trade is header size vs
// per-hop computation: source routing carries 2*D(X,Y) digits of header
// and forwards in O(1) per site; hop-by-hop carries none and pays O(d k)
// per site. This bench measures delivery, hops, latency and the wall-clock
// cost of each scheme's compute under a permutation workload.
#include <chrono>
#include <iostream>
#include <string>

#include "common/rng.hpp"
#include "common/table.hpp"
#include "net/simulator.hpp"
#include "net/traffic.hpp"
#include "oracle/routers.hpp"

namespace {

using namespace dbn;
using namespace dbn::net;

constexpr std::uint32_t kRadix = 2;
constexpr std::size_t kK = 8;

}  // namespace

int main() {
  std::cout << "== Experiment D3: source routing vs hop-by-hop forwarding "
               "(DN(2,8)) ==\n\n";
  Rng rng(55);
  const auto schedule = permutation_traffic(kRadix, kK, rng);

  Table table({"scheme", "delivered", "mean hops", "mean lat",
               "header digits/msg", "compute ms (total)"});
  for (const ForwardingMode mode :
       {ForwardingMode::SourceRouted, ForwardingMode::HopByHop}) {
    SimConfig config;
    config.radix = kRadix;
    config.k = kK;
    config.forwarding = mode;
    Simulator sim(config);
    double header_digits = 0.0;
    const auto start = std::chrono::steady_clock::now();
    for (const Injection& inj : schedule) {
      const Word src = Word::from_rank(kRadix, kK, inj.source);
      const Word dst = Word::from_rank(kRadix, kK, inj.destination);
      RoutingPath path;
      if (mode == ForwardingMode::SourceRouted) {
        path = route_bidirectional_suffix_tree(src, dst);
        header_digits += 2.0 * static_cast<double>(path.length());
      }
      sim.inject(inj.time, Message(ControlCode::Data, src, dst, path));
    }
    sim.run();
    const auto stop = std::chrono::steady_clock::now();
    const SimStats& s = sim.stats();
    table.add_row(
        {mode == ForwardingMode::SourceRouted ? "source-routed" : "hop-by-hop",
         std::to_string(s.delivered), Table::num(s.mean_hops(), 3),
         Table::num(s.mean_latency(), 2),
         Table::num(header_digits / static_cast<double>(schedule.size()), 2),
         Table::num(
             std::chrono::duration<double, std::milli>(stop - start).count(),
             2)});
  }
  table.print(std::cout,
              "Permutation workload, 256 messages: identical hops, different "
              "cost placement");
  std::cout << "\nShape: hop counts and delivery identical (both exact); "
               "source routing pays\nonce per message at the source and "
               "carries ~2D digits of header; hop-by-hop\ncarries nothing "
               "and pays O(d k) at every site (larger total compute).\n";
  return 0;
}

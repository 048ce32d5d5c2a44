// Experiment D8 — two independently coded evaluation substrates, one
// network: the discrete-event simulator vs the cycle-accurate synchronous
// model. With unit link delay they describe the same system, so their
// latency statistics must coincide (they do — also asserted in
// test_synchronous.cpp); the wall-clock comparison shows why the DES is
// the default (it skips idle time instead of ticking through it).
#include <chrono>
#include <iostream>
#include <string>

#include "common/rng.hpp"
#include "common/table.hpp"
#include "net/simulator.hpp"
#include "net/synchronous.hpp"
#include "net/traffic.hpp"
#include "oracle/routers.hpp"

int main() {
  using namespace dbn;
  using namespace dbn::net;
  std::cout << "== Experiment D8: DES vs synchronous substrate ==\n\n";
  Table table({"d", "k", "messages", "DES mean lat", "sync mean lat",
               "DES ms", "sync ms"});
  for (const auto& [d, k] : std::vector<std::pair<std::uint32_t, std::size_t>>{
           {2, 6}, {2, 8}, {2, 10}, {3, 5}}) {
    SimConfig config;
    config.radix = d;
    config.k = k;
    Simulator des(config);
    SynchronousNetwork sync(config);
    Rng rng(k);
    const auto schedule =
        uniform_traffic(d, k, 0.02, 400.0, rng);  // sparse: few tie-breaks
    const auto route = [&](const Injection& inj) {
      const Word src = Word::from_rank(d, k, inj.source);
      const Word dst = Word::from_rank(d, k, inj.destination);
      return Message(ControlCode::Data, src, dst,
                     route_bidirectional_mp(src, dst));
    };
    const auto t0 = std::chrono::steady_clock::now();
    for (const Injection& inj : schedule) {
      des.inject(inj.time, route(inj));
    }
    des.run();
    const auto t1 = std::chrono::steady_clock::now();
    for (const Injection& inj : schedule) {
      sync.inject(static_cast<int>(inj.time), route(inj));
    }
    sync.run();
    const auto t2 = std::chrono::steady_clock::now();
    table.add_row(
        {std::to_string(d), std::to_string(k), std::to_string(schedule.size()),
         Table::num(des.stats().mean_latency(), 3),
         Table::num(sync.stats().mean_latency(), 3),
         Table::num(std::chrono::duration<double, std::milli>(t1 - t0).count(),
                    1),
         Table::num(std::chrono::duration<double, std::milli>(t2 - t1).count(),
                    1)});
  }
  table.print(std::cout,
              "Same sparse workload through both substrates (latencies in "
              "link-delay units; injection rounding shifts sync by < 1)");
  std::cout << "\nShape: near-identical latency statistics (the substrates "
               "model the same\nnetwork); the synchronous model pays for "
               "every idle round, the DES only for\nevents.\n";
  return 0;
}

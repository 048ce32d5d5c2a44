// Message routing end to end: the paper's five-field message, its wire
// encoding, and a simulated DN(2,6) moving a batch of messages under the
// wildcard balancing policies of Section 3.1's remark.
//
// Run: ./build/examples/message_routing
#include <iomanip>
#include <iostream>

#include "common/rng.hpp"
#include "core/route_engine.hpp"
#include "net/message.hpp"
#include "net/simulator.hpp"
#include "net/traffic.hpp"

int main() {
  using namespace dbn;
  using namespace dbn::net;

  constexpr std::uint32_t d = 2;
  constexpr std::size_t k = 6;

  // Source routes come from one reusable Theorem 2 engine.
  BidirectionalRouteEngine engine(k);
  RoutingPath path;

  // --- One message, field by field (paper Section 3.1). -------------------
  const Word src(d, {0, 1, 1, 0, 1, 0});
  const Word dst(d, {1, 1, 0, 0, 1, 1});
  engine.route_into(src, dst, WildcardMode::Wildcards, path);
  const Message msg(ControlCode::Data, src, dst, path, {'h', 'i'});
  std::cout << "message: control=Data source=" << msg.source.to_string()
            << " destination=" << msg.destination.to_string()
            << "\n         routing path " << msg.path.to_string()
            << " (length " << msg.path.length() << ")\n";

  const auto wire = encode(msg);
  std::cout << "wire encoding: " << wire.size() << " bytes:";
  for (std::size_t i = 0; i < 16 && i < wire.size(); ++i) {
    std::cout << " " << std::hex << std::setw(2) << std::setfill('0')
              << static_cast<int>(wire[i]);
  }
  std::cout << std::dec << " ...\n";
  const auto decoded = decode(wire);
  std::cout << "decode(encode(msg)) == msg: "
            << (decoded.has_value() && *decoded == msg ? "yes" : "NO")
            << "\n\n";

  // --- A network moving many such messages. -------------------------------
  for (const WildcardPolicy policy :
       {WildcardPolicy::Zero, WildcardPolicy::Random,
        WildcardPolicy::LeastQueue}) {
    SimConfig config;
    config.radix = d;
    config.k = k;
    config.wildcard_policy = policy;
    Simulator sim(config);
    Rng rng(7);
    for (const Injection& inj : uniform_traffic(d, k, 0.2, 100.0, rng)) {
      const Word s = Word::from_rank(d, k, inj.source);
      const Word t = Word::from_rank(d, k, inj.destination);
      engine.route_into(s, t, WildcardMode::Wildcards, path);
      sim.inject(inj.time, Message(ControlCode::Data, s, t, path));
    }
    sim.run();
    const SimStats& stats = sim.stats();
    const char* name = policy == WildcardPolicy::Zero      ? "Zero      "
                       : policy == WildcardPolicy::Random ? "Random    "
                                                          : "LeastQueue";
    std::cout << "policy " << name << ": " << stats.delivered << "/"
              << stats.injected << " delivered, mean latency "
              << stats.mean_latency() << ", p99 "
              << stats.latency_percentile(99) << ", max queue "
              << stats.max_queue << "\n";
  }
  std::cout << "\nEvery site only ever looked at the first pair of the "
               "routing-path field —\nthe forwarding rule of Section 3.1.\n";
  return 0;
}

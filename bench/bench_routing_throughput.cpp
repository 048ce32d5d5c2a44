// Experiment S3 — end-to-end routing: the paper's algorithms generate the
// paths, the simulator moves the messages; every message must arrive, hop
// counts must equal the Section 2 distances, and the per-message path-
// generation cost separates the algorithms.
//
// Workloads: random permutation and digit-reversal (a structured pattern:
// X and reverse(X) share reversed blocks, which the r-side of Theorem 2
// exploits, so bi-directional routes are much shorter than uni-directional
// ones there).
// Routers: Algorithm 1 (left shifts only, directed distances), Algorithm 2
// (O(k^2)), Algorithm 4 (O(k)), and BFS ground truth.
#include <chrono>
#include <functional>
#include <iostream>
#include <string>

#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/bfs_router.hpp"
#include "core/routers.hpp"
#include "net/simulator.hpp"
#include "net/traffic.hpp"
#include "oracle/routers.hpp"

namespace {

using namespace dbn;
using namespace dbn::net;

constexpr std::uint32_t kRadix = 2;
constexpr std::size_t kK = 9;  // 512 sites

struct RouterUnderTest {
  std::string name;
  std::function<RoutingPath(const Word&, const Word&)> route;
};

void run_workload(const std::string& name,
                  const std::vector<Injection>& schedule,
                  const DeBruijnGraph& undirected) {
  const std::vector<RouterUnderTest> routers = {
      {"Algorithm 1 (uni)", [](const Word& x, const Word& y) {
         return route_unidirectional(x, y);
       }},
      {"Algorithm 2 (k^2)", [](const Word& x, const Word& y) {
         return route_bidirectional_mp(x, y);
       }},
      {"Algorithm 4 (k)", [](const Word& x, const Word& y) {
         return route_bidirectional_suffix_tree(x, y);
       }},
      {"BFS baseline", [&undirected](const Word& x, const Word& y) {
         return route_bfs(undirected, x, y);
       }},
  };
  Table table({"router", "messages", "delivered", "mean hops", "mean lat",
               "max lat", "route us/msg"});
  for (const RouterUnderTest& r : routers) {
    SimConfig config;
    config.radix = kRadix;
    config.k = kK;
    Simulator sim(config);
    const auto start = std::chrono::steady_clock::now();
    std::vector<Message> messages;
    messages.reserve(schedule.size());
    for (const Injection& inj : schedule) {
      const Word src = Word::from_rank(kRadix, kK, inj.source);
      const Word dst = Word::from_rank(kRadix, kK, inj.destination);
      messages.emplace_back(ControlCode::Data, src, dst, r.route(src, dst));
    }
    const auto stop = std::chrono::steady_clock::now();
    const double route_us =
        std::chrono::duration<double, std::micro>(stop - start).count() /
        static_cast<double>(schedule.size());
    for (std::size_t i = 0; i < schedule.size(); ++i) {
      sim.inject(schedule[i].time, std::move(messages[i]));
    }
    sim.run();
    const SimStats& s = sim.stats();
    table.add_row({r.name, std::to_string(s.injected),
                   std::to_string(s.delivered), Table::num(s.mean_hops(), 3),
                   Table::num(s.mean_latency(), 2),
                   Table::num(s.max_latency, 1), Table::num(route_us, 2)});
  }
  std::cout << "\n";
  table.print(std::cout, name);
}

}  // namespace

int main() {
  std::cout << "== Experiment S3: end-to-end routed throughput in DN(2,9) "
               "==\n";
  const DeBruijnGraph undirected(kRadix, kK, Orientation::Undirected);
  Rng rng(1234);
  run_workload("Random permutation (one message per site, t = 0)",
               permutation_traffic(kRadix, kK, rng), undirected);
  run_workload("Digit reversal (reversal symmetry favors the r-side, t = 0)",
               reversal_traffic(kRadix, kK), undirected);
  std::cout
      << "\nExpected shape: all messages delivered by every router; mean "
         "hops equal for\nAlgorithm 2 / Algorithm 4 / BFS (all optimal) and "
         "higher for Algorithm 1 (left\nshifts only). Per-route cost: the "
         "formula routers depend only on k, while BFS\ngrows with N (its "
         "early-exit makes it cheap when distances are short — the\nfull "
         "gap is quantified in bench_distance_query). At k = 9 Algorithm 2 "
         "beats\nAlgorithm 4, reproducing the Section 4 small-k remark.\n";
  return 0;
}

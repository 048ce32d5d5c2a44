// Experiment D5 — what the paper's O(k) algorithms replace: compiled
// next-hop tables.
//
// A table-driven network stores O(N) next hops per site (O(N^2) total,
// built with N reverse BFS passes); the paper computes the next hop from
// the two addresses in O(k) = O(log N) with zero state. Measured: build
// time and memory of the tables vs per-decision cost of both approaches,
// as N grows. Lookups are (slightly) faster per hop; the table's build
// time and quadratic memory are the price, and they grow without bound
// while the formula's costs stay logarithmic.
#include <chrono>
#include <iostream>
#include <string>

#include "common/rng.hpp"
#include "common/table.hpp"
#include "oracle/routers.hpp"
#include "oracle/routing_table.hpp"

namespace {

using namespace dbn;

double us_since(const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

int main() {
  std::cout << "== Experiment D5: compiled routing tables vs the O(k) "
               "formulas ==\n\n";
  Table table({"d", "k", "N", "table build ms", "table bytes",
               "lookup ns/hop", "route ns/hop (amortized)"});
  Rng rng(77);
  for (const auto& [d, k] : std::vector<std::pair<std::uint32_t, std::size_t>>{
           {2, 6}, {2, 8}, {2, 10}, {2, 12}, {3, 5}, {4, 4}}) {
    const DeBruijnGraph g(d, k, Orientation::Undirected);
    const auto build_start = std::chrono::steady_clock::now();
    const RoutingTable rt(g);
    const double build_ms = us_since(build_start) / 1000.0;

    // Sample random (src, dst) pairs; measure one next-hop decision each.
    const int probes = 20000;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> pairs;
    pairs.reserve(probes);
    for (int i = 0; i < probes; ++i) {
      const std::uint64_t a = rng.below(g.vertex_count());
      std::uint64_t b = rng.below(g.vertex_count());
      if (a == b) {
        b = (b + 1) % g.vertex_count();
      }
      pairs.emplace_back(a, b);
    }
    const auto lookup_start = std::chrono::steady_clock::now();
    std::uint64_t sink = 0;
    for (const auto& [a, b] : pairs) {
      sink += rt.next_hop(a, b).digit;
    }
    const double lookup_ns = us_since(lookup_start) * 1000.0 / probes;

    // Stateless alternative: the source computes the whole O(k^2) route
    // once and every hop consumes one entry — so the per-hop cost is the
    // route cost amortized over its length.
    const auto formula_start = std::chrono::steady_clock::now();
    std::uint64_t total_hops = 0;
    for (const auto& [a, b] : pairs) {
      const RoutingPath path = route_bidirectional_mp(g.word(a), g.word(b));
      sink += path.length();
      total_hops += path.length();
    }
    const double formula_ns = us_since(formula_start) * 1000.0 /
                              static_cast<double>(std::max<std::uint64_t>(
                                  total_hops, 1));
    if (sink == 0xdeadbeef) {  // keep the loops observable
      std::cout << "";
    }
    table.add_row({std::to_string(d), std::to_string(k),
                   std::to_string(g.vertex_count()), Table::num(build_ms, 2),
                   std::to_string(rt.memory_bytes()),
                   Table::num(lookup_ns, 1), Table::num(formula_ns, 1)});
  }
  table.print(std::cout,
              "Next-hop decision: compiled O(N^2)-state tables vs the "
              "paper's stateless O(k) computation");
  std::cout << "\nShape: lookups win per-decision, but table state grows "
               "quadratically (already\nMBs at N = 4096) and build time "
               "grows superlinearly, while the formula's cost\ngrows only "
               "with k = log_d N and needs no state at all — the paper's "
               "point.\n";
  return 0;
}

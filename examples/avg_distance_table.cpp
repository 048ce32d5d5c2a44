// Average-distance explorer (the Figure 2 machinery as a CLI).
//
// Usage: ./build/examples/avg_distance_table [d] [k] [samples]
//   defaults: d = 2, k = 8, samples = 50000.
// Prints the directed and undirected distance statistics of DG(d,k),
// choosing exact enumeration when d^k is small and sampling otherwise.
// Arguments parse whole (tools/args.hpp): "2x" is a usage error, exit 1.
#include <iostream>
#include <optional>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/average_distance.hpp"
#include "core/distance.hpp"
#include "tools/args.hpp"

namespace {

void usage(std::ostream& out) {
  out << "usage: avg_distance_table [d>=2] [k>=1] [samples]\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dbn;
  const std::vector<std::string_view> args(argv + 1, argv + argc);
  std::optional<std::uint32_t> d_arg;
  std::optional<std::size_t> k_arg;
  std::optional<std::size_t> samples_arg;
  tools::ArgParser parser("avg_distance_table", 1, usage);
  parser.positional("d", d_arg).positional("k", k_arg).positional("samples",
                                                                  samples_arg);
  if (const auto status = parser.parse(args)) {
    return *status;
  }
  const std::uint32_t d = d_arg.value_or(2);
  const std::size_t k = k_arg.value_or(8);
  const std::size_t samples = samples_arg.value_or(50000);
  if (d < 2 || k < 1) {
    return parser.fail("need d >= 2 and k >= 1");
  }
  const std::uint64_t n = Word::vertex_count(d, k);
  std::cout << "DG(" << d << "," << k << "): N = " << n << ", diameter = "
            << k << "\n\n";

  Table table({"quantity", "value", "method"});
  table.add_row({"directed avg (eq. (5), paper)",
                 Table::num(directed_average_distance_closed_form(d, k), 4),
                 "closed form"});
  table.add_row({"directed avg (exact)",
                 Table::num(directed_average_distance_exact(d, k), 4),
                 "cylinder enumeration"});
  Rng rng(1);
  if (n <= 4096) {
    table.add_row({"undirected avg",
                   Table::num(undirected_average_exact_bfs(d, k), 4),
                   "exact all-pairs BFS"});
    const auto histogram = undirected_distance_histogram(d, k);
    for (std::size_t i = 0; i <= k; ++i) {
      table.add_row({"undirected pairs at distance " + std::to_string(i),
                     std::to_string(histogram[i]), "exact"});
    }
  } else {
    table.add_row({"undirected avg",
                   Table::num(undirected_average_sampled(d, k, samples, rng), 4),
                   std::to_string(samples) + "-pair sampling"});
  }
  table.print(std::cout, "");
  return 0;
}

// Experiment C2 — the bi-directional router complexity claims:
//   Section 3.2: Algorithm 2 (+3) is O(k^2) time, O(k) space.
//   Section 3.3: Algorithm 4 (suffix trees) is O(k) time and space.
//   Section 4:  "when the diameter k ... is small, the use of conceptually
//                simpler pattern matching algorithms ... may not be worse
//                than the linear algorithms."
//
// google-benchmark sweep over k for Algorithm 2, Algorithm 4, and the
// O(k^3) brute-force enumeration, followed by a crossover table that
// reports which algorithm wins at each k — reproducing the Section 4
// remark quantitatively (Algorithm 2, and even the cubic scan, win below a
// few dozen digits; Algorithm 4 wins asymptotically).
#include <benchmark/benchmark.h>

#include <chrono>
#include <iostream>

#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/path_builder.hpp"
#include "debruijn/word.hpp"
#include "oracle/naive.hpp"
#include "oracle/routers.hpp"

namespace {

using namespace dbn;

Word random_word(Rng& rng, std::uint32_t d, std::size_t k) {
  std::vector<Digit> digits(k);
  for (auto& x : digits) {
    x = static_cast<Digit>(rng.below(d));
  }
  return Word(d, std::move(digits));
}

/// Brute-force bi-directional router: O(k^3) minimization, same path
/// construction (the "conceptually simpler" baseline).
RoutingPath route_bidirectional_cubic(const Word& x, const Word& y) {
  const int k = static_cast<int>(x.length());
  const strings::OverlapMin l_side =
      strings::naive::min_l_cost(x.symbols(), y.symbols());
  const Word xr = x.reversed();
  const Word yr = y.reversed();
  const strings::OverlapMin r_side = r_side_from_reversed(
      k, strings::naive::min_l_cost(xr.symbols(), yr.symbols()));
  return build_bidi_path(x, y, make_bidi_plan(k, l_side, r_side),
                         WildcardMode::Concrete);
}

void BM_Algorithm2(benchmark::State& state) {
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  Rng rng(k);
  const Word x = random_word(rng, 2, k);
  const Word y = random_word(rng, 2, k);
  for (auto _ : state) {
    benchmark::DoNotOptimize(route_bidirectional_mp(x, y));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Algorithm2)
    ->RangeMultiplier(4)
    ->Range(4, 1 << 10)
    ->Complexity(benchmark::oNSquared);

void BM_Algorithm4(benchmark::State& state) {
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  Rng rng(k);
  const Word x = random_word(rng, 2, k);
  const Word y = random_word(rng, 2, k);
  for (auto _ : state) {
    benchmark::DoNotOptimize(route_bidirectional_suffix_tree(x, y));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Algorithm4)
    ->RangeMultiplier(4)
    ->Range(4, 1 << 12)
    ->Complexity(benchmark::oN);

void BM_BruteForceCubic(benchmark::State& state) {
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  Rng rng(k);
  const Word x = random_word(rng, 2, k);
  const Word y = random_word(rng, 2, k);
  for (auto _ : state) {
    benchmark::DoNotOptimize(route_bidirectional_cubic(x, y));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_BruteForceCubic)->RangeMultiplier(4)->Range(4, 1 << 7)->Complexity();

double mean_ns_per_route(RoutingPath (*route)(const Word&, const Word&),
                         std::size_t k, int reps) {
  Rng rng(k * 7919 + 13);
  const Word x = random_word(rng, 2, k);
  const Word y = random_word(rng, 2, k);
  // Warm-up.
  benchmark::DoNotOptimize(route(x, y));
  const auto start = std::chrono::steady_clock::now();
  for (int r = 0; r < reps; ++r) {
    benchmark::DoNotOptimize(route(x, y));
  }
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::nano>(stop - start).count() / reps;
}

RoutingPath route_mp_concrete(const Word& x, const Word& y) {
  return route_bidirectional_mp(x, y);
}
RoutingPath route_st_concrete(const Word& x, const Word& y) {
  return route_bidirectional_suffix_tree(x, y);
}

void print_crossover_table() {
  Table table({"k", "Alg2 O(k^2) ns", "Alg4 O(k) ns", "cubic ns", "winner"});
  for (const std::size_t k :
       {2u, 4u, 8u, 16u, 32u, 64u, 128u, 256u, 512u, 1024u}) {
    const int reps = k <= 64 ? 5000 : (k <= 512 ? 500 : 50);
    const double mp = mean_ns_per_route(&route_mp_concrete, k, reps);
    const double st = mean_ns_per_route(&route_st_concrete, k, reps);
    const double cubic = k <= 256
                             ? mean_ns_per_route(&route_bidirectional_cubic, k,
                                                 std::max(5, reps / 20))
                             : -1.0;
    const char* winner = "Alg4";
    if (mp <= st && (cubic < 0 || mp <= cubic)) {
      winner = "Alg2";
    } else if (cubic >= 0 && cubic <= st && cubic <= mp) {
      winner = "cubic";
    }
    table.add_row({std::to_string(k), Table::num(mp, 0), Table::num(st, 0),
                   cubic < 0 ? "-" : Table::num(cubic, 0), winner});
  }
  std::cout << "\n";
  table.print(std::cout,
              "Crossover (Section 4 remark): per-route cost by diameter k, "
              "random binary words");
  std::cout << "\nExpected shape: Alg2 (or even the cubic scan) wins at "
               "small k; Alg4's linear\nconstruction overtakes once k "
               "reaches a few hundred.\n";
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  print_crossover_table();
  return 0;
}

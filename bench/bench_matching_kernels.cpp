// Ablation A1 — five independent engines for the same Theorem 2 side
// minimum min_{i,j}(2k-1+i-j-l_{i,j}):
//   MP        — Algorithm 3 failure-function rows (the paper's §3.2), O(k^2)
//   Z         — Z-array rows (same row semantics, different kernel), O(k^2)
//   SuffixTree— corrected Algorithm 4 (§3.3), O(k)
//   Automaton — suffix automaton of X walked over Y, O(k)
//   SuffixArr — LCP-interval sweep over the suffix array, O(k log k)
// All five return identical costs (asserted continuously in the test
// suite); this bench compares their constants, i.e. *which* linear/quadratic
// algorithm you would actually want at each diameter.
#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "oracle/common_substring.hpp"
#include "oracle/suffix_array.hpp"
#include "oracle/zfunction.hpp"
#include "strings/matching.hpp"
#include "strings/suffix_automaton.hpp"

namespace {

using namespace dbn;
using strings::Symbol;

std::vector<Symbol> random_word(std::size_t k, std::uint32_t d,
                                std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Symbol> w(k);
  for (auto& c : w) {
    c = static_cast<Symbol>(rng.below(d));
  }
  return w;
}

template <strings::OverlapMin (*Kernel)(strings::SymbolView,
                                        strings::SymbolView)>
void BM_Kernel(benchmark::State& state) {
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  const auto x = random_word(k, 2, k);
  const auto y = random_word(k, 2, k + 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Kernel(x, y));
  }
  state.SetComplexityN(state.range(0));
}

BENCHMARK(BM_Kernel<&strings::min_l_cost>)
    ->Name("BM_MpRows")
    ->RangeMultiplier(4)
    ->Range(4, 1 << 10)
    ->Complexity(benchmark::oNSquared);
BENCHMARK(BM_Kernel<&strings::min_l_cost_z>)
    ->Name("BM_ZRows")
    ->RangeMultiplier(4)
    ->Range(4, 1 << 10)
    ->Complexity(benchmark::oNSquared);
BENCHMARK(BM_Kernel<&min_l_cost_suffix_tree>)
    ->Name("BM_SuffixTree")
    ->RangeMultiplier(4)
    ->Range(4, 1 << 13)
    ->Complexity(benchmark::oN);
BENCHMARK(BM_Kernel<&strings::min_l_cost_suffix_automaton>)
    ->Name("BM_SuffixAutomaton")
    ->RangeMultiplier(4)
    ->Range(4, 1 << 13)
    ->Complexity(benchmark::oN);
BENCHMARK(BM_Kernel<&strings::min_l_cost_suffix_array>)
    ->Name("BM_SuffixArray")
    ->RangeMultiplier(4)
    ->Range(4, 1 << 13)
    ->Complexity(benchmark::oNLogN);

}  // namespace

BENCHMARK_MAIN();

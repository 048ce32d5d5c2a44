// Experiment C4 — Section 3.3's substrate claim: the compact prefix tree
// (suffix tree) of a length-n string is built in linear time.
//
// Ukkonen's construction (our substitute for Weiner's algorithm — same
// structure, same bound) against the naive O(n^2) builder, over random
// binary and 4-ary texts. Fitted complexity should read ~N vs ~N^2, and
// the absolute cost at the router's operating point (n = 2k+2, small k)
// shows why Section 4 says quadratic algorithms are fine for small k.
#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "oracle/suffix_tree.hpp"

namespace {

using namespace dbn;
using strings::Symbol;
using strings::SuffixTree;

std::vector<Symbol> random_text(std::size_t n, std::uint32_t alphabet,
                                std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Symbol> text(n);
  for (auto& c : text) {
    c = static_cast<Symbol>(rng.below(alphabet));
  }
  text.push_back(alphabet);  // unique endmarker
  return text;
}

void BM_UkkonenBinary(benchmark::State& state) {
  const auto text = random_text(static_cast<std::size_t>(state.range(0)), 2,
                                static_cast<std::uint64_t>(state.range(0)));
  for (auto _ : state) {
    SuffixTree tree(text);
    benchmark::DoNotOptimize(tree.node_count());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_UkkonenBinary)
    ->RangeMultiplier(4)
    ->Range(16, 1 << 16)
    ->Complexity(benchmark::oN);

void BM_UkkonenQuaternary(benchmark::State& state) {
  const auto text = random_text(static_cast<std::size_t>(state.range(0)), 4,
                                static_cast<std::uint64_t>(state.range(0)));
  for (auto _ : state) {
    SuffixTree tree(text);
    benchmark::DoNotOptimize(tree.node_count());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_UkkonenQuaternary)
    ->RangeMultiplier(4)
    ->Range(16, 1 << 16)
    ->Complexity(benchmark::oN);

void BM_NaiveBuilder(benchmark::State& state) {
  const auto text = random_text(static_cast<std::size_t>(state.range(0)), 2,
                                static_cast<std::uint64_t>(state.range(0)));
  for (auto _ : state) {
    SuffixTree tree = SuffixTree::build_naive(text);
    benchmark::DoNotOptimize(tree.node_count());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_NaiveBuilder)->RangeMultiplier(4)->Range(16, 1 << 12)->Complexity();

/// The router's operating point: the generalized tree over X sep Y sep has
/// n = 2k+2 symbols; this measures the constant factor Algorithm 4 pays.
void BM_UkkonenRouterOperatingPoint(benchmark::State& state) {
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  const auto text = random_text(2 * k + 1, 2, k);  // +1 endmarker inside
  for (auto _ : state) {
    SuffixTree tree(text);
    benchmark::DoNotOptimize(tree.node_count());
  }
}
BENCHMARK(BM_UkkonenRouterOperatingPoint)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

}  // namespace

BENCHMARK_MAIN();

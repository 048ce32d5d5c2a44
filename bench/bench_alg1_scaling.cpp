// Experiment C1 — Section 3.1 claim: Algorithm 1 (uni-directional routing)
// is O(k) in time and space.
//
// google-benchmark sweep over the diameter k: Algorithm 1 (Morris–Pratt
// overlap) against the naive overlap scan the paper's Section 4 calls
// "conceptually simpler". Two input families:
//   - random words: the naive scan's checks fail after O(1) expected
//     symbols, so both look linear — this is the paper's point that simple
//     algorithms are fine for small/typical cases;
//   - adversarial words (X = 0^k, Y = 0^(k/2) 1 0^...), where every naive
//     check runs ~k/2 symbols deep: the fitted complexity (BigO column)
//     reads ~N for Algorithm 1 and ~N^2 for the naive scan.
#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "core/routers.hpp"
#include "debruijn/word.hpp"
#include "oracle/naive.hpp"

namespace {

using namespace dbn;

Word random_word(Rng& rng, std::uint32_t d, std::size_t k) {
  std::vector<Digit> digits(k);
  for (auto& x : digits) {
    x = static_cast<Digit>(rng.below(d));
  }
  return Word(d, std::move(digits));
}

std::pair<Word, Word> adversarial_pair(std::size_t k) {
  const Word x = Word::zero(2, k);
  std::vector<Digit> yd(k, 0);
  yd[k / 2] = 1;
  return {x, Word(2, std::move(yd))};
}

RoutingPath naive_route(const Word& x, const Word& y) {
  const int l = strings::naive::suffix_prefix_overlap(x.symbols(), y.symbols());
  RoutingPath path;
  for (std::size_t i = static_cast<std::size_t>(l); i < y.length(); ++i) {
    path.push({ShiftType::Left, y.digit(i)});
  }
  return path;
}

void BM_Algorithm1_Random(benchmark::State& state) {
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  Rng rng(k);
  const Word x = random_word(rng, 2, k);
  const Word y = random_word(rng, 2, k);
  for (auto _ : state) {
    benchmark::DoNotOptimize(route_unidirectional(x, y));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Algorithm1_Random)
    ->RangeMultiplier(4)
    ->Range(16, 1 << 16)
    ->Complexity(benchmark::oN);

void BM_Algorithm1_Adversarial(benchmark::State& state) {
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  const auto [x, y] = adversarial_pair(k);
  for (auto _ : state) {
    benchmark::DoNotOptimize(route_unidirectional(x, y));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Algorithm1_Adversarial)
    ->RangeMultiplier(4)
    ->Range(16, 1 << 16)
    ->Complexity(benchmark::oN);

void BM_NaiveOverlap_Random(benchmark::State& state) {
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  Rng rng(k);
  const Word x = random_word(rng, 2, k);
  const Word y = random_word(rng, 2, k);
  for (auto _ : state) {
    benchmark::DoNotOptimize(naive_route(x, y));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_NaiveOverlap_Random)
    ->RangeMultiplier(4)
    ->Range(16, 1 << 16)
    ->Complexity();

void BM_NaiveOverlap_Adversarial(benchmark::State& state) {
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  const auto [x, y] = adversarial_pair(k);
  for (auto _ : state) {
    benchmark::DoNotOptimize(naive_route(x, y));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_NaiveOverlap_Adversarial)
    ->RangeMultiplier(4)
    ->Range(16, 1 << 13)
    ->Complexity(benchmark::oNSquared);

}  // namespace

BENCHMARK_MAIN();

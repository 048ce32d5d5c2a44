// Ablation A2 — the paper's Section 4 remark quantified: "mechanical
// transformations" (here: hoisting every allocation out of the hot path)
// versus the straightforward implementation of the same Algorithm 2.
//
// BM_Allocating constructs rows/paths per call; BM_Engine reuses buffers
// in a BidirectionalRouteEngine. At small k (the practical regime — a
// physical network with k = 16 already has 65536 sites) the engine's
// advantage is the difference between the algorithm's cost and malloc's.
// Batch mode (BM_BatchEngine*) measures the same Algorithm 2/3 kernel
// driven by the parallel BatchRouteEngine: a chunked thread pool over
// per-worker scratch arenas, with an optional per-worker memo for
// repeated (X, Y) flows. The thread sweep 1/2/4/8 is the CI smoke grid
// recorded in BENCH_*.json (docs/benchmarking.md).
// BM_UntracedRoute / BM_TracedRoute measure the observability subsystem:
// untraced is the default disabled path (one relaxed atomic load per
// route), traced routes into a discarding sink so the cost of building
// span/hop events is visible. scripts/bench_report.py derives the
// disabled-overhead row (BM_UntracedRoute vs BM_Engine at the same k) and
// CI gates it at 5%. The gated path is compiled at the default contract
// level, so the same ratio also bounds the level-1 DBN_REQUIRE/DBN_ENSURE
// checks inside route_into (witness range + cost identity, all O(1)
// compares): contracts staying live in production is part of what the
// 1.05x budget pays for.
// The engine runs one of two side-minimum kernels (strings/packed.hpp),
// both under one witness rule: words up to k = 32 (d <= 16) the diagonal
// pass, every other word the seeded kernel, which tests the central cells
// of all diagonals at once and measures only the diagonals that pass.
// BM_EngineStream (d = 2) and BM_EngineStreamRadix (d = 4, 16, 20) map the
// dispatch on streams of random pairs, BM_EnginePeriodic on pairs whose
// runs reach k - 1, and BM_SeededKernel times the kernel alone against
// BM_PackedKernelMinLCostScalar, one side of the scalar Algorithm 3 scan.
// Derived rows (scripts/bench_report.py): BM_Engine/128 over /64 and over
// /32 are engine_k128_vs_k64 and engine_k128_vs_k32 (--max-engine-k128-
// vs-k64/-k32), and BM_EngineStream/256 over /128 is
// engine_stream_k256_vs_k128 (--max-engine-stream-k256-vs-k128), which an
// O(k^2) path would push from about 1.7x to 5-7x.
#include <benchmark/benchmark.h>

#include <vector>

#include "common/rng.hpp"
#include "core/batch_route_engine.hpp"
#include "core/route_engine.hpp"
#include "obs/trace.hpp"
#include "oracle/routers.hpp"
#include "strings/matching.hpp"
#include "strings/packed.hpp"

namespace {

using namespace dbn;

Word random_word(Rng& rng, std::uint32_t d, std::size_t k) {
  std::vector<Digit> digits(k);
  for (auto& x : digits) {
    x = static_cast<Digit>(rng.below(d));
  }
  return Word(d, std::move(digits));
}

void BM_Allocating(benchmark::State& state) {
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  Rng rng(k);
  const Word x = random_word(rng, 2, k);
  const Word y = random_word(rng, 2, k);
  for (auto _ : state) {
    benchmark::DoNotOptimize(route_bidirectional_mp(x, y));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Allocating)->RangeMultiplier(2)->Range(4, 256)->Complexity();

void BM_Engine(benchmark::State& state) {
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  Rng rng(k);
  const Word x = random_word(rng, 2, k);
  const Word y = random_word(rng, 2, k);
  BidirectionalRouteEngine engine(k);
  RoutingPath path;
  for (auto _ : state) {
    engine.route_into(x, y, WildcardMode::Concrete, path);
    benchmark::DoNotOptimize(path);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Engine)->RangeMultiplier(2)->Range(4, 512)->Complexity();

void BM_EngineDistanceOnly(benchmark::State& state) {
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  Rng rng(k);
  const Word x = random_word(rng, 2, k);
  const Word y = random_word(rng, 2, k);
  BidirectionalRouteEngine engine(k);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.distance(x, y));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_EngineDistanceOnly)
    ->RangeMultiplier(2)
    ->Range(4, 512)
    ->Complexity();

// A request stream: each iteration routes the next of 4,096 distinct
// random DG(d,k) pairs, so the time is ns per pair on pairs the branch
// predictor has not learnt, as a server sees them. BM_Engine repeats one
// pair; derived/engine_stream_vs_fixed_k16 is the ratio of the two at
// k = 16, and derived/engine_stream_k256_vs_k128 what doubling k costs.
void engine_stream(benchmark::State& state, std::uint32_t d, std::size_t k) {
  constexpr std::size_t kPairs = 4096;
  Rng rng(k);
  std::vector<RouteQuery> pairs;
  pairs.reserve(kPairs);
  for (std::size_t i = 0; i < kPairs; ++i) {
    pairs.push_back(RouteQuery{random_word(rng, d, k), random_word(rng, d, k)});
  }
  BidirectionalRouteEngine engine(k);
  RoutingPath path;
  std::size_t next = 0;
  for (auto _ : state) {
    const RouteQuery& q = pairs[next];
    engine.route_into(q.x, q.y, WildcardMode::Concrete, path);
    benchmark::DoNotOptimize(path);
    next = (next + 1) % kPairs;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

// d = 2 at k: the pass up to 32, the seeded kernel past it.
void BM_EngineStream(benchmark::State& state) {
  engine_stream(state, 2, static_cast<std::size_t>(state.range(0)));
}
BENCHMARK(BM_EngineStream)
    ->Arg(8)->Arg(16)->Arg(32)->Arg(33)->Arg(64)->Arg(128)->Arg(256)
    ->Arg(512);

// d/k for two and four bits per digit and for unpacked digits (d = 20,
// where even k = 6 runs the seeded kernel).
void BM_EngineStreamRadix(benchmark::State& state) {
  engine_stream(state, static_cast<std::uint32_t>(state.range(0)),
                static_cast<std::size_t>(state.range(1)));
}
BENCHMARK(BM_EngineStreamRadix)
    ->ArgsProduct({{4, 16}, {33, 64, 128, 256, 512}})
    ->Args({20, 6})->Args({20, 33})->Args({20, 64});

// Pairs whose common runs reach k - 1: the diagonal pass runs all k of its
// steps, and the seeded kernel stops after |c| = 1. Iterations alternate
// (01)^(k/2) vs (10)^(k/2) and 0^k vs 0^(k-1) 1.
void BM_EnginePeriodic(benchmark::State& state) {
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  std::vector<Digit> alternating(k), shifted(k), ones_last(k, 0);
  for (std::size_t i = 0; i < k; ++i) {
    alternating[i] = static_cast<Digit>(i % 2);
    shifted[i] = static_cast<Digit>((i + 1) % 2);
  }
  ones_last.back() = 1;
  const RouteQuery pairs[] = {
      RouteQuery{Word(2, alternating), Word(2, shifted)},
      RouteQuery{Word::zero(2, k), Word(2, ones_last)}};
  BidirectionalRouteEngine engine(k);
  RoutingPath path;
  std::size_t next = 0;
  for (auto _ : state) {
    engine.route_into(pairs[next].x, pairs[next].y, WildcardMode::Concrete,
                      path);
    benchmark::DoNotOptimize(path);
    next ^= 1;
  }
}
BENCHMARK(BM_EnginePeriodic)
    ->Arg(16)->Arg(32)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

/// Accepts every event and throws it away — isolates the cost of *producing*
/// trace events from any export format.
class DiscardSink : public obs::TraceSink {
 public:
  void emit(const obs::TraceEvent& event) override {
    benchmark::DoNotOptimize(&event);
  }
};

void BM_UntracedRoute(benchmark::State& state) {
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  Rng rng(k);
  const Word x = random_word(rng, 2, k);
  const Word y = random_word(rng, 2, k);
  BidirectionalRouteEngine engine(k);
  RoutingPath path;
  for (auto _ : state) {
    engine.route_into(x, y, WildcardMode::Concrete, path);
    benchmark::DoNotOptimize(path);
  }
}
BENCHMARK(BM_UntracedRoute)->Arg(16);

void BM_TracedRoute(benchmark::State& state) {
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  Rng rng(k);
  const Word x = random_word(rng, 2, k);
  const Word y = random_word(rng, 2, k);
  BidirectionalRouteEngine engine(k);
  RoutingPath path;
  DiscardSink sink;
  obs::set_trace_sink(&sink);
  for (auto _ : state) {
    engine.route_into(x, y, WildcardMode::Concrete, path);
    benchmark::DoNotOptimize(path);
  }
  obs::set_trace_sink(nullptr);
}
BENCHMARK(BM_TracedRoute)->Arg(16);

void BM_SeededKernel(benchmark::State& state) {
  // Both side minima from the seeded kernel alone, packing included, on
  // one random DG(2,k) pair.
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  Rng rng(k);
  const Word x = random_word(rng, 2, k);
  const Word y = random_word(rng, 2, k);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        strings::side_minima_seeded(x.symbols(), y.symbols(), 2));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SeededKernel)->Arg(10)->Arg(16)->Arg(32)->Arg(64)->Arg(128)
    ->Arg(256)->Arg(512)->Complexity();

void BM_PackedKernelMinLCostScalar(benchmark::State& state) {
  // The scalar Algorithm 3 scan of one side on the identical pairs, the
  // O(k^2) reference the kernels replace.
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  Rng rng(k);
  const Word x = random_word(rng, 2, k);
  const Word y = random_word(rng, 2, k);
  for (auto _ : state) {
    benchmark::DoNotOptimize(strings::min_l_cost(x.symbols(), y.symbols()));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_PackedKernelMinLCostScalar)->Arg(10)->Arg(16)->Arg(32)->Arg(64)
    ->Arg(128)->Arg(256)->Complexity();

// The CI smoke grid: DG(2,10), random pairs, 8192 queries per batch.
constexpr std::uint32_t kSmokeD = 2;
constexpr std::size_t kSmokeK = 10;
constexpr std::size_t kSmokeBatch = 8192;

std::vector<RouteQuery> smoke_queries(std::size_t count, std::size_t flows) {
  Rng rng(kSmokeK);
  std::vector<RouteQuery> queries;
  queries.reserve(count);
  if (flows > 0) {
    // `flows` distinct hot pairs cycled through the batch (cache regime).
    std::vector<RouteQuery> hot;
    for (std::size_t i = 0; i < flows; ++i) {
      hot.push_back(RouteQuery{random_word(rng, kSmokeD, kSmokeK),
                               random_word(rng, kSmokeD, kSmokeK)});
    }
    for (std::size_t i = 0; i < count; ++i) {
      queries.push_back(hot[i % flows]);
    }
  } else {
    for (std::size_t i = 0; i < count; ++i) {
      queries.push_back(RouteQuery{random_word(rng, kSmokeD, kSmokeK),
                                   random_word(rng, kSmokeD, kSmokeK)});
    }
  }
  return queries;
}

void BM_BatchEngine(benchmark::State& state) {
  const std::size_t threads = static_cast<std::size_t>(state.range(0));
  const std::vector<RouteQuery> queries = smoke_queries(kSmokeBatch, 0);
  BatchRouteEngine engine(kSmokeD, kSmokeK,
                          BatchRouteOptions{.threads = threads, .chunk = 256});
  std::vector<RoutingPath> out;
  for (auto _ : state) {
    engine.route_batch_into(queries, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(queries.size()));
}
BENCHMARK(BM_BatchEngine)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

void BM_BatchEngineCached(benchmark::State& state) {
  const std::size_t threads = static_cast<std::size_t>(state.range(0));
  // 64 hot flows repeated across the batch; the per-worker memos turn
  // the steady state into hash + compare + copy, with no lock.
  const std::vector<RouteQuery> queries = smoke_queries(kSmokeBatch, 64);
  BatchRouteEngine engine(
      kSmokeD, kSmokeK,
      BatchRouteOptions{
          .threads = threads, .chunk = 256, .cache_entries = 4096});
  std::vector<RoutingPath> out;
  for (auto _ : state) {
    engine.route_batch_into(queries, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(queries.size()));
  state.counters["hit_rate"] = benchmark::Counter(
      static_cast<double>(engine.last_stats().cache_hits) /
      static_cast<double>(engine.last_stats().cache_lookups));
}
BENCHMARK(BM_BatchEngineCached)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

void BM_BatchEngineDistanceOnly(benchmark::State& state) {
  const std::size_t threads = static_cast<std::size_t>(state.range(0));
  const std::vector<RouteQuery> queries = smoke_queries(kSmokeBatch, 0);
  BatchRouteEngine engine(kSmokeD, kSmokeK,
                          BatchRouteOptions{.threads = threads, .chunk = 256});
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.distance_batch(queries));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(queries.size()));
}
BENCHMARK(BM_BatchEngineDistanceOnly)->Arg(1)->Arg(8)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();

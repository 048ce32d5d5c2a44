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
// BM_PackedKernel* isolate the word-parallel (SWAR) side-minimum kernel
// from strings/packed.hpp against the scalar Algorithm 3 scan on the same
// pairs — the per-query ablation behind the batch-level bidi-vs-alg1 gate
// (scripts/bench_report.py --max-bidi-vs-alg1). BM_Engine/128 over
// BM_Engine/64 and over BM_Engine/32 are the derived engine_k128_vs_k64
// and engine_k128_vs_k32 rows (--max-engine-k128-vs-k64/-k32). Words up
// to k = 32 run the diagonal pass (strings::side_minima_diagonal); longer
// ones run the offset sweep, which packs d = 2 at one bit per digit: a
// 64-bit lane up to k = 64, one 128-bit lane at k = 128 and 64-bit limbs
// past it (eight at k = 512). engine_k128_vs_k64 compares two sweep lanes
// and shows k = 128 still gets the 1-bit lane; engine_k128_vs_k32
// compares the 128-bit lane with the pass and reads 8-24x, so its bound
// of 20 is within its noise.
#include <benchmark/benchmark.h>

#include <vector>

#include "common/rng.hpp"
#include "core/batch_route_engine.hpp"
#include "core/route_engine.hpp"
#include "core/routers.hpp"
#include "obs/trace.hpp"
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
// random DG(2,k) pairs, so the time is ns per pair on pairs the branch
// predictor has not learnt, as a server sees them. BM_Engine repeats one
// pair; derived/engine_stream_vs_fixed_k16 is the ratio of the two at
// k = 16.
void BM_EngineStream(benchmark::State& state) {
  constexpr std::size_t kPairs = 4096;
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  Rng rng(k);
  std::vector<RouteQuery> pairs;
  pairs.reserve(kPairs);
  for (std::size_t i = 0; i < kPairs; ++i) {
    pairs.push_back(RouteQuery{random_word(rng, 2, k), random_word(rng, 2, k)});
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
BENCHMARK(BM_EngineStream)->Arg(8)->Arg(16)->Arg(32)->Arg(64)->Arg(128);

// The diagonal pass's worst shape: pairs whose common runs reach k - 1, so
// the pass runs all k of its steps. Iterations alternate (01)^(k/2) vs
// (10)^(k/2) and 0^k vs 0^(k-1) 1.
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
BENCHMARK(BM_EnginePeriodic)->Arg(16)->Arg(32);

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

void BM_PackedKernelMinLCost(benchmark::State& state) {
  // One l-side sweep on the lane the engine uses at this k: one 128-bit
  // lane (a 64-bit one up to k = 64) up to k = 128, four 64-bit limbs
  // past it.
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  Rng rng(k);
  const Word x = random_word(rng, 2, k);
  const Word y = random_word(rng, 2, k);
  if (strings::packable(2, k, strings::kLaneBits)) {
    const strings::PackedBuf px = strings::pack_word(x.symbols(), 2);
    const strings::PackedBuf py = strings::pack_word(y.symbols(), 2);
    for (auto _ : state) {
      benchmark::DoNotOptimize(strings::min_l_cost_packed(px, py));
    }
  } else {
    const strings::WideBuf px = strings::pack_wide(x.symbols(), 2);
    const strings::WideBuf py = strings::pack_wide(y.symbols(), 2);
    for (auto _ : state) {
      benchmark::DoNotOptimize(strings::min_l_cost_wide(px, py));
    }
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_PackedKernelMinLCost)->Arg(10)->Arg(16)->Arg(32)->Arg(64)
    ->Arg(128)->Arg(256)->Complexity();

void BM_PackedKernelMinLCostScalar(benchmark::State& state) {
  // The scalar Algorithm 3 scan on the identical pairs — the denominator
  // of the packed speedup at each k.
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

void BM_PackedKernelPackAndSweep(benchmark::State& state) {
  // The full per-query packed cost as the engine pays it: two packs,
  // two O(log) lane reversals, the l-side sweep, and the r-side sweep
  // pruned against the l-side incumbent.
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  Rng rng(k);
  const Word x = random_word(rng, 2, k);
  const Word y = random_word(rng, 2, k);
  for (auto _ : state) {
    const strings::PackedBuf px = strings::pack_word(x.symbols(), 2);
    const strings::PackedBuf py = strings::pack_word(y.symbols(), 2);
    const strings::OverlapMin l = strings::min_l_cost_packed(px, py);
    benchmark::DoNotOptimize(l);
    benchmark::DoNotOptimize(strings::min_l_cost_packed_bounded(
        strings::reverse_cells(px), strings::reverse_cells(py), l.cost));
  }
}
BENCHMARK(BM_PackedKernelPackAndSweep)->Arg(10)->Arg(32);

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

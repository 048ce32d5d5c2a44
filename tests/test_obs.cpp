// Tests for the observability subsystem (src/obs/): metrics registry
// exactness, histogram bucket semantics, trace determinism, the Theorem 2
// block segmentation carried on route spans, and the no-sink fast path.
#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/batch_route_engine.hpp"
#include "core/distance.hpp"
#include "core/route_engine.hpp"
#include "core/routers.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "testkit/conformance.hpp"
#include "testing_util.hpp"

namespace {

using namespace dbn;

// ---------------------------------------------------------------------------
// Allocation counting for the no-sink fast-path test. The replacement
// operators delegate to malloc (aligned_alloc for over-aligned types) and
// free, and only bump the counter while a test window is open, so the rest
// of the binary is unaffected.

std::atomic<bool> g_count_allocations{false};
std::atomic<std::uint64_t> g_allocation_count{0};

struct AllocationWindow {
  AllocationWindow() {
    g_allocation_count.store(0, std::memory_order_relaxed);
    g_count_allocations.store(true, std::memory_order_relaxed);
  }
  ~AllocationWindow() {
    g_count_allocations.store(false, std::memory_order_relaxed);
  }
  std::uint64_t count() const {
    return g_allocation_count.load(std::memory_order_relaxed);
  }
};

// Every allocation form goes through here: plain, array, nothrow and
// over-aligned. A form left to the runtime would allocate uncounted, and
// its memory could come back through one of the deletes below, which
// sanitizers report as an alloc-dealloc mismatch (std::stable_sort takes
// its buffer from the nothrow form and returns it through the sized
// delete).
void* counted_alloc(std::size_t size, std::size_t alignment) noexcept {
  if (g_count_allocations.load(std::memory_order_relaxed)) {
    g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  }
  size = size == 0 ? 1 : size;
  if (alignment <= alignof(std::max_align_t)) {
    return std::malloc(size);
  }
  // aligned_alloc takes a size that is a multiple of the alignment.
  return std::aligned_alloc(alignment,
                            (size + alignment - 1) / alignment * alignment);
}

void* counted_alloc_or_throw(std::size_t size, std::size_t alignment) {
  void* p = counted_alloc(size, alignment);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

// GCC pairs the inlined replacement operators with the malloc/free inside
// them and reports a spurious new/delete mismatch; the pairing is in fact
// consistent (every replaced operator delegates to malloc/free).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) { return counted_alloc_or_throw(size, 0); }
void* operator new[](std::size_t size) {
  return counted_alloc_or_throw(size, 0);
}
void* operator new(std::size_t size, std::align_val_t al) {
  return counted_alloc_or_throw(size, static_cast<std::size_t>(al));
}
void* operator new[](std::size_t size, std::align_val_t al) {
  return counted_alloc_or_throw(size, static_cast<std::size_t>(al));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size, 0);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size, 0);
}
void* operator new(std::size_t size, std::align_val_t al,
                   const std::nothrow_t&) noexcept {
  return counted_alloc(size, static_cast<std::size_t>(al));
}
void* operator new[](std::size_t size, std::align_val_t al,
                     const std::nothrow_t&) noexcept {
  return counted_alloc(size, static_cast<std::size_t>(al));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace {

// ---------------------------------------------------------------------------
// Metrics

TEST(Metrics, CounterAccumulatesAndDedups) {
  obs::MetricsRegistry registry;
  obs::Counter a = registry.counter("queries");
  obs::Counter b = registry.counter("queries");  // same metric, second handle
  a.inc();
  a.inc(4);
  b.inc(5);
  const obs::MetricsSnapshot snap = registry.snapshot();
  const obs::MetricSnapshot* m = snap.find("queries");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->kind, obs::MetricKind::Counter);
  EXPECT_EQ(m->count, 10u);
  EXPECT_EQ(registry.metric_count(), 1u);
}

TEST(Metrics, InertHandlesAreNoOps) {
  obs::Counter counter;
  obs::Gauge gauge;
  obs::Histogram histogram;
  EXPECT_FALSE(static_cast<bool>(counter));
  counter.inc();
  gauge.set(7);
  histogram.observe(1.0);  // must not crash
}

TEST(Metrics, GaugeLastSetWins) {
  obs::MetricsRegistry registry;
  obs::Gauge g = registry.gauge("depth");
  g.set(10);
  g.add(-3);
  const obs::MetricsSnapshot snap = registry.snapshot();
  const obs::MetricSnapshot* m = snap.find("depth");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->kind, obs::MetricKind::Gauge);
  EXPECT_EQ(m->value, 7);
}

TEST(Metrics, HistogramBucketBoundariesAreUpperInclusive) {
  obs::MetricsRegistry registry;
  obs::Histogram h = registry.histogram("lat", {1.0, 2.0, 4.0});
  // bucket 0: v <= 1; bucket 1: 1 < v <= 2; bucket 2: 2 < v <= 4;
  // bucket 3 (overflow): v > 4.
  h.observe(0.5);
  h.observe(1.0);  // boundary -> bucket 0
  h.observe(1.5);
  h.observe(2.0);  // boundary -> bucket 1
  h.observe(4.0);  // boundary -> bucket 2
  h.observe(4.0001);
  h.observe(100.0);
  const obs::MetricsSnapshot snap = registry.snapshot();
  const obs::MetricSnapshot* m = snap.find("lat");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->kind, obs::MetricKind::Histogram);
  ASSERT_EQ(m->buckets.size(), 4u);
  EXPECT_EQ(m->buckets[0], 2u);
  EXPECT_EQ(m->buckets[1], 2u);
  EXPECT_EQ(m->buckets[2], 1u);
  EXPECT_EQ(m->buckets[3], 2u);
  EXPECT_EQ(m->count, 7u);
  EXPECT_NEAR(m->sum, 0.5 + 1.0 + 1.5 + 2.0 + 4.0 + 4.0001 + 100.0, 1e-9);
  EXPECT_NEAR(m->mean(), m->sum / 7.0, 1e-12);
}

TEST(Metrics, ConcurrentCounterMergeIsExact) {
  obs::MetricsRegistry registry;
  obs::Counter shared = registry.counter("shared");
  obs::Histogram histogram = registry.histogram("dist", {10.0, 100.0});
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, shared, histogram, t]() mutable {
      obs::Counter own =
          registry.counter("own." + std::to_string(t));
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        shared.inc();
        own.inc();
        histogram.observe(static_cast<double>(i % 200));
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  const obs::MetricsSnapshot snap = registry.snapshot();
  const obs::MetricSnapshot* m = snap.find("shared");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->count, kThreads * kPerThread);
  for (int t = 0; t < kThreads; ++t) {
    const obs::MetricSnapshot* own = snap.find("own." + std::to_string(t));
    ASSERT_NE(own, nullptr);
    EXPECT_EQ(own->count, kPerThread);
  }
  const obs::MetricSnapshot* h = snap.find("dist");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, kThreads * kPerThread);
  // Each thread observes 0..199 cycling: 11 values <= 10, 90 in (10, 100],
  // 99 above, exactly kPerThread/200 full cycles each.
  const std::uint64_t cycles = kThreads * kPerThread / 200;
  ASSERT_EQ(h->buckets.size(), 3u);
  EXPECT_EQ(h->buckets[0], cycles * 11);
  EXPECT_EQ(h->buckets[1], cycles * 90);
  EXPECT_EQ(h->buckets[2], cycles * 99);
}

TEST(Metrics, ResetZeroesButKeepsRegistrations) {
  obs::MetricsRegistry registry;
  obs::Counter c = registry.counter("c");
  obs::Gauge g = registry.gauge("g");
  c.inc(3);
  g.set(5);
  registry.reset();
  c.inc();
  const obs::MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.find("c")->count, 1u);
  EXPECT_EQ(snap.find("g")->value, 0);
  EXPECT_EQ(registry.metric_count(), 2u);
}

TEST(Metrics, SnapshotJsonIsDeterministicAndSorted) {
  obs::MetricsRegistry registry;
  registry.counter("zz").inc(1);
  registry.counter("aa").inc(2);
  registry.histogram("mm", {1.0}).observe(0.5);
  const std::string first = registry.snapshot().to_json();
  const std::string second = registry.snapshot().to_json();
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("\"schema\":\"metrics/1\""), std::string::npos);
  // Sorted by name: aa before mm before zz.
  EXPECT_LT(first.find("\"aa\""), first.find("\"mm\""));
  EXPECT_LT(first.find("\"mm\""), first.find("\"zz\""));
}

TEST(Metrics, SummaryMatchesClosedForm) {
  obs::Summary summary;
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    summary.observe(v);
  }
  EXPECT_DOUBLE_EQ(summary.mean(), 5.0);
  EXPECT_DOUBLE_EQ(summary.variance(), 4.0);
  EXPECT_DOUBLE_EQ(summary.coefficient_of_variation(), 2.0 / 5.0);
  EXPECT_EQ(obs::Summary{}.coefficient_of_variation(), 0.0);
}

TEST(Json, EscapeAndNumberFormat) {
  EXPECT_EQ(obs::json_escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
  EXPECT_EQ(obs::json_escape(std::string_view("x\x01y", 3)), "x\\u0001y");
  EXPECT_EQ(obs::json_number(4.0), "4");
  EXPECT_EQ(obs::json_number(0.5), "0.5");
  const std::string third = obs::json_number(1.0 / 3.0);
  EXPECT_DOUBLE_EQ(std::stod(third), 1.0 / 3.0);  // round-trips exactly
}

// ---------------------------------------------------------------------------
// Tracing

/// Installs a sink for one scope (and guarantees removal on exit).
struct SinkScope {
  explicit SinkScope(obs::TraceSink* sink) { obs::set_trace_sink(sink); }
  ~SinkScope() { obs::set_trace_sink(nullptr); }
};

TEST(Trace, DisabledByDefault) {
  EXPECT_FALSE(obs::tracing_enabled());
  obs::Span span = obs::Span::begin("x", "y");
  EXPECT_FALSE(static_cast<bool>(span));
  EXPECT_EQ(span.id(), 0u);
  span.instant("child", 0.0);
  span.end(1.0);  // all no-ops
}

TEST(Trace, SpanArgsRideOnEndEvent) {
  obs::MemoryTraceSink memory;
  SinkScope scope(&memory);
  {
    obs::Span span = obs::Span::begin("work", "test");
    span.arg(obs::targ("answer", 42));
    span.instant("tick", 1.0, {obs::targ("i", 0)});
    span.end(2.0);
  }
  const std::vector<obs::TraceEvent> events = memory.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].phase, obs::TracePhase::Begin);
  EXPECT_TRUE(events[0].args.empty());
  EXPECT_EQ(events[1].phase, obs::TracePhase::Instant);
  EXPECT_EQ(events[1].span, events[0].span);
  EXPECT_EQ(events[2].phase, obs::TracePhase::End);
  ASSERT_EQ(events[2].args.size(), 1u);
  EXPECT_EQ(events[2].args[0].key, "answer");
  EXPECT_EQ(events[2].args[0].value, "42");
  EXPECT_TRUE(events[2].args[0].numeric);
}

TEST(Trace, NdjsonIsByteIdenticalAcrossRuns) {
  const Word x = Word(3, {1, 0, 1, 2, 0, 0});
  const Word y = Word(3, {2, 2, 0, 1, 2, 2});
  const auto run_once = [&] {
    std::ostringstream out;
    obs::NdjsonTraceSink sink(out);
    SinkScope scope(&sink);
    BidirectionalRouteEngine engine(6);
    RoutingPath path;
    engine.route_into(x, y, WildcardMode::Concrete, path);
    route_bidirectional_mp(x, y, WildcardMode::Concrete);
    return out.str();
  };
  const std::string first = run_once();
  const std::string second = run_once();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);  // span renumbering makes reruns byte-identical
  EXPECT_EQ(first.substr(0, first.find('\n')), obs::ndjson_header());
}

/// Collects the route span emitted for (x, y) by the engine.
struct RouteTrace {
  obs::TraceEvent end;
  std::vector<obs::TraceEvent> hops;
  RoutingPath path;
};

RouteTrace traced_route(const Word& x, const Word& y) {
  obs::MemoryTraceSink memory;
  RouteTrace result;
  {
    SinkScope scope(&memory);
    BidirectionalRouteEngine engine(x.length());
    engine.route_into(x, y, WildcardMode::Concrete, result.path);
  }
  for (const obs::TraceEvent& event : memory.events()) {
    if (event.phase == obs::TracePhase::End && event.name == "route") {
      result.end = event;
    } else if (event.phase == obs::TracePhase::Instant &&
               event.name == "hop") {
      result.hops.push_back(event);
    }
  }
  return result;
}

const std::string* find_arg(const std::vector<obs::TraceArg>& args,
                            std::string_view key) {
  for (const obs::TraceArg& a : args) {
    if (a.key == key) {
      return &a.value;
    }
  }
  return nullptr;
}

TEST(Trace, RouteSpanSegmentsIntoTheoremTwoBlocks) {
  // Sweep random pairs; for each, the hop events' (shift, block) stream
  // must be consistent with the conformance kit's Theorem 2 shape checker:
  // the path decomposes into <= 3 maximal runs, hop block indices are
  // non-decreasing, and each hop's shift letter matches its block role.
  Rng rng(2026);
  const std::uint32_t d = 3;
  const std::size_t k = 6;
  int multi_block_pairs = 0;
  for (int iter = 0; iter < 200; ++iter) {
    std::vector<Digit> xd(k), yd(k);
    for (std::size_t i = 0; i < k; ++i) {
      xd[i] = static_cast<Digit>(rng.below(d));
      yd[i] = static_cast<Digit>(rng.below(d));
    }
    const Word x(d, xd), y(d, yd);
    const RouteTrace trace = traced_route(x, y);
    ASSERT_TRUE(testkit::shape_matches_theorem2(x, y, trace.path))
        << x.to_string() << " -> " << y.to_string();
    ASSERT_EQ(trace.hops.size(), trace.path.hops().size());

    const testkit::ShiftRuns runs = testkit::shift_runs(trace.path);
    EXPECT_LE(runs.runs.size(), 3u);

    int previous_block = 0;
    std::size_t distinct_blocks = 0;
    for (std::size_t i = 0; i < trace.hops.size(); ++i) {
      const obs::TraceEvent& hop = trace.hops[i];
      const std::string* shift = find_arg(hop.args, "shift");
      const std::string* block = find_arg(hop.args, "block");
      const std::string* role = find_arg(hop.args, "role");
      ASSERT_NE(shift, nullptr);
      ASSERT_NE(block, nullptr);
      ASSERT_NE(role, nullptr);
      // The trace's shift letter must match the actual path hop.
      EXPECT_EQ(*shift, trace.path.hops()[i].type == ShiftType::Left ? "L"
                                                                     : "R");
      // Roles name the paper's blocks: an L^... role must carry L shifts.
      EXPECT_EQ(role->front() == 'L' ? "L" : "R", *shift)
          << "role " << *role << " carries a " << *shift << " shift";
      const int block_index = std::stoi(*block);
      EXPECT_GE(block_index, previous_block) << "blocks must not interleave";
      if (block_index != previous_block) {
        ++distinct_blocks;
      }
      previous_block = block_index;
    }
    // Block count from the trace == maximal shift runs in the real path.
    EXPECT_EQ(distinct_blocks, runs.runs.size());
    if (distinct_blocks == 3) {
      ++multi_block_pairs;
    }
    // The span's claimed distance is the path length.
    const std::string* distance = find_arg(trace.end.args, "distance");
    ASSERT_NE(distance, nullptr);
    EXPECT_EQ(std::stoul(*distance), trace.path.length());
  }
  // The sweep must actually exercise the full three-block form.
  EXPECT_GT(multi_block_pairs, 0);
}

TEST(Trace, NoSinkFastPathDoesNotAllocate) {
  ASSERT_FALSE(obs::tracing_enabled());
  // One pair per side-minimum kernel the engine picks from (d, k): the
  // diagonal pass at one bit per digit (DG(2,8)) and at two (DG(4,16)),
  // and the 64-bit offset sweep (DG(2,48)).
  Rng rng(7);
  const Word x4 = dbn::testing::random_word(rng, 4, 16);
  const Word y4 = dbn::testing::random_word(rng, 4, 16);
  const Word x48 = dbn::testing::random_word(rng, 2, 48);
  const Word y48 = dbn::testing::random_word(rng, 2, 48);
  const std::vector<std::pair<Word, Word>> pairs = {
      {Word(2, {0, 1, 1, 0, 1, 0, 0, 1}), Word(2, {1, 0, 0, 1, 0, 1, 1, 0})},
      {x4, y4},
      {x48, y48}};
  BidirectionalRouteEngine engine(48);
  RoutingPath path;
  for (const auto& [x, y] : pairs) {
    engine.route_into(x, y, WildcardMode::Concrete, path);  // warm buffers
  }
  obs::MetricsRegistry registry;
  obs::Counter counter = registry.counter("warm");
  counter.inc();  // first use stays outside the window
  std::uint64_t after_route = 0, after_span = 0, after_counter = 0;
  {
    AllocationWindow window;
    for (const auto& [x, y] : pairs) {
      engine.route_into(x, y, WildcardMode::Concrete, path);
    }
    after_route = window.count();
    obs::Span span = obs::Span::begin("route", "route");
    span.instant("hop", 0.0);
    span.end(1.0);
    after_span = window.count();
    counter.inc();
    after_counter = window.count();
  }
  EXPECT_EQ(after_route, 0u) << "warmed route_into allocated";
  EXPECT_EQ(after_span - after_route, 0u) << "no-sink span API allocated";
  EXPECT_EQ(after_counter - after_span, 0u) << "warmed counter allocated";
}

// The batch engine's steady state is allocation-free end to end: per-query
// work runs in the per-worker engine arena, parallel_for borrows the chunk
// body without boxing it, a warmed output vector is written in place, and
// a warmed memo copies into storage it already owns. Every kernel must
// hold the property: the diagonal pass (DG(2,8), DG(4,16)), the offset
// sweep on a 64-bit lane (DG(2,48)), on one 128-bit lane (DG(2,80)) and on
// four and eight limbs (DG(2,256), DG(2,400)), and the in-place
// Algorithm 3 scan (DG(17,5)). The memo runs with fewer slots than pairs,
// so its warmed stores evict too.
TEST(Trace, WarmedBatchEngineDoesNotAllocate) {
  ASSERT_FALSE(obs::tracing_enabled());
  struct Network {
    std::uint32_t d;
    std::size_t k;
    std::size_t cache_entries;
  };
  // One network per kernel: the diagonal pass at one and at two bits per
  // digit, the sweep's 64-bit lane, 128 bits, four and eight limbs, and
  // the in-place scan.
  for (const Network net : {Network{2, 8, 0}, Network{4, 16, 0},
                            Network{2, 48, 0}, Network{2, 80, 0},
                            Network{2, 256, 0}, Network{2, 400, 0},
                            Network{17, 5, 0}, Network{2, 8, 32},
                            Network{2, 80, 32}}) {
    const std::string label = "DG(" + std::to_string(net.d) + "," +
                              std::to_string(net.k) + ") cache " +
                              std::to_string(net.cache_entries);
    BatchRouteEngine engine(
        net.d, net.k,
        BatchRouteOptions{
            .threads = 1, .chunk = 16, .cache_entries = net.cache_entries});
    Rng rng(42);
    std::vector<RouteQuery> queries;
    for (int i = 0; i < 64; ++i) {
      queries.push_back(
          RouteQuery{dbn::testing::random_word(rng, net.d, net.k),
                     dbn::testing::random_word(rng, net.d, net.k)});
    }
    std::vector<RoutingPath> out;
    // Two warm batches: paths and engine buffers, then every memo slot at
    // the capacity its pairs need.
    engine.route_batch_into(queries, out);
    engine.route_batch_into(queries, out);
    const std::vector<int> distances = engine.distance_batch(queries);
    ASSERT_EQ(distances.size(), queries.size());
    std::uint64_t after_routes = 0, after_distances = 0;
    std::size_t evictions = 0;
    {
      AllocationWindow window;
      engine.route_batch_into(queries, out);
      after_routes = window.count();
      evictions = engine.last_stats().cache_evictions;
      engine.distance_batch(queries);
      after_distances = window.count();
    }
    EXPECT_EQ(after_routes, 0u) << label << ": warmed route batch allocated";
    // distance_batch returns a fresh vector by value — that one result
    // buffer is the only permitted allocation.
    EXPECT_LE(after_distances - after_routes, 1u)
        << label << ": warmed distance batch allocated";
    if (net.cache_entries > 0) {
      EXPECT_GT(evictions, 0u) << label;
    }
    // Allocation-free must not mean wrong: every lane answers the
    // suffix-automaton distance.
    for (std::size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(distances[i], undirected_distance(queries[i].x, queries[i].y))
          << label << ": query " << i;
    }
  }
}

TEST(Trace, LaneScopeOverridesAndRestores) {
  const std::uint64_t base = obs::current_lane();
  {
    obs::LaneScope scope(17);
    EXPECT_EQ(obs::current_lane(), 17u);
    {
      obs::LaneScope inner(3);
      EXPECT_EQ(obs::current_lane(), 3u);
    }
    EXPECT_EQ(obs::current_lane(), 17u);
  }
  EXPECT_EQ(obs::current_lane(), base);
}

}  // namespace

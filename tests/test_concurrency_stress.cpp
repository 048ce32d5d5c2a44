// Concurrency stress suite — the workloads the ThreadSanitizer CI gate
// (DBN_SAN=thread) runs to prove the concurrent subsystems race-free:
//
//   ThreadPool        chunk claiming under contention, exception
//                     propagation from racing chunks, pool churn,
//                     concurrent independent pools.
//   MetricsRegistry   snapshot/reset racing counter, histogram and gauge
//                     traffic from many threads, with post-join exactness
//                     checks.
//   TraceSink         enable/disable flips mid-route from a toggling
//                     thread while worker threads route with tracing
//                     branches active.
//   BatchRouteEngine  per-worker memos under parallel workers (counters
//                     summed after the join), plus concurrent
//                     independent engines.
//   LayerTable        the one-lock view cache under colliding destination
//                     traffic, pinned views read across evictions, and
//                     adaptive walks sharing one table.
//   RouteServer       concurrent client feeds racing the dispatcher, a
//                     stats/queue-depth poller, and a mid-flight drain.
//
// The suite is deliberately small-N so it stays inside the unit tier on a
// laptop, but every test keeps at least two OS threads genuinely racing.
// Run it under TSan with:  cmake -B build-tsan -DDBN_SAN=thread && ...
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/batch_route_engine.hpp"
#include "core/distance.hpp"
#include "core/layer_table.hpp"
#include "core/route_engine.hpp"
#include "net/adaptive.hpp"
#include "debruijn/word.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace {

using namespace dbn;

Word random_word(Rng& rng, std::uint32_t d, std::size_t k) {
  std::vector<Digit> digits(k);
  for (auto& digit : digits) {
    digit = static_cast<Digit>(rng.below(d));
  }
  return Word(d, std::move(digits));
}

// --- ThreadPool -------------------------------------------------------------

TEST(ConcurrencyStressThreadPool, ChunkClaimingCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kTotal = 20000;
  std::vector<std::atomic<std::uint32_t>> seen(kTotal);
  for (int round = 0; round < 10; ++round) {
    for (auto& cell : seen) {
      cell.store(0, std::memory_order_relaxed);
    }
    pool.parallel_for(kTotal, 7, [&](std::size_t begin, std::size_t end,
                                     std::size_t worker) {
      ASSERT_LT(worker, pool.thread_count());
      ASSERT_EQ(ThreadPool::current_worker(), worker);
      for (std::size_t i = begin; i < end; ++i) {
        seen[i].fetch_add(1, std::memory_order_relaxed);
      }
    });
    for (std::size_t i = 0; i < kTotal; ++i) {
      ASSERT_EQ(seen[i].load(std::memory_order_relaxed), 1u) << "index " << i;
    }
  }
}

TEST(ConcurrencyStressThreadPool, FirstExceptionWinsAndWorkersDrain) {
  ThreadPool pool(4);
  for (int round = 0; round < 25; ++round) {
    std::atomic<std::size_t> executed{0};
    try {
      pool.parallel_for(512, 1,
                        [&](std::size_t begin, std::size_t, std::size_t) {
                          executed.fetch_add(1, std::memory_order_relaxed);
                          if (begin % 97 == 13) {
                            throw std::runtime_error("chunk " +
                                                     std::to_string(begin));
                          }
                        });
      FAIL() << "an exception must propagate";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("chunk"), std::string::npos);
    }
    // The pool must be reusable immediately after a failed job.
    std::atomic<std::size_t> after{0};
    pool.parallel_for(64, 4,
                      [&](std::size_t begin, std::size_t end, std::size_t) {
                        after.fetch_add(end - begin,
                                        std::memory_order_relaxed);
                      });
    EXPECT_EQ(after.load(), 64u);
    EXPECT_GT(executed.load(), 0u);
  }
}

TEST(ConcurrencyStressThreadPool, PoolChurnConstructDestroyUnderLoad) {
  for (int round = 0; round < 40; ++round) {
    ThreadPool pool(3);
    std::atomic<std::uint64_t> sum{0};
    pool.parallel_for(1000, 16,
                      [&](std::size_t begin, std::size_t end, std::size_t) {
                        std::uint64_t local = 0;
                        for (std::size_t i = begin; i < end; ++i) {
                          local += i;
                        }
                        sum.fetch_add(local, std::memory_order_relaxed);
                      });
    EXPECT_EQ(sum.load(), 1000ull * 999ull / 2ull);
    // Destructor joins workers with no outstanding job.
  }
}

TEST(ConcurrencyStressThreadPool, IndependentPoolsRunConcurrently) {
  constexpr int kPools = 4;
  std::vector<std::thread> drivers;
  std::atomic<std::uint64_t> grand{0};
  drivers.reserve(kPools);
  for (int p = 0; p < kPools; ++p) {
    drivers.emplace_back([&grand] {
      ThreadPool pool(2);
      for (int round = 0; round < 20; ++round) {
        std::atomic<std::uint64_t> sum{0};
        pool.parallel_for(256, 8,
                          [&](std::size_t begin, std::size_t end,
                              std::size_t) {
                            sum.fetch_add(end - begin,
                                          std::memory_order_relaxed);
                          });
        grand.fetch_add(sum.load(), std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : drivers) {
    t.join();
  }
  EXPECT_EQ(grand.load(), static_cast<std::uint64_t>(kPools) * 20u * 256u);
}

// --- MetricsRegistry --------------------------------------------------------

TEST(ConcurrencyStressMetrics, SnapshotRacesIncrementsThenCountsExactly) {
  obs::MetricsRegistry registry;
  obs::Counter counter = registry.counter("stress.count");
  obs::Histogram histogram = registry.histogram("stress.hist", {1.0, 10.0, 100.0});
  obs::Gauge gauge = registry.gauge("stress.gauge");

  constexpr int kThreads = 4;
  constexpr int kPerThread = 25000;
  std::atomic<bool> stop_snapshots{false};

  // Snapshot continuously while increments are in flight: the snapshot
  // must be a valid cut (monotone counter, count/bucket consistency), and
  // TSan must observe no race between snapshot reads and the updates.
  std::thread snapshotter([&] {
    std::uint64_t last = 0;
    while (!stop_snapshots.load(std::memory_order_acquire)) {
      const obs::MetricsSnapshot snap = registry.snapshot();
      if (const obs::MetricSnapshot* c = snap.find("stress.count")) {
        EXPECT_GE(c->count, last);
        last = c->count;
      }
      if (const obs::MetricSnapshot* h = snap.find("stress.hist")) {
        std::uint64_t total = 0;
        for (const std::uint64_t b : h->buckets) {
          total += b;
        }
        EXPECT_EQ(total, h->count);
      }
    }
  });

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        counter.inc();
        histogram.observe(static_cast<double>((t * kPerThread + i) % 128));
        gauge.set(t);
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  stop_snapshots.store(true, std::memory_order_release);
  snapshotter.join();

  // After the join the totals are exact, not approximate.
  const obs::MetricsSnapshot snap = registry.snapshot();
  const obs::MetricSnapshot* c = snap.find("stress.count");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->count, static_cast<std::uint64_t>(kThreads) * kPerThread);
  const obs::MetricSnapshot* h = snap.find("stress.hist");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(ConcurrencyStressMetrics, ResetRacesIncrementsWithoutCorruption) {
  obs::MetricsRegistry registry;
  obs::Counter counter = registry.counter("reset.count");
  std::atomic<bool> stop{false};
  std::thread resetter([&] {
    while (!stop.load(std::memory_order_acquire)) {
      registry.reset();
    }
  });
  std::vector<std::thread> workers;
  for (int t = 0; t < 3; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < 20000; ++i) {
        counter.inc();
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  stop.store(true, std::memory_order_release);
  resetter.join();
  // The surviving value is some suffix of the increments — bounded, never
  // garbage.
  const obs::MetricsSnapshot snap = registry.snapshot();
  const obs::MetricSnapshot* c = snap.find("reset.count");
  ASSERT_NE(c, nullptr);
  EXPECT_LE(c->count, 3u * 20000u);
}

TEST(ConcurrencyStressMetrics, LateRegistrationRacesTrafficOnOldMetrics) {
  obs::MetricsRegistry registry;
  obs::Counter first = registry.counter("late.first");
  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < 2; ++t) {
    workers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        first.inc();
      }
    });
  }
  // Registering new metrics must not race the in-flight increments on
  // earlier ones.
  std::vector<obs::Counter> extra;
  for (int i = 0; i < 200; ++i) {
    extra.push_back(registry.counter("late.extra." + std::to_string(i)));
    extra.back().inc();
  }
  stop.store(true, std::memory_order_release);
  for (auto& w : workers) {
    w.join();
  }
  const obs::MetricsSnapshot snap = registry.snapshot();
  for (int i = 0; i < 200; ++i) {
    const obs::MetricSnapshot* c = snap.find("late.extra." + std::to_string(i));
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->count, 1u);
  }
}

// --- TraceSink --------------------------------------------------------------

// A sink that counts events and validates them minimally; emit() is called
// from every routing thread concurrently.
class CountingSink : public obs::TraceSink {
 public:
  void emit(const obs::TraceEvent& event) override {
    EXPECT_FALSE(event.name.empty());
    events_.fetch_add(1, std::memory_order_relaxed);
  }
  std::uint64_t events() const {
    return events_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> events_{0};
};

TEST(ConcurrencyStressTrace, SinkFlipsMidRouteNeverCrashOrRace) {
  CountingSink sink;
  std::atomic<bool> stop{false};

  // Router threads: allocation-free engines with the tracing branch in the
  // hot path, racing the toggler below.
  constexpr int kRouters = 3;
  constexpr std::size_t kK = 12;
  std::vector<std::thread> routers;
  routers.reserve(kRouters);
  for (int t = 0; t < kRouters; ++t) {
    routers.emplace_back([&, t] {
      Rng rng(static_cast<std::uint64_t>(t) + 1);
      BidirectionalRouteEngine engine(kK);
      RoutingPath path;
      while (!stop.load(std::memory_order_acquire)) {
        const Word x = random_word(rng, 2, kK);
        const Word y = random_word(rng, 2, kK);
        engine.route_into(x, y, WildcardMode::Concrete, path);
        ASSERT_EQ(path.apply(x), y);
      }
    });
  }

  // Toggler: stress both transition directions and both steady states.
  // Each iteration does a burst of rapid flips (the mid-route transitions
  // TSan must prove safe) and then parks the sink in each state across a
  // yield — on a single-CPU host the routers only run inside the yield
  // windows, so without the parked-enabled window they would never observe
  // a non-null sink. Runs until events demonstrably landed (a fixed flip
  // count can finish before the router threads are even scheduled); the
  // cap keeps a broken build from spinning forever. The sink object stays
  // alive for the whole test, which is the documented lifetime contract.
  std::uint64_t flips = 0;
  while ((flips < 400 || sink.events() < 100) && flips < 40'000) {
    for (int i = 0; i < 16; ++i) {
      obs::set_trace_sink(i % 2 == 0 ? &sink : nullptr);
    }
    obs::set_trace_sink(&sink);
    std::this_thread::yield();
    obs::set_trace_sink(nullptr);
    std::this_thread::yield();
    flips += 18;
  }
  obs::set_trace_sink(nullptr);
  stop.store(true, std::memory_order_release);
  for (auto& t : routers) {
    t.join();
  }
  EXPECT_GT(sink.events(), 0u);
}

// --- BatchRouteEngine -------------------------------------------------------

TEST(ConcurrencyStressBatch, PerWorkerMemoUnderParallelWorkers) {
  BatchRouteOptions options;
  options.threads = 4;
  options.chunk = 16;
  options.cache_entries = 64;  // tiny: 16 slots a worker, constant eviction
  BatchRouteEngine engine(2, 10, options);

  Rng rng(7);
  std::vector<RouteQuery> queries;
  constexpr std::size_t kHot = 24;  // heavy slot contention
  for (std::size_t i = 0; i < kHot; ++i) {
    queries.push_back({random_word(rng, 2, 10), random_word(rng, 2, 10)});
  }
  std::vector<RouteQuery> batch;
  for (std::size_t i = 0; i < 4096; ++i) {
    batch.push_back(queries[i % kHot]);
  }

  const std::vector<RoutingPath> reference = engine.route_batch(batch);
  for (int round = 0; round < 5; ++round) {
    const std::vector<RoutingPath> out = engine.route_batch(batch);
    ASSERT_EQ(out.size(), reference.size());
    for (std::size_t i = 0; i < out.size(); ++i) {
      ASSERT_EQ(out[i], reference[i]) << "query " << i << " round " << round;
    }
    // Every query consulted exactly one worker's memo, and the per-worker
    // counters summed after the join account for all of them.
    ASSERT_EQ(engine.last_stats().cache_lookups, batch.size());
  }
  EXPECT_GT(engine.last_stats().cache_hits, 0u);
}

TEST(ConcurrencyStressBatch, IndependentEnginesShareGlobalMetricsSafely) {
  constexpr int kEngines = 3;
  std::vector<std::thread> drivers;
  drivers.reserve(kEngines);
  for (int e = 0; e < kEngines; ++e) {
    drivers.emplace_back([e] {
      BatchRouteOptions options;
      options.threads = 2;
      options.cache_entries = 32;
      BatchRouteEngine engine(2, 8, options);
      Rng rng(static_cast<std::uint64_t>(e) + 100);
      std::vector<RouteQuery> batch;
      for (std::size_t i = 0; i < 512; ++i) {
        batch.push_back({random_word(rng, 2, 8), random_word(rng, 2, 8)});
      }
      for (int round = 0; round < 4; ++round) {
        const std::vector<RoutingPath> out = engine.route_batch(batch);
        for (std::size_t i = 0; i < out.size(); ++i) {
          ASSERT_EQ(out[i].apply(batch[i].x), batch[i].y);
        }
      }
    });
  }
  for (auto& t : drivers) {
    t.join();
  }
}

// --- LayerTable -------------------------------------------------------------

TEST(ConcurrencyStressLayerTable, ViewCacheUnderCollidingDestinations) {
  const DeBruijnGraph g(2, 8, Orientation::Undirected);
  LayerTableOptions options;
  options.cache_destinations = 8;  // tiny: builds, hits and evictions race
  LayerTable table(g, options);

  constexpr int kThreads = 4;
  constexpr int kRounds = 200;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(static_cast<std::uint64_t>(t) + 900);
      for (int round = 0; round < kRounds; ++round) {
        // A small destination set maximizes slot contention; a pinned view
        // must stay internally consistent however many times its slot is
        // overwritten behind it.
        const std::uint64_t yr = rng.below(16);
        const auto view = table.view(g.word(yr));
        ASSERT_EQ(view->destination(), yr);
        ASSERT_EQ(view->distance(yr), 0);
        const std::uint64_t xr = rng.below(g.vertex_count());
        const int here = view->distance(xr);
        for (const std::uint64_t nr : g.neighbors(xr)) {
          const int there = view->distance(nr);
          ASSERT_LE(there, here + 1);
          ASSERT_GE(there, here - 1);
          (void)view->classify(xr, nr);
        }
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  const LayerTableStats stats = table.stats();
  EXPECT_EQ(stats.lookups, static_cast<std::size_t>(kThreads) * kRounds);
  EXPECT_GE(stats.builds, 16u);
  EXPECT_EQ(stats.builds + stats.hits, stats.lookups);
}

TEST(ConcurrencyStressLayerTable, AdaptiveWalksShareOneTable) {
  // The simulator hands one LayerTable to every in-flight walk; racing
  // whole walks (view pinning + classification under faults) is the
  // production access pattern.
  const DeBruijnGraph g(2, 7, Orientation::Undirected);
  LayerTable table(g);
  std::vector<bool> failed(g.vertex_count(), false);
  failed[3] = failed[17] = failed[64] = true;
  constexpr int kThreads = 3;
  std::vector<std::thread> walkers;
  walkers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    walkers.emplace_back([&, t] {
      Rng rng(static_cast<std::uint64_t>(t) + 1200);
      net::AdaptiveConfig config;
      config.jitter = 0.1;
      config.layers = &table;
      for (int trial = 0; trial < 150; ++trial) {
        const std::uint64_t xr = rng.below(g.vertex_count());
        const std::uint64_t yr = rng.below(g.vertex_count());
        if (failed[xr] || failed[yr]) {
          continue;
        }
        const net::AdaptiveResult r =
            adaptive_route(g, failed, g.word(xr), g.word(yr), rng, config);
        if (r.delivered && r.deflections == 0 && r.sideways_moves == 0) {
          ASSERT_EQ(r.hops, undirected_distance(g.word(xr), g.word(yr)));
        }
      }
    });
  }
  for (auto& w : walkers) {
    w.join();
  }
  EXPECT_GT(table.stats().hits, 0u);
}

// --- RouteServer ------------------------------------------------------------

// Many clients feed concurrently while one thread polls stats() and
// queue_depth() and another begins the drain mid-flight. Under TSan this
// exercises the admission mutex, the per-connection write mutex, the
// dispatcher handoff and the atomic counters all at once; under the
// normal build the exactly-once accounting assertions still bite.
TEST(ConcurrencyStressServe, ConcurrentClientsPollersAndDrain) {
  serve::ServeConfig config;
  config.d = 2;
  config.k = 10;
  config.threads = 2;
  config.cache_entries = 128;
  config.queue_capacity = 64;  // small enough that shedding really happens
  config.max_batch = 16;
  serve::RouteServer server(config);

  constexpr std::size_t kClients = 4;
  constexpr std::uint64_t kPerClient = 400;
  struct ClientState {
    std::mutex mutex;
    std::string bytes;
    std::shared_ptr<serve::Connection> conn;
  };
  std::vector<std::unique_ptr<ClientState>> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    auto state = std::make_unique<ClientState>();
    ClientState* raw = state.get();
    state->conn = server.connect([raw](std::string_view frames) {
      const std::lock_guard<std::mutex> lock(raw->mutex);
      raw->bytes.append(frames);
    });
    clients.push_back(std::move(state));
  }

  std::atomic<bool> stop_polling{false};
  std::thread poller([&server, &stop_polling] {
    while (!stop_polling.load(std::memory_order_acquire)) {
      const serve::ServeStats stats = server.stats();
      ASSERT_GE(stats.requests, stats.responses_ok);
      (void)server.queue_depth();
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> feeders;
  feeders.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    feeders.emplace_back([&, c] {
      Rng rng(static_cast<std::uint64_t>(c) + 500);
      std::string frame;
      for (std::uint64_t i = 0; i < kPerClient; ++i) {
        frame.clear();
        serve::encode_route_request(
            (static_cast<std::uint64_t>(c) << 48) | i,
            random_word(rng, config.d, config.k),
            random_word(rng, config.d, config.k), frame);
        ASSERT_TRUE(clients[c]->conn->feed(frame));
      }
    });
  }
  for (auto& t : feeders) {
    t.join();
  }
  server.begin_drain();
  server.wait_drained();
  stop_polling.store(true, std::memory_order_release);
  poller.join();

  // Every admitted request was answered exactly once, across all clients.
  const serve::ServeStats stats = server.stats();
  EXPECT_EQ(stats.requests, kClients * kPerClient);
  EXPECT_EQ(stats.responses_ok + stats.rejected_overload +
                stats.rejected_draining,
            kClients * kPerClient);
  std::size_t total_frames = 0;
  for (const auto& client : clients) {
    serve::FrameReader reader;
    const std::lock_guard<std::mutex> lock(client->mutex);
    reader.feed(client->bytes);
    std::string payload;
    while (reader.next(payload) == serve::FrameReader::Result::Frame) {
      ++total_frames;
    }
    ASSERT_EQ(reader.pending_bytes(), 0u);
  }
  EXPECT_EQ(total_frames, kClients * kPerClient);
}

TEST(ConcurrencyStressBatch, DistanceBatchMatchesRouteLengths) {
  BatchRouteOptions options;
  options.threads = 4;
  options.chunk = 32;
  BatchRouteEngine engine(3, 7, options);
  Rng rng(11);
  std::vector<RouteQuery> batch;
  for (std::size_t i = 0; i < 2048; ++i) {
    batch.push_back({random_word(rng, 3, 7), random_word(rng, 3, 7)});
  }
  const std::vector<int> distances = engine.distance_batch(batch);
  const std::vector<RoutingPath> paths = engine.route_batch(batch);
  ASSERT_EQ(distances.size(), paths.size());
  for (std::size_t i = 0; i < paths.size(); ++i) {
    ASSERT_EQ(static_cast<std::size_t>(distances[i]), paths[i].length());
  }
}

}  // namespace

// BatchRouteEngine: the parallel batch path must be bit-for-bit identical
// to the sequential engines it wraps — for both backends, every thread
// count and every memo configuration.
#include <gtest/gtest.h>

#include <vector>

#include "common/contract.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/batch_route_engine.hpp"
#include "core/distance.hpp"
#include "core/route_engine.hpp"
#include "core/routers.hpp"
#include "testing_util.hpp"

namespace dbn {
namespace {

std::vector<RouteQuery> all_pairs(std::uint32_t d, std::size_t k) {
  const std::uint64_t n = Word::vertex_count(d, k);
  std::vector<RouteQuery> queries;
  queries.reserve(n * n);
  for (std::uint64_t i = 0; i < n; ++i) {
    for (std::uint64_t j = 0; j < n; ++j) {
      queries.push_back(
          RouteQuery{Word::from_rank(d, k, i), Word::from_rank(d, k, j)});
    }
  }
  return queries;
}

std::vector<RouteQuery> random_queries(Rng& rng, std::uint32_t d,
                                       std::size_t k, std::size_t count) {
  std::vector<RouteQuery> queries;
  queries.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    queries.push_back(RouteQuery{testing::random_word(rng, d, k),
                                 testing::random_word(rng, d, k)});
  }
  return queries;
}

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.thread_count(), threads);
    std::vector<std::atomic<int>> seen(1000);
    pool.parallel_for(seen.size(), 7,
                      [&seen](std::size_t begin, std::size_t end,
                              std::size_t worker) {
                        ASSERT_LT(worker, 3u);
                        for (std::size_t i = begin; i < end; ++i) {
                          seen[i].fetch_add(1);
                        }
                      });
    for (const auto& count : seen) {
      EXPECT_EQ(count.load(), 1);
    }
  }
}

TEST(ThreadPool, PropagatesTheFirstException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(100, 1,
                        [](std::size_t begin, std::size_t, std::size_t) {
                          if (begin == 42) {
                            throw std::runtime_error("chunk 42");
                          }
                        }),
      std::runtime_error);
  // The pool survives a failed loop and can run again.
  std::atomic<std::size_t> total{0};
  pool.parallel_for(64, 8,
                    [&total](std::size_t begin, std::size_t end, std::size_t) {
                      total.fetch_add(end - begin);
                    });
  EXPECT_EQ(total.load(), 64u);
}

// Determinism on the full small grid: the batch engine's bidirectional
// backend must reproduce the sequential BidirectionalRouteEngine exactly,
// pair by pair, for all d^k * d^k pairs of DG(2,4).
TEST(BatchRouteEngine, MatchesSequentialEngineOnFullSmallGrid) {
  const std::uint32_t d = 2;
  const std::size_t k = 4;
  const std::vector<RouteQuery> queries = all_pairs(d, k);
  BatchRouteEngine batch(d, k,
                         BatchRouteOptions{.threads = 4, .chunk = 16});
  const std::vector<RoutingPath> paths = batch.route_batch(queries);
  ASSERT_EQ(paths.size(), queries.size());
  BidirectionalRouteEngine sequential(k);
  RoutingPath expected;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    sequential.route_into(queries[i].x, queries[i].y, WildcardMode::Concrete,
                          expected);
    EXPECT_EQ(paths[i], expected)
        << "X=" << queries[i].x.to_string()
        << " Y=" << queries[i].y.to_string();
    EXPECT_EQ(paths[i].apply(queries[i].x), queries[i].y);
  }
}

// Thread-count sweep: 1, 2 and 8 threads must give identical batches
// (and identical distances), with or without the memo.
TEST(BatchRouteEngine, ThreadCountSweepIsDeterministic) {
  const std::uint32_t d = 3;
  const std::size_t k = 6;
  Rng rng(20260806);
  const std::vector<RouteQuery> queries = random_queries(rng, d, k, 600);
  BatchRouteEngine reference(d, k, BatchRouteOptions{.threads = 1});
  const std::vector<RoutingPath> expected = reference.route_batch(queries);
  const std::vector<int> expected_dist = reference.distance_batch(queries);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    for (const std::size_t cache : {std::size_t{0}, std::size_t{128}}) {
      BatchRouteEngine engine(
          d, k,
          BatchRouteOptions{
              .threads = threads, .chunk = 32, .cache_entries = cache});
      EXPECT_EQ(engine.thread_count(), threads);
      EXPECT_EQ(engine.route_batch(queries), expected)
          << "threads=" << threads << " cache=" << cache;
      EXPECT_EQ(engine.distance_batch(queries), expected_dist);
    }
  }
}

// Every backend agrees with its sequential counterpart and with the exact
// distances.
TEST(BatchRouteEngine, BackendsMatchTheirSequentialCounterparts) {
  const std::uint32_t d = 2;
  const std::size_t k = 5;
  Rng rng(99);
  const std::vector<RouteQuery> queries = random_queries(rng, d, k, 200);
  for (const BatchBackend backend :
       {BatchBackend::Alg1Directed, BatchBackend::BidiEngine}) {
    BatchRouteEngine engine(
        d, k, BatchRouteOptions{.backend = backend, .threads = 2, .chunk = 8});
    const std::vector<RoutingPath> paths = engine.route_batch(queries);
    const std::vector<int> dists = engine.distance_batch(queries);
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const Word& x = queries[i].x;
      const Word& y = queries[i].y;
      EXPECT_EQ(paths[i].apply(x), y) << batch_backend_name(backend);
      const int exact = backend == BatchBackend::Alg1Directed
                            ? directed_distance(x, y)
                            : undirected_distance(x, y);
      EXPECT_EQ(static_cast<int>(paths[i].length()), exact)
          << batch_backend_name(backend);
      EXPECT_EQ(dists[i], exact) << batch_backend_name(backend);
    }
  }
}

// Memo-hit correctness: a batch of repeated pairs must hit the per-worker
// memos and still return the exact same paths as a cold engine.
TEST(BatchRouteEngine, CacheHitsReturnIdenticalPaths) {
  const std::uint32_t d = 2;
  const std::size_t k = 8;
  Rng rng(7);
  // 16 distinct flows repeated 64 times each.
  std::vector<RouteQuery> flows = random_queries(rng, d, k, 16);
  std::vector<RouteQuery> queries;
  for (int repeat = 0; repeat < 64; ++repeat) {
    queries.insert(queries.end(), flows.begin(), flows.end());
  }
  BatchRouteEngine cold(d, k, BatchRouteOptions{.threads = 2});
  BatchRouteEngine cached(
      d, k, BatchRouteOptions{.threads = 2, .cache_entries = 256});
  ASSERT_TRUE(cached.cache_enabled());
  const std::vector<RoutingPath> expected = cold.route_batch(queries);
  const std::vector<RoutingPath> actual = cached.route_batch(queries);
  EXPECT_EQ(actual, expected);
  const BatchStats& stats = cached.last_stats();
  EXPECT_EQ(stats.queries, queries.size());
  EXPECT_EQ(stats.cache_lookups, queries.size());
  // Each worker computes a flow once before its own memo can serve it, and
  // a direct-mapped collision keeps both pairs of a slot missing, so bound
  // from below by a comfortable margin rather than the exact 16 * 63.
  EXPECT_GE(stats.cache_hits, queries.size() / 2);
  EXPECT_LT(stats.cache_hits, queries.size());
}

// A second batch through the same warmed cache is served from it.
TEST(BatchRouteEngine, WarmCacheServesRepeatBatches) {
  const std::uint32_t d = 2;
  const std::size_t k = 6;
  Rng rng(11);
  const std::vector<RouteQuery> queries = random_queries(rng, d, k, 32);
  BatchRouteEngine engine(
      d, k, BatchRouteOptions{.threads = 1, .cache_entries = 4096});
  const std::vector<RoutingPath> first = engine.route_batch(queries);
  const std::vector<RoutingPath> second = engine.route_batch(queries);
  EXPECT_EQ(first, second);
  // With 4096 direct-mapped slots for 32 pairs, collisions are unlikely
  // but possible; almost all of the second batch must be hits.
  EXPECT_GE(engine.last_stats().cache_hits, queries.size() - 4);
}

TEST(BatchRouteEngine, SingleQueryBatchHitsTheMemoAndValidatesQueries) {
  const std::uint32_t d = 2;
  const std::size_t k = 4;
  BatchRouteEngine engine(
      d, k, BatchRouteOptions{.threads = 1, .cache_entries = 16});
  const Word x(2, {0, 1, 1, 0});
  const Word y(2, {1, 0, 0, 1});
  const RoutingPath path = engine.route_batch({RouteQuery{x, y}})[0];
  // The packed kernel may pick a different Theorem 2 witness than the
  // scalar scan, so compare by optimality and validity, not hop-for-hop.
  EXPECT_EQ(path.length(), route_bidirectional_mp(x, y).length());
  EXPECT_EQ(path.apply(x), y);
  // The second batch is served by the memo with the identical path.
  EXPECT_EQ(engine.route_batch({RouteQuery{x, y}})[0], path);
  EXPECT_EQ(engine.last_stats().cache_hits, 1u);
  EXPECT_THROW(engine.route_batch({RouteQuery{Word(2, {0, 1, 1}), y}}),
               ContractViolation);
  EXPECT_THROW(engine.route_batch({RouteQuery{Word(3, {0, 1, 1, 2}), y}}),
               ContractViolation);
  EXPECT_THROW(engine.route_batch({RouteQuery{Word(2, {0, 1}), y}}),
               ContractViolation);
}

TEST(BatchRouteEngine, WildcardModeFlowsThroughToThePaths) {
  const std::uint32_t d = 2;
  const std::size_t k = 5;
  Rng rng(5);
  const std::vector<RouteQuery> queries = random_queries(rng, d, k, 100);
  BatchRouteEngine engine(
      d, k,
      BatchRouteOptions{.threads = 2,
                        .wildcard_mode = WildcardMode::Wildcards});
  const std::vector<RoutingPath> paths = engine.route_batch(queries);
  bool saw_wildcard = false;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const RoutingPath expected = route_bidirectional_mp(
        queries[i].x, queries[i].y, WildcardMode::Wildcards);
    // Same optimal length; the witness (and so the wildcard placement)
    // may differ between the packed and scalar kernels.
    EXPECT_EQ(paths[i].length(), expected.length());
    EXPECT_EQ(paths[i].apply(queries[i].x), queries[i].y);
    saw_wildcard = saw_wildcard || paths[i].has_wildcards();
  }
  // The mode must actually reach the per-worker engines: across 100
  // random pairs at least one optimal plan has an arbitrary digit.
  EXPECT_TRUE(saw_wildcard);
}

}  // namespace
}  // namespace dbn

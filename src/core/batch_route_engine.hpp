// Parallel batch routing over one network DG(d,k) — the paper's O(k)
// per-query cost (Algorithms 1 and 4) turned into a throughput engine.
//
// The paper's closing argument is that de Bruijn routing is cheap enough
// to compute per message instead of per table; the realistic regime for
// that claim is bulk traffic (all-to-all and many-to-many workloads, as in
// the distance-layer and all-to-all analyses of PAPERS.md). This engine
// routes large query batches with:
//
//   - a chunked thread pool (common/thread_pool.hpp) — queries are
//     independent, so the batch splits into dynamically scheduled chunks;
//   - per-worker scratch arenas — each worker owns a
//     BidirectionalRouteEngine (the diagonal pass up to k = 32, the seeded
//     kernel past it) and writes paths in place, so the hot path performs
//     no per-query allocation beyond growing the caller-visible output
//     paths; route_batch_into and distance_batch_into write into the
//     caller's warmed paths and distances, so a caller that keeps those
//     (the serve dispatcher) allocates nothing per batch;
//   - two backends — Algorithm 1 (directed) and Theorem 2 through the
//     allocation-free engine (undirected);
//   - an optional memo keyed on (X, Y) for workloads with repeated pairs
//     (hot flows): a direct-mapped table in each worker's arena, so a
//     lookup is one hash and one compare and takes no lock. The
//     cache_entries budget is split evenly across the workers.
//
// Results are bit-for-bit deterministic in the batch: out[i] depends only
// on queries[i] and the backend, never on the thread count, chunk size or
// memo state (every backend is a deterministic function, and a memo only
// ever returns what that function produced earlier).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "core/path.hpp"
#include "core/path_builder.hpp"
#include "core/route_engine.hpp"
#include "debruijn/word.hpp"
#include "obs/metrics.hpp"

namespace dbn {

class ThreadPool;

/// Which routing computation answers each query of the batch.
enum class BatchBackend {
  Alg1Directed,  // Algorithm 1: directed DG(d,k), left shifts only
  BidiEngine,    // Theorem 2 via the allocation-free route engine
};

std::string_view batch_backend_name(BatchBackend backend);

struct BatchRouteOptions {
  BatchBackend backend = BatchBackend::BidiEngine;
  /// Worker threads (the caller counts as one); 0 = hardware concurrency.
  std::size_t threads = 0;
  /// Queries per scheduling quantum of the pool.
  std::size_t chunk = 256;
  /// Total memo entries across all workers, ⌈cache_entries / threads⌉ per
  /// worker; 0 disables the memo.
  std::size_t cache_entries = 0;
  /// How the bi-directional backend emits the arbitrary digits.
  WildcardMode wildcard_mode = WildcardMode::Concrete;
  /// When false, per-query route/hop spans are suppressed inside the batch
  /// loops (the engine's own batch/chunk spans still fire). The serving
  /// path turns this off: with a trace sink installed for sampled
  /// per-request spans, every routed query would otherwise pay the full
  /// per-hop tracer.
  bool trace_routes = true;
};

/// One source/destination pair; both words must be vertices of DG(d,k).
struct RouteQuery {
  Word x;
  Word y;
};

/// Counters from the last route_batch/distance_batch call.
struct BatchStats {
  std::size_t queries = 0;
  std::size_t cache_lookups = 0;
  std::size_t cache_hits = 0;
  /// Stores that overwrote a live entry for a *different* pair (direct-
  /// mapped collisions). Refreshing the same pair does not count.
  std::size_t cache_evictions = 0;
  std::size_t threads = 0;
};

class BatchRouteEngine {
 public:
  /// An engine for DG(d,k).
  BatchRouteEngine(std::uint32_t d, std::size_t k,
                   const BatchRouteOptions& options = {});
  ~BatchRouteEngine();

  BatchRouteEngine(const BatchRouteEngine&) = delete;
  BatchRouteEngine& operator=(const BatchRouteEngine&) = delete;

  /// Routes queries[i] into out[i] (resized to match). Deterministic:
  /// independent of thread count and memo state.
  void route_batch_into(std::span<const RouteQuery> queries,
                        std::vector<RoutingPath>& out);

  /// The same into caller-sized paths (out.size() == queries.size()), such
  /// as a prefix of a longer vector whose paths keep their hop storage
  /// from batch to batch.
  void route_batch_into(std::span<const RouteQuery> queries,
                        std::span<RoutingPath> out);

  /// Convenience wrapper over route_batch_into.
  std::vector<RoutingPath> route_batch(const std::vector<RouteQuery>& queries);

  /// Distances only (no path construction, no memo) into out[i] (resized
  /// to match, so a warmed vector is written in place).
  void distance_batch_into(std::span<const RouteQuery> queries,
                           std::vector<int>& out);

  /// Convenience wrapper over distance_batch_into.
  std::vector<int> distance_batch(const std::vector<RouteQuery>& queries);

  std::uint32_t radix() const { return d_; }
  std::size_t k() const { return k_; }
  BatchBackend backend() const { return options_.backend; }
  std::size_t thread_count() const;
  bool cache_enabled() const { return options_.cache_entries > 0; }

  const BatchStats& last_stats() const { return stats_; }

 private:
  // Direct-mapped memo entry; `filled` distinguishes the empty slot from
  // a real (X, Y) -> path mapping.
  struct MemoEntry {
    bool filled = false;
    std::uint64_t hash = 0;
    Word x{1, {0}};
    Word y{1, {0}};
    RoutingPath path;
  };

  // One worker's reusable state: the allocation-free route engine and its
  // own memo. Inside parallel_for only that worker touches it, so the memo
  // takes no lock and the counters are plain; route_batch_into sums them
  // after the join. Cache-line aligned so one worker's counter writes do
  // not invalidate a neighbour's arena.
  struct alignas(64) Scratch {
    Scratch(std::size_t max_k, std::size_t memo_slots)
        : engine(max_k), memo(memo_slots) {}
    BidirectionalRouteEngine engine;
    std::vector<MemoEntry> memo;
    std::size_t lookups = 0;
    std::size_t hits = 0;
    std::size_t evictions = 0;
  };

  void validate(const RouteQuery& query) const;
  void compute_route(const RouteQuery& query, Scratch& scratch,
                     RoutingPath& out) const;
  void memo_route(const RouteQuery& query, Scratch& scratch,
                  RoutingPath& out) const;
  int compute_distance(const RouteQuery& query, Scratch& scratch) const;
  static std::uint64_t pair_hash(const Word& x, const Word& y);

  std::uint32_t d_;
  std::size_t k_;
  BatchRouteOptions options_;
  std::unique_ptr<ThreadPool> pool_;
  std::vector<std::unique_ptr<Scratch>> scratch_;
  BatchStats stats_;
  // Mirrors of the batch counters in the global registry (folded in once
  // per batch, not per query, to keep the hot loop untouched).
  obs::Counter metrics_queries_;
  obs::Counter metrics_cache_lookups_;
  obs::Counter metrics_cache_hits_;
  obs::Counter metrics_cache_evictions_;
  obs::Counter metrics_batches_;
};

}  // namespace dbn

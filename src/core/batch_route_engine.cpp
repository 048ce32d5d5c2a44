#include "core/batch_route_engine.hpp"

#include <optional>

#include "common/contract.hpp"
#include "common/thread_pool.hpp"
#include "core/distance.hpp"
#include "core/routers.hpp"
#include "obs/trace.hpp"

namespace dbn {

std::string_view batch_backend_name(BatchBackend backend) {
  switch (backend) {
    case BatchBackend::Alg1Directed:
      return "alg1-directed";
    case BatchBackend::BidiEngine:
      return "bidi-engine";
  }
  DBN_ASSERT(false, "unknown batch backend");
  return "";
}

BatchRouteEngine::BatchRouteEngine(std::uint32_t d, std::size_t k,
                                   const BatchRouteOptions& options)
    : d_(d), k_(k), options_(options) {
  DBN_REQUIRE(d_ >= 1, "batch engine needs radix >= 1");
  DBN_REQUIRE(k_ >= 1, "batch engine needs k >= 1");
  pool_ = std::make_unique<ThreadPool>(options_.threads);
  const std::size_t workers = pool_->thread_count();
  // ⌈cache_entries / workers⌉, without overflow near SIZE_MAX.
  const std::size_t memo_slots = options_.cache_entries / workers +
                                 (options_.cache_entries % workers != 0);
  scratch_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    scratch_.push_back(std::make_unique<Scratch>(k_, memo_slots));
  }
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  metrics_queries_ = registry.counter("batch.queries");
  metrics_cache_lookups_ = registry.counter("batch.cache_lookups");
  metrics_cache_hits_ = registry.counter("batch.cache_hits");
  metrics_cache_evictions_ = registry.counter("batch.cache_evictions");
  metrics_batches_ = registry.counter("batch.runs");
}

BatchRouteEngine::~BatchRouteEngine() = default;

std::size_t BatchRouteEngine::thread_count() const {
  return pool_->thread_count();
}

void BatchRouteEngine::validate(const RouteQuery& query) const {
  DBN_REQUIRE(query.x.radix() == d_ && query.y.radix() == d_,
              "query words must use the engine's radix");
  DBN_REQUIRE(query.x.length() == k_ && query.y.length() == k_,
              "query words must have the engine's length k");
}

std::uint64_t BatchRouteEngine::pair_hash(const Word& x, const Word& y) {
  const std::size_t hx = std::hash<Word>{}(x);
  const std::size_t hy = std::hash<Word>{}(y);
  // Asymmetric mix so (X, Y) and (Y, X) land in different slots.
  std::uint64_t h = static_cast<std::uint64_t>(hx) * 0x9e3779b97f4a7c15ull;
  h ^= static_cast<std::uint64_t>(hy) + 0xbf58476d1ce4e5b9ull + (h << 6) +
       (h >> 2);
  return h;
}

void BatchRouteEngine::compute_route(const RouteQuery& query, Scratch& scratch,
                                     RoutingPath& out) const {
  switch (options_.backend) {
    case BatchBackend::Alg1Directed:
      out = route_unidirectional(query.x, query.y);
      return;
    case BatchBackend::BidiEngine:
      scratch.engine.route_into(query.x, query.y, options_.wildcard_mode, out);
      return;
  }
  DBN_ASSERT(false, "unknown batch backend");
}

void BatchRouteEngine::memo_route(const RouteQuery& query, Scratch& scratch,
                                  RoutingPath& out) const {
  ++scratch.lookups;
  const std::uint64_t hash = pair_hash(query.x, query.y);
  MemoEntry& entry = scratch.memo[hash % scratch.memo.size()];
  if (entry.filled && entry.hash == hash && entry.x == query.x &&
      entry.y == query.y) {
    ++scratch.hits;
    out = entry.path;
    return;
  }
  compute_route(query, scratch, out);
  // A miss on a filled slot means it held a different pair.
  if (entry.filled) {
    ++scratch.evictions;
  }
  entry.filled = true;
  entry.hash = hash;
  entry.x = query.x;
  entry.y = query.y;
  entry.path = out;
}

int BatchRouteEngine::compute_distance(const RouteQuery& query,
                                       Scratch& scratch) const {
  switch (options_.backend) {
    case BatchBackend::Alg1Directed:
      return directed_distance(query.x, query.y);
    case BatchBackend::BidiEngine:
      return scratch.engine.distance(query.x, query.y);
  }
  DBN_ASSERT(false, "unknown batch backend");
  return -1;
}

void BatchRouteEngine::route_batch_into(const std::vector<RouteQuery>& queries,
                                        std::vector<RoutingPath>& out) {
  out.resize(queries.size());
  for (const std::unique_ptr<Scratch>& scratch : scratch_) {
    scratch->lookups = 0;
    scratch->hits = 0;
    scratch->evictions = 0;
  }
  // When a sink is registered each chunk runs on its worker's lane and is
  // bracketed by a wall-clock span, making the pool's parallelism visible
  // as per-worker tracks in the Chrome export. When off: one branch.
  const bool traced = obs::tracing_enabled();
  obs::Span batch_span;
  if (traced) {
    batch_span = obs::Span::begin("route_batch", "batch",
                                  obs::TraceClock::Wall, obs::wall_ts_micros());
    batch_span.arg(obs::targ("backend", batch_backend_name(options_.backend)))
        .arg(obs::targ("queries", static_cast<std::uint64_t>(queries.size())))
        .arg(obs::targ("threads",
                       static_cast<std::uint64_t>(pool_->thread_count())));
  }
  pool_->parallel_for(
      queries.size(), options_.chunk,
      [this, traced, &queries, &out](std::size_t begin, std::size_t end,
                                     std::size_t worker) {
        Scratch& scratch = *scratch_[worker];
        obs::Span chunk_span;
        std::unique_ptr<obs::LaneScope> lane;
        if (traced) {
          lane = std::make_unique<obs::LaneScope>(worker);
          chunk_span = obs::Span::begin("chunk", "batch", obs::TraceClock::Wall,
                                        obs::wall_ts_micros());
          chunk_span.arg(obs::targ("begin", static_cast<std::uint64_t>(begin)))
              .arg(obs::targ("end", static_cast<std::uint64_t>(end)))
              .arg(obs::targ("worker", static_cast<std::uint64_t>(worker)));
        }
        std::optional<obs::TraceSuppressScope> suppress;
        if (!options_.trace_routes) {
          suppress.emplace();  // on this worker, for this chunk only
        }
        for (std::size_t i = begin; i < end; ++i) {
          validate(queries[i]);
          if (scratch.memo.empty()) {
            compute_route(queries[i], scratch, out[i]);
          } else {
            memo_route(queries[i], scratch, out[i]);
          }
        }
        if (chunk_span) {
          chunk_span.end(obs::wall_ts_micros());
        }
      });
  if (batch_span) {
    batch_span.end(obs::wall_ts_micros());
  }
  // parallel_for has joined: every worker's counters are final.
  stats_ = BatchStats{queries.size(), 0, 0, 0, pool_->thread_count()};
  for (const std::unique_ptr<Scratch>& scratch : scratch_) {
    stats_.cache_lookups += scratch->lookups;
    stats_.cache_hits += scratch->hits;
    stats_.cache_evictions += scratch->evictions;
  }
  metrics_batches_.inc();
  metrics_queries_.inc(stats_.queries);
  metrics_cache_lookups_.inc(stats_.cache_lookups);
  metrics_cache_hits_.inc(stats_.cache_hits);
  metrics_cache_evictions_.inc(stats_.cache_evictions);
}

std::vector<RoutingPath> BatchRouteEngine::route_batch(
    const std::vector<RouteQuery>& queries) {
  std::vector<RoutingPath> out;
  route_batch_into(queries, out);
  return out;
}

std::vector<int> BatchRouteEngine::distance_batch(
    const std::vector<RouteQuery>& queries) {
  std::vector<int> out(queries.size(), -1);
  pool_->parallel_for(
      queries.size(), options_.chunk,
      [this, &queries, &out](std::size_t begin, std::size_t end,
                             std::size_t worker) {
        Scratch& scratch = *scratch_[worker];
        std::optional<obs::TraceSuppressScope> suppress;
        if (!options_.trace_routes) {
          suppress.emplace();
        }
        for (std::size_t i = begin; i < end; ++i) {
          validate(queries[i]);
          out[i] = compute_distance(queries[i], scratch);
        }
      });
  stats_ = BatchStats{queries.size(), 0, 0, 0, pool_->thread_count()};
  metrics_batches_.inc();
  metrics_queries_.inc(stats_.queries);
  return out;
}

}  // namespace dbn

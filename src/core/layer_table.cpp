#include "core/layer_table.hpp"

#include "common/schema.hpp"
#include "core/distance.hpp"

namespace dbn {

namespace {

/// splitmix64 finalizer — spreads consecutive destination ranks across
/// slots.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

LayerTable::LayerTable(const DeBruijnGraph& graph,
                       const LayerTableOptions& options)
    : graph_(graph),
      slot_count_(options.cache_destinations),
      slots_(slot_count_) {
  DBN_REQUIRE(graph.orientation() == Orientation::Undirected,
              "layer table: tables hold the undirected distance");
  // The cap also keeps k <= 20 for d >= 2 (d = 1 is one vertex at
  // distance 0), so a byte holds every entry.
  DBN_REQUIRE(graph.vertex_count() <= kMaxVertices,
              "layer table: network too large for dense per-destination "
              "tables");
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  metrics_lookups_ = registry.counter(schema::metric::kLayerLookups);
  metrics_hits_ = registry.counter(schema::metric::kLayerHits);
  metrics_builds_ = registry.counter(schema::metric::kLayerBuilds);
  metrics_evictions_ = registry.counter(schema::metric::kLayerEvictions);
}

std::shared_ptr<const LayerTable::View> LayerTable::build_view(
    std::uint64_t destination) const {
  auto view = std::make_shared<View>();
  view->destination_ = destination;
  view->dist_.resize(graph_.vertex_count());
  const Word y = graph_.word(destination);
  for (std::uint64_t v = 0; v < graph_.vertex_count(); ++v) {
    view->dist_[v] =
        static_cast<std::uint8_t>(undirected_distance(graph_.word(v), y));
  }
  DBN_ENSURE(view->dist_[destination] == 0,
             "layer table: destination must be in layer 0 of itself");
  return view;
}

std::shared_ptr<const LayerTable::View> LayerTable::view(const Word& y) {
  DBN_REQUIRE(y.radix() == graph_.radix() && y.length() == graph_.k(),
              "layer table: word does not belong to this network");
  const std::uint64_t destination = y.rank();
  lookups_.fetch_add(1, std::memory_order_relaxed);
  metrics_lookups_.inc();
  if (slot_count_ == 0) {
    builds_.fetch_add(1, std::memory_order_relaxed);
    metrics_builds_.inc();
    return build_view(destination);
  }
  const std::size_t slot = mix(destination) % slot_count_;
  {
    const MutexLock lock(mutex_);
    const std::shared_ptr<const View>& cached = slots_[slot];
    if (cached != nullptr && cached->destination() == destination) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      metrics_hits_.inc();
      return cached;
    }
  }
  // Build outside the lock: an O(N k) fill must not stall other lookups.
  // A racing builder of the same destination produces an identical table;
  // last store wins and both callers hold valid views.
  std::shared_ptr<const View> built = build_view(destination);
  builds_.fetch_add(1, std::memory_order_relaxed);
  metrics_builds_.inc();
  {
    const MutexLock lock(mutex_);
    std::shared_ptr<const View>& slot_ref = slots_[slot];
    if (slot_ref != nullptr && slot_ref->destination() != destination) {
      evictions_.fetch_add(1, std::memory_order_relaxed);
      metrics_evictions_.inc();
    }
    slot_ref = built;
  }
  return built;
}

LayerTableStats LayerTable::stats() const {
  LayerTableStats stats;
  stats.lookups = lookups_.load(std::memory_order_relaxed);
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.builds = builds_.load(std::memory_order_relaxed);
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace dbn

#include "net/adaptive.hpp"

#include <algorithm>
#include <memory>

#include "common/contract.hpp"
#include "core/distance.hpp"
#include "obs/trace.hpp"

namespace dbn::net {

int adaptive_ttl(int ttl, std::size_t k) {
  return ttl > 0 ? ttl : std::max(4 * static_cast<int>(k), 8);
}

std::optional<AdaptiveHop> adaptive_hop(
    const DeBruijnGraph& graph, const std::vector<bool>& failed,
    std::uint64_t at, std::uint64_t previous, const Word& y,
    const LayerTable::View* view, const AdaptiveConfig& config, Rng& rng) {
  const auto distance_to_y = [&](std::uint64_t r) {
    return view != nullptr ? view->distance(r)
                           : undirected_distance(graph.word(r), y);
  };
  const int here = distance_to_y(at);
  std::vector<std::uint64_t> closer;
  std::vector<std::uint64_t> same;
  std::vector<std::uint64_t> farther;
  for (const std::uint64_t r : graph.neighbors(at)) {
    if (failed[r]) {
      continue;
    }
    const int dist = distance_to_y(r);
    if (dist < here) {
      closer.push_back(r);
    } else if (dist == here) {
      same.push_back(r);
    } else {
      DBN_ASSERT(dist == here + 1,
                 "the undirected metric puts every Farther neighbor one "
                 "layer out");
      if (config.deflect) {
        farther.push_back(r);
      }
    }
  }
  const auto pick = [&](const std::vector<std::uint64_t>& pool,
                        DistanceLayer move) {
    return AdaptiveHop{pool[rng.below(pool.size())], move, here};
  };
  if (!closer.empty() && (same.empty() || !rng.chance(config.jitter))) {
    return pick(closer, DistanceLayer::Closer);
  }
  if (!same.empty()) {
    return pick(same, DistanceLayer::Same);
  }
  if (farther.empty()) {
    return std::nullopt;  // stuck: every live neighbor is dead or none exist
  }
  // Deflect, but never straight back to where we came from when any
  // other escape exists (neighbors are distinct, so erasing leaves one).
  if (farther.size() > 1) {
    std::erase(farther, previous);
  }
  return pick(farther, DistanceLayer::Farther);
}

AdaptiveResult adaptive_route(const DeBruijnGraph& graph,
                              const std::vector<bool>& failed, const Word& x,
                              const Word& y, Rng& rng,
                              const AdaptiveConfig& config) {
  DBN_REQUIRE(failed.size() == graph.vertex_count(),
              "failed mask size must equal the vertex count");
  DBN_REQUIRE(x.radix() == graph.radix() && x.length() == graph.k() &&
                  y.radix() == graph.radix() && y.length() == graph.k(),
              "route endpoints must belong to the graph");
  DBN_REQUIRE(!failed[x.rank()] && !failed[y.rank()],
              "adaptive_route endpoints must be live");
  DBN_REQUIRE(graph.orientation() == Orientation::Undirected,
              "adaptive routing uses the bi-directional distance function");
  DBN_REQUIRE(config.layers == nullptr ||
                  config.layers->vertex_count() == graph.vertex_count(),
              "layer table must cover the routed graph");

  // One cache interaction per walk: the destination's view is pinned here
  // and every per-hop decision below is plain array reads.
  const std::shared_ptr<const LayerTable::View> view =
      config.layers != nullptr ? config.layers->view(y) : nullptr;
  const int ttl = adaptive_ttl(config.ttl, graph.k());
  AdaptiveResult result;
  obs::Span span;
  if (obs::tracing_enabled()) {
    span = obs::Span::begin("adaptive_route", "adaptive",
                            obs::TraceClock::Logical, 0.0);
    span.arg(obs::targ("x", x.to_string()))
        .arg(obs::targ("y", y.to_string()))
        .arg(obs::targ("ttl", ttl))
        .arg(obs::targ("scoring", view != nullptr ? "layer-table" : "rescore"));
  }
  const auto undelivered = [&](const char* reason) {
    if (span) {
      span.arg(obs::targ("delivered", "false"))
          .arg(obs::targ("reason", reason));
      span.end(static_cast<double>(result.hops));
    }
    return result;
  };
  const std::uint64_t target = y.rank();
  std::uint64_t at = x.rank();
  std::uint64_t previous = graph.vertex_count();  // sentinel: no previous
  while (at != target) {
    if (result.hops >= ttl) {
      return undelivered("ttl");
    }
    const std::optional<AdaptiveHop> hop =
        adaptive_hop(graph, failed, at, previous, y, view.get(), config, rng);
    if (!hop.has_value()) {
      return undelivered("stuck");
    }
    previous = at;
    at = hop->next;
    ++result.hops;
    result.sideways_moves += hop->move == DistanceLayer::Same;
    result.deflections += hop->move == DistanceLayer::Farther;
    if (span) {
      const char* move = hop->move == DistanceLayer::Farther ? "deflect"
                         : hop->move == DistanceLayer::Same  ? "sideways"
                                                             : "improve";
      span.instant("hop", static_cast<double>(result.hops - 1),
                   {obs::targ("to", graph.word(at).to_string()),
                    obs::targ("move", move), obs::targ("dist", hop->here)});
    }
  }
  result.delivered = true;
  if (span) {
    span.arg(obs::targ("delivered", "true"));
    span.end(static_cast<double>(result.hops));
  }
  return result;
}

}  // namespace dbn::net

// Adaptive routing with *local* fault knowledge.
//
// The fault-aware router (net/fault.hpp) assumes the source knows every
// failed site — global state a real network rarely has. Here each site
// knows only which of its own neighbors are dead and forwards by the
// distance-layer trichotomy (core/layer_table.hpp): neighbors one layer
// Closer to Y first, Same-layer sideways moves as an escape, and — when a
// fault cluster kills every non-worsening neighbor — a deflection fallback
// that retreats through the Farther layer, the structure
// Fàbrega/Martí-Farré/Muñoz exploit for deflection routing in DG(d,k).
// adaptive_hop() is that rule for one hop; adaptive_route() walks it and
// the simulator's ForwardingMode::Adaptive runs it in-network. With a
// LayerTable wired in, each per-neighbor decision is two table reads;
// without one, the O(k) Theorem-2 distance is recomputed per neighbor per
// hop (both paths make bit-identical decisions). A TTL guards against
// livelock. Delivery is still not guaranteed, which is exactly what the
// saturation benchmark quantifies.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "core/layer_table.hpp"
#include "debruijn/graph.hpp"
#include "debruijn/word.hpp"

namespace dbn::net {

struct AdaptiveResult {
  bool delivered = false;
  int hops = 0;
  int sideways_moves = 0;
  int deflections = 0;  // backward moves forced by dead neighborhoods
};

struct AdaptiveConfig {
  int ttl = 0;  // 0 = adaptive_ttl's default of max(4k, 8) hops
  /// Probability of taking a sideways (equal-distance) move even when an
  /// improving neighbor exists; small values help escape fault clusters.
  double jitter = 0.0;
  /// When no live neighbor improves or holds D(·,Y), fall back to a live
  /// Farther neighbor instead of giving up; avoids bouncing straight back
  /// when any alternative exists.
  bool deflect = true;
  /// Optional O(1) layer classifier (non-owning; must cover the same
  /// graph). nullptr = re-score every neighbor with the O(k) distance
  /// function. The decisions are identical either way; only the per-hop
  /// cost differs (bench_saturation measures the gap, CI gates it).
  LayerTable* layers = nullptr;
};

/// The hop budget of a walk on DG(d,k): `ttl` when positive, else
/// max(4k, 8). 4k covers greedy walks with detours for k >= 2; the floor
/// keeps k = 1 networks, which real fault clusters exhaust in 4 hops,
/// from collapsing to that budget.
int adaptive_ttl(int ttl, std::size_t k);

/// One move of an adaptive walk. `move` is the layer of `next` relative to
/// the site it leaves: Closer improves, Same is sideways, Farther is a
/// deflection.
struct AdaptiveHop {
  std::uint64_t next = 0;
  DistanceLayer move = DistanceLayer::Closer;
  int here = 0;  // D(at, y): the layer the move leaves
};

/// The decision rule, one hop from live site `at` toward `y`. D(·,y) comes
/// from `view` (y's pinned table) or, when it is null, from
/// undirected_distance. Takes a Same neighbor with probability
/// config.jitter or when none is Closer; failing both, deflects to a
/// Farther neighbor other than `previous` (the site the walk just left;
/// graph.vertex_count() for none) whenever another exists, if
/// config.deflect. std::nullopt when stuck. The caller enforces the TTL.
std::optional<AdaptiveHop> adaptive_hop(
    const DeBruijnGraph& graph, const std::vector<bool>& failed,
    std::uint64_t at, std::uint64_t previous, const Word& y,
    const LayerTable::View* view, const AdaptiveConfig& config, Rng& rng);

/// Walks from x to y over live sites only. `failed[r]` marks dead sites;
/// x and y must be live. Randomized tie-breaking via `rng` (deterministic
/// under a fixed seed; the draw sequence does not depend on config.layers).
AdaptiveResult adaptive_route(const DeBruijnGraph& graph,
                              const std::vector<bool>& failed, const Word& x,
                              const Word& y, Rng& rng,
                              const AdaptiveConfig& config = {});

}  // namespace dbn::net

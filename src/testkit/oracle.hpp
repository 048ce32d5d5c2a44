// The differential-testing oracle layer: every routing implementation in
// the library behind one interface, grouped into per-network OracleSets.
//
// The paper's correctness story (Property 1, Theorem 2, Algorithms 1-4) is
// that several very different computations — failure-function scans, suffix
// trees, suffix automata, greedy hop-by-hop forwarding, compiled tables and
// exhaustive BFS — must produce *identical* distances and equally short,
// legal paths. An OracleSet packages all implementations that answer for
// one network (DG(d,k) directed, DG(d,k) undirected, or K(d,k)) so the
// conformance driver (conformance.hpp) can cross-check them pairwise and
// against the BFS ground truth.
#pragma once

#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "core/path.hpp"
#include "debruijn/graph.hpp"
#include "debruijn/kautz.hpp"
#include "debruijn/word.hpp"

namespace dbn::testkit {

/// One routing implementation under test. Oracles make two independent
/// claims — a distance and (optionally) a witnessing path — that the
/// conformance driver checks against each other and against the rest of
/// the set.
class RouteOracle {
 public:
  virtual ~RouteOracle() = default;

  virtual std::string_view name() const = 0;

  /// The oracle's distance claim for x -> y.
  virtual int distance(const Word& x, const Word& y) = 0;

  /// The oracle's path claim, or nullopt for distance-only oracles.
  virtual std::optional<RoutingPath> route(const Word& x, const Word& y) {
    (void)x;
    (void)y;
    return std::nullopt;
  }

  /// True for the Theorem 2 routers whose paths must decompose into one of
  /// the paper's three-block shapes (checked by shape_matches_theorem2).
  virtual bool emits_three_block() const { return false; }
};

/// Knobs for which oracles join a set. The enumerating oracles (BFS,
/// next-hop tables) are gated on the vertex count so the same factory
/// works for formula-only sweeps at large k.
struct OracleOptions {
  /// BFS reference + BFS router included when d^k <= this. 0 disables.
  std::uint64_t max_bfs_vertices = 1u << 12;
  /// Compiled RoutingTable included when d^k <= this (O(N^2) build). 0
  /// disables.
  std::uint64_t max_table_vertices = 1u << 10;
  /// Greedy hop-by-hop walks (O(d k) per hop) — cheap, on by default.
  bool include_greedy = true;
  /// Distance-only layer-table oracle (core/layer_table.hpp) included in
  /// undirected de Bruijn sets when d^k <= this (one dense N-byte table per
  /// queried destination). 0 disables.
  std::uint64_t max_layer_vertices = 1u << 12;
  /// BatchRouteEngine oracles (single-query batches through the parallel
  /// engine, pool + cache included), so dbn_fuzz exercises the batch path.
  bool include_batch = true;
  /// Worker threads for the batch oracles (>= 2 keeps the pool honest).
  std::size_t batch_threads = 2;
};

/// The network a set routes over; fixes the legal-move rule.
enum class NetworkFamily { DeBruijnDirected, DeBruijnUndirected, Kautz };

std::string_view family_name(NetworkFamily family);

/// All oracles answering for one network, plus the move-legality rule and
/// (when small enough) the exhaustive BFS reference.
class OracleSet {
 public:
  /// The de Bruijn sets. Directed: Algorithm 1, greedy forwarding, BFS
  /// router, routing table. Undirected: Algorithms 2/3, two Algorithm 4
  /// engines, the allocation-free route engine, greedy forwarding, BFS
  /// router, routing table, layer table. Both add the batch engine. When
  /// d^k does not fit 64 bits only the formula oracles remain (no graph,
  /// greedy, BFS, table or layer oracle) and vertex_count() is 0.
  static OracleSet debruijn(std::uint32_t d, std::size_t k,
                            Orientation orientation,
                            const OracleOptions& options = {});

  /// The Kautz set: the Algorithm 1 analog, its distance formula, and BFS.
  static OracleSet kautz(std::uint32_t d, std::size_t k,
                         const OracleOptions& options = {});

  NetworkFamily family() const { return family_; }
  /// Word radix: d for de Bruijn, d+1 for Kautz.
  std::uint32_t radix() const { return radix_; }
  std::size_t k() const { return k_; }
  std::uint64_t vertex_count() const { return n_; }

  const std::vector<std::unique_ptr<RouteOracle>>& oracles() const {
    return oracles_;
  }

  /// Appends a caller-supplied oracle (testkit extension point; also how
  /// the kit's own tests inject deliberately wrong implementations).
  void add_oracle(std::unique_ptr<RouteOracle> oracle);

  /// True when the set carries the exhaustive BFS ground truth.
  bool has_bfs_reference() const { return has_bfs_reference_; }

  /// BFS ground-truth distance; requires has_bfs_reference().
  int reference_distance(const Word& x, const Word& y) const;

  /// True iff applying `hop` at `at` is a legal single move of this
  /// network (directed: type-L only; Kautz: type-L with digit != last).
  /// Wildcard hops are legal iff some digit choice is.
  bool legal_hop(const Word& at, const Hop& hop) const;

  /// Applies `hop` (wildcards resolved to the smallest legal digit).
  Word apply_hop(const Word& at, const Hop& hop) const;

  /// True iff w is a vertex of this network (right radix/length; Kautz:
  /// adjacent digits differ).
  bool is_vertex(const Word& w) const;

  /// Uniformly random vertex: a random rank, or k random digits when d^k
  /// does not fit 64 bits.
  Word random_vertex(Rng& rng) const;

 private:
  OracleSet(NetworkFamily family, std::uint32_t d, std::size_t k);

  NetworkFamily family_;
  std::uint32_t d_;      // de Bruijn radix / Kautz degree
  std::uint32_t radix_;  // word radix
  std::size_t k_;
  std::uint64_t n_ = 0;
  bool has_bfs_reference_ = false;
  std::unique_ptr<DeBruijnGraph> graph_;   // de Bruijn sets
  std::unique_ptr<KautzGraph> kautz_;      // Kautz set
  std::vector<std::unique_ptr<RouteOracle>> oracles_;
};

}  // namespace dbn::testkit

#include "testkit/oracle.hpp"

#include <deque>
#include <utility>

#include "common/contract.hpp"
#include "core/batch_route_engine.hpp"
#include "core/bfs_router.hpp"
#include "core/distance.hpp"
#include "core/hop_by_hop.hpp"
#include "core/layer_table.hpp"
#include "core/route_engine.hpp"
#include "core/routers.hpp"
#include "core/routing_table.hpp"
#include "debruijn/bfs.hpp"
#include "debruijn/kautz_routing.hpp"

namespace dbn::testkit {

namespace {

// Converts a vertex sequence (each step one legal shift) to a routing
// path, classifying every edge against the graph.
RoutingPath walk_to_path(const DeBruijnGraph& graph,
                         const std::vector<Word>& walk) {
  RoutingPath path;
  for (std::size_t i = 0; i + 1 < walk.size(); ++i) {
    path.push(classify_edge(graph, walk[i].rank(), walk[i + 1].rank()));
  }
  return path;
}

// --- de Bruijn oracles ----------------------------------------------------

class Alg1Oracle final : public RouteOracle {
 public:
  std::string_view name() const override { return "alg1-uni"; }
  int distance(const Word& x, const Word& y) override {
    return directed_distance(x, y);  // Property 1, independent of the path
  }
  std::optional<RoutingPath> route(const Word& x, const Word& y) override {
    return route_unidirectional(x, y);
  }
};

class Alg2MpOracle final : public RouteOracle {
 public:
  std::string_view name() const override { return "alg2-mp"; }
  int distance(const Word& x, const Word& y) override {
    return undirected_distance_quadratic(x, y);  // Theorem 2, O(k^2) scan
  }
  std::optional<RoutingPath> route(const Word& x, const Word& y) override {
    return route_bidirectional_mp(x, y);
  }
  bool emits_three_block() const override { return true; }
};

class Alg4SuffixTreeOracle final : public RouteOracle {
 public:
  std::string_view name() const override { return "alg4-st"; }
  int distance(const Word& x, const Word& y) override {
    return static_cast<int>(route_bidirectional_suffix_tree(x, y).length());
  }
  std::optional<RoutingPath> route(const Word& x, const Word& y) override {
    return route_bidirectional_suffix_tree(x, y);
  }
  bool emits_three_block() const override { return true; }
};

class Alg4SuffixAutomatonOracle final : public RouteOracle {
 public:
  std::string_view name() const override { return "alg4-sam"; }
  int distance(const Word& x, const Word& y) override {
    return undirected_distance(x, y);  // the linear suffix-automaton kernel
  }
  std::optional<RoutingPath> route(const Word& x, const Word& y) override {
    return route_bidirectional_suffix_automaton(x, y);
  }
  bool emits_three_block() const override { return true; }
};

// The allocation-free engine: packed offset-sweep kernels whenever (d, k)
// fits a lane, the in-place Algorithm 3 scan otherwise — so the
// conformance driver and dbn_fuzz cross-check the packed path against
// every other implementation in the set.
class RouteEngineOracle final : public RouteOracle {
 public:
  explicit RouteEngineOracle(std::size_t k) : engine_(k) {}
  std::string_view name() const override { return "route-engine"; }
  int distance(const Word& x, const Word& y) override {
    return engine_.distance(x, y);
  }
  std::optional<RoutingPath> route(const Word& x, const Word& y) override {
    RoutingPath path;
    engine_.route_into(x, y, WildcardMode::Concrete, path);
    return path;
  }
  bool emits_three_block() const override { return true; }

 private:
  BidirectionalRouteEngine engine_;
};

// The parallel batch engine fed one-query batches: every conformance pair
// also crosses the thread pool, the per-worker scratch arenas and the
// per-worker memo (deliberately tiny so slots are recycled).
class BatchEngineOracle final : public RouteOracle {
 public:
  BatchEngineOracle(std::uint32_t d, std::size_t k, BatchBackend backend,
                    std::size_t threads)
      : engine_(d, k,
                BatchRouteOptions{.backend = backend,
                                  .threads = threads,
                                  .chunk = 1,
                                  .cache_entries = 64}) {}
  std::string_view name() const override {
    return engine_.backend() == BatchBackend::Alg1Directed ? "batch-alg1"
                                                           : "batch-engine";
  }
  int distance(const Word& x, const Word& y) override {
    return engine_.distance_batch({RouteQuery{x, y}})[0];
  }
  std::optional<RoutingPath> route(const Word& x, const Word& y) override {
    return engine_.route_batch({RouteQuery{x, y}})[0];
  }
  bool emits_three_block() const override {
    return engine_.backend() == BatchBackend::BidiEngine;
  }

 private:
  BatchRouteEngine engine_;
};

class GreedyOracle final : public RouteOracle {
 public:
  explicit GreedyOracle(const DeBruijnGraph& graph) : graph_(graph) {}
  std::string_view name() const override {
    return graph_.orientation() == Orientation::Directed ? "greedy-uni"
                                                         : "greedy-bi";
  }
  int distance(const Word& x, const Word& y) override {
    return static_cast<int>(greedy_walk(x, y, graph_.orientation()).size()) -
           1;
  }
  std::optional<RoutingPath> route(const Word& x, const Word& y) override {
    return walk_to_path(graph_, greedy_walk(x, y, graph_.orientation()));
  }

 private:
  const DeBruijnGraph& graph_;
};

class BfsRouterOracle final : public RouteOracle {
 public:
  explicit BfsRouterOracle(const DeBruijnGraph& graph) : graph_(graph) {}
  std::string_view name() const override { return "bfs-router"; }
  int distance(const Word& x, const Word& y) override {
    return bfs_distances(graph_, x.rank())[y.rank()];
  }
  std::optional<RoutingPath> route(const Word& x, const Word& y) override {
    return route_bfs(graph_, x, y);
  }

 private:
  const DeBruijnGraph& graph_;
};

class RoutingTableOracle final : public RouteOracle {
 public:
  explicit RoutingTableOracle(const DeBruijnGraph& graph)
      : graph_(graph), table_(graph) {}
  std::string_view name() const override { return "routing-table"; }
  int distance(const Word& x, const Word& y) override {
    return table_.walk_length(x.rank(), y.rank());
  }
  std::optional<RoutingPath> route(const Word& x, const Word& y) override {
    RoutingPath path;
    std::uint64_t at = x.rank();
    const std::uint64_t dst = y.rank();
    const std::size_t bound = 2 * graph_.k() + 2;  // > diameter: loop guard
    while (at != dst) {
      DBN_ASSERT(path.length() <= bound, "table walk failed to converge");
      const Hop hop = table_.next_hop(at, dst);
      path.push(hop);
      at = hop.type == ShiftType::Left
               ? graph_.left_shift_rank(at, hop.digit)
               : graph_.right_shift_rank(at, hop.digit);
    }
    return path;
  }

 private:
  const DeBruijnGraph& graph_;
  RoutingTable table_;
};

// Distance-only oracle over the dense per-destination layer tables
// (core/layer_table.hpp): the adaptive router's O(1) progress signal gets
// the same pairwise differential pressure as every routing algorithm —
// one wrong table byte shows up as a distance mismatch here, not just as
// a subtly worse deflection choice under saturation.
class LayerTableOracle final : public RouteOracle {
 public:
  explicit LayerTableOracle(const DeBruijnGraph& graph)
      : name_(graph.orientation() == Orientation::Directed
                  ? "layer-table-uni"
                  : "layer-table-bi"),
        table_(graph) {}
  explicit LayerTableOracle(const KautzGraph& graph)
      : name_("kautz-layer-table"), table_(graph), kautz_(&graph) {}
  std::string_view name() const override { return name_; }
  int distance(const Word& x, const Word& y) override {
    return table_.view(y)->distance(kautz_ != nullptr ? kautz_->rank(x)
                                                      : x.rank());
  }

 private:
  std::string_view name_;
  LayerTable table_;
  const KautzGraph* kautz_ = nullptr;  // non-null iff the Kautz family
};

// --- Kautz oracles --------------------------------------------------------

std::vector<int> kautz_bfs_distances(const KautzGraph& graph,
                                     std::uint64_t source) {
  std::vector<int> dist(graph.vertex_count(), -1);
  std::deque<std::uint64_t> frontier;
  dist[source] = 0;
  frontier.push_back(source);
  while (!frontier.empty()) {
    const std::uint64_t v = frontier.front();
    frontier.pop_front();
    for (const std::uint64_t w : graph.out_neighbors(v)) {
      if (dist[w] == -1) {
        dist[w] = dist[v] + 1;
        frontier.push_back(w);
      }
    }
  }
  return dist;
}

class KautzRouteOracle final : public RouteOracle {
 public:
  explicit KautzRouteOracle(const KautzGraph& graph) : graph_(graph) {}
  std::string_view name() const override { return "kautz-alg1"; }
  int distance(const Word& x, const Word& y) override {
    return kautz_directed_distance(graph_, x, y);  // the Property 1 analog
  }
  std::optional<RoutingPath> route(const Word& x, const Word& y) override {
    return kautz_route(graph_, x, y);
  }

 private:
  const KautzGraph& graph_;
};

class KautzBfsOracle final : public RouteOracle {
 public:
  explicit KautzBfsOracle(const KautzGraph& graph) : graph_(graph) {}
  std::string_view name() const override { return "kautz-bfs"; }
  int distance(const Word& x, const Word& y) override {
    return kautz_bfs_distances(graph_, graph_.rank(x))[graph_.rank(y)];
  }

 private:
  const KautzGraph& graph_;
};

}  // namespace

std::string_view family_name(NetworkFamily family) {
  switch (family) {
    case NetworkFamily::DeBruijnDirected:
      return "directed";
    case NetworkFamily::DeBruijnUndirected:
      return "undirected";
    case NetworkFamily::Kautz:
      return "kautz";
  }
  DBN_ASSERT(false, "unknown network family");
  return "";
}

OracleSet::OracleSet(NetworkFamily family, std::uint32_t d, std::size_t k)
    : family_(family),
      d_(d),
      radix_(family == NetworkFamily::Kautz ? d + 1 : d),
      k_(k) {}

OracleSet OracleSet::debruijn(std::uint32_t d, std::size_t k,
                              Orientation orientation,
                              const OracleOptions& options) {
  OracleSet set(orientation == Orientation::Directed
                    ? NetworkFamily::DeBruijnDirected
                    : NetworkFamily::DeBruijnUndirected,
                d, k);
  set.n_ = Word::vertex_count(d, k);
  set.graph_ = std::make_unique<DeBruijnGraph>(d, k, orientation);
  if (orientation == Orientation::Directed) {
    set.oracles_.push_back(std::make_unique<Alg1Oracle>());
    if (options.include_batch) {
      set.oracles_.push_back(std::make_unique<BatchEngineOracle>(
          d, k, BatchBackend::Alg1Directed, options.batch_threads));
    }
  } else {
    set.oracles_.push_back(std::make_unique<Alg2MpOracle>());
    set.oracles_.push_back(std::make_unique<Alg4SuffixTreeOracle>());
    set.oracles_.push_back(std::make_unique<Alg4SuffixAutomatonOracle>());
    set.oracles_.push_back(std::make_unique<RouteEngineOracle>(k));
    if (options.include_batch) {
      set.oracles_.push_back(std::make_unique<BatchEngineOracle>(
          d, k, BatchBackend::BidiEngine, options.batch_threads));
    }
  }
  if (options.include_greedy) {
    set.oracles_.push_back(std::make_unique<GreedyOracle>(*set.graph_));
  }
  if (options.max_bfs_vertices > 0 && set.n_ <= options.max_bfs_vertices) {
    set.oracles_.push_back(std::make_unique<BfsRouterOracle>(*set.graph_));
    set.has_bfs_reference_ = true;
  }
  if (options.max_table_vertices > 0 && set.n_ <= options.max_table_vertices) {
    set.oracles_.push_back(std::make_unique<RoutingTableOracle>(*set.graph_));
  }
  if (options.max_layer_vertices > 0 && set.n_ <= options.max_layer_vertices) {
    set.oracles_.push_back(std::make_unique<LayerTableOracle>(*set.graph_));
  }
  return set;
}

OracleSet OracleSet::kautz(std::uint32_t d, std::size_t k,
                           const OracleOptions& options) {
  OracleSet set(NetworkFamily::Kautz, d, k);
  set.kautz_ = std::make_unique<KautzGraph>(d, k);
  set.n_ = set.kautz_->vertex_count();
  set.oracles_.push_back(std::make_unique<KautzRouteOracle>(*set.kautz_));
  if (options.max_bfs_vertices > 0 && set.n_ <= options.max_bfs_vertices) {
    set.oracles_.push_back(std::make_unique<KautzBfsOracle>(*set.kautz_));
    set.has_bfs_reference_ = true;
  }
  if (options.max_layer_vertices > 0 && set.n_ <= options.max_layer_vertices) {
    set.oracles_.push_back(std::make_unique<LayerTableOracle>(*set.kautz_));
  }
  return set;
}

void OracleSet::add_oracle(std::unique_ptr<RouteOracle> oracle) {
  DBN_REQUIRE(oracle != nullptr, "add_oracle requires an oracle");
  oracles_.push_back(std::move(oracle));
}

int OracleSet::reference_distance(const Word& x, const Word& y) const {
  DBN_REQUIRE(has_bfs_reference_, "set has no BFS reference at this size");
  if (family_ == NetworkFamily::Kautz) {
    return kautz_bfs_distances(*kautz_, kautz_->rank(x))[kautz_->rank(y)];
  }
  return bfs_distances(*graph_, x.rank())[y.rank()];
}

bool OracleSet::legal_hop(const Word& at, const Hop& hop) const {
  if (!hop.is_wildcard() && hop.digit >= radix_) {
    return false;
  }
  switch (family_) {
    case NetworkFamily::DeBruijnDirected:
      return hop.type == ShiftType::Left;
    case NetworkFamily::DeBruijnUndirected:
      return true;
    case NetworkFamily::Kautz:
      // Left shifts only, and the appended digit must differ from the
      // current last digit (K(d,k) adjacency). A wildcard is legal: d >= 1
      // alternatives always exist.
      return hop.type == ShiftType::Left &&
             (hop.is_wildcard() || hop.digit != at.digit(at.length() - 1));
  }
  DBN_ASSERT(false, "unknown network family");
  return false;
}

Word OracleSet::apply_hop(const Word& at, const Hop& hop) const {
  Digit digit = hop.digit;
  if (hop.is_wildcard()) {
    digit = 0;
    if (family_ == NetworkFamily::Kautz &&
        at.digit(at.length() - 1) == digit) {
      digit = 1;
    }
  }
  return hop.type == ShiftType::Left ? at.left_shift(digit)
                                     : at.right_shift(digit);
}

bool OracleSet::is_vertex(const Word& w) const {
  if (w.radix() != radix_ || w.length() != k_) {
    return false;
  }
  if (family_ == NetworkFamily::Kautz) {
    for (std::size_t i = 1; i < w.length(); ++i) {
      if (w.digit(i) == w.digit(i - 1)) {
        return false;
      }
    }
  }
  return true;
}

Word OracleSet::random_vertex(Rng& rng) const {
  if (family_ == NetworkFamily::Kautz) {
    return kautz_->word(rng.below(n_));
  }
  return Word::from_rank(radix_, k_, rng.below(n_));
}

}  // namespace dbn::testkit

// Distance-layer tables: the Fàbrega–Martí-Farré–Muñoz layer structure of
// the undirected de Bruijn network (PAPERS.md, arXiv 2203.09918) turned
// into an O(1) deflection primitive.
//
// For a fixed destination Y the vertices partition into layers by distance
// D(·,Y); in the undirected DG(d,k) every neighbor of a vertex X lies in
// layer D(X,Y)-1, D(X,Y) or D(X,Y)+1, and a deflection router needs exactly
// that trichotomy — forward (Closer), sidestep (Same) or retreat (Farther)
// — at every hop. Re-scoring D(neighbor, Y) costs an O(k) Theorem-2 scan
// per candidate per hop; a LayerTable instead materializes D(·,Y) once per
// active destination (an O(N k) analytic fill using the paper's distance
// formula — no BFS) and answers classify() with two array reads.
//
// Destinations are cached lazily in one direct-mapped slot vector behind
// one mutex, and each destination's table is handed out as an immutable
// shared View so the per-hop hot path holds no lock: a router pins the
// view for its walk and classifies neighbors with plain loads. Memory is
// one byte per vertex per cached destination; kMaxVertices keeps an
// accidental DG(2,30) from allocating it.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/contract.hpp"
#include "common/mutex.hpp"
#include "debruijn/graph.hpp"
#include "debruijn/word.hpp"
#include "obs/metrics.hpp"

namespace dbn {

/// Where a neighbor sits relative to the current vertex's distance layer:
/// one layer nearer the destination, the same layer, or one layer farther
/// (the undirected distance is a graph metric, so one move changes it by
/// at most one).
enum class DistanceLayer : std::uint8_t { Closer, Same, Farther };

struct LayerTableOptions {
  /// Cached destination tables; 0 disables caching (every view() call
  /// rebuilds — measurement/debug only).
  std::size_t cache_destinations = 64;
};

/// Counters since construction (view() is thread-safe; so is this).
struct LayerTableStats {
  std::size_t lookups = 0;
  std::size_t hits = 0;
  std::size_t builds = 0;
  /// Stores that displaced a live table for a *different* destination.
  std::size_t evictions = 0;
};

class LayerTable {
 public:
  /// Hard cap on the vertex count: one table is one byte per vertex.
  static constexpr std::uint64_t kMaxVertices = 1ull << 20;

  /// One destination's distance table, immutable once built. Safe to read
  /// from any number of threads; keeps itself alive past eviction.
  class View {
   public:
    std::uint64_t destination() const { return destination_; }

    /// D(rank, destination) in the table's network.
    int distance(std::uint64_t rank) const {
      DBN_ASSERT(rank < dist_.size(), "layer view rank out of range");
      return dist_[rank];
    }

    /// The layer trichotomy for one neighbor of `from_rank` — the O(1)
    /// deflection decision: two loads and a compare.
    DistanceLayer classify(std::uint64_t from_rank,
                           std::uint64_t neighbor_rank) const {
      DBN_ASSERT(from_rank < dist_.size() && neighbor_rank < dist_.size(),
                 "layer classify rank out of range");
      const std::uint8_t here = dist_[from_rank];
      const std::uint8_t there = dist_[neighbor_rank];
      if (there < here) {
        return DistanceLayer::Closer;
      }
      return there == here ? DistanceLayer::Same : DistanceLayer::Farther;
    }

   private:
    friend class LayerTable;
    std::uint64_t destination_ = 0;
    std::vector<std::uint8_t> dist_;
  };

  /// Tables over the undirected DG(d,k) (Theorem 2 distance). Rejects a
  /// directed graph and one with more than kMaxVertices vertices.
  explicit LayerTable(const DeBruijnGraph& graph,
                      const LayerTableOptions& options = {});

  LayerTable(const LayerTable&) = delete;
  LayerTable& operator=(const LayerTable&) = delete;

  std::uint64_t vertex_count() const { return graph_.vertex_count(); }

  /// The distance table for destination `y`, built on first use and cached.
  /// Thread-safe; the returned view stays valid after eviction.
  std::shared_ptr<const View> view(const Word& y);

  LayerTableStats stats() const;

 private:
  std::shared_ptr<const View> build_view(std::uint64_t destination) const;

  DeBruijnGraph graph_;
  const std::size_t slot_count_;  // 0 = uncached
  Mutex mutex_;
  // The lock guards the slot pointers only. Readers copy the shared_ptr
  // under it and then use the pinned immutable View lock-free — the
  // pattern the header comment describes, and one the analysis verifies
  // rather than exempts (no field of View is guarded).
  std::vector<std::shared_ptr<const View>> slots_ DBN_GUARDED_BY(mutex_);
  std::atomic<std::size_t> lookups_{0};
  std::atomic<std::size_t> hits_{0};
  std::atomic<std::size_t> builds_{0};
  std::atomic<std::size_t> evictions_{0};
  // Global-registry mirrors (schema.hpp metric names); builds/evictions are
  // per-destination-rare, lookups/hits once per walk — all off the per-hop
  // path, which is pure View reads.
  obs::Counter metrics_lookups_;
  obs::Counter metrics_hits_;
  obs::Counter metrics_builds_;
  obs::Counter metrics_evictions_;
};

}  // namespace dbn

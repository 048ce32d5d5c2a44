// Fault tolerance in DN(d,k).
//
// The paper's introduction cites Pradhan & Reddy: de Bruijn networks
// "tolerate up to d-1 processor failures". This module provides the
// machinery to measure that claim: a fault-aware router (exact BFS on the
// surviving subgraph) and connectivity probes used by the S2 benchmark.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_set>
#include <vector>

#include "common/rng.hpp"
#include "core/path.hpp"
#include "debruijn/graph.hpp"

namespace dbn::net {

/// One entry of a FaultSchedule.
enum class FaultEventKind : std::uint8_t {
  SiteCrash,
  SiteRecover,
  LinkCrash,    // the directed link a -> b
  LinkRecover,
};

/// "site.crash", "site.recover", "link.crash", "link.recover" (the event
/// names used by the trace event log).
const char* fault_event_kind_name(FaultEventKind kind);

struct FaultEvent {
  double time = 0.0;
  FaultEventKind kind = FaultEventKind::SiteCrash;
  std::uint64_t a = 0;  // site rank, or link source
  std::uint64_t b = 0;  // link target (unused for site events)

  friend bool operator==(const FaultEvent&, const FaultEvent&) = default;
};

/// A time-stamped crash/recover script for sites and directed links,
/// applied by the Simulator as its clock advances (replacing the static
/// t=0-only fault model). Events at time t take effect before any message
/// arrival at time t: a site crashing at the instant a message lands wins.
/// Recovering something that is up (or crashing something already down) is
/// a no-op, so overlapping flap windows compose safely.
class FaultSchedule {
 public:
  void site_crash(double time, std::uint64_t rank);
  void site_recover(double time, std::uint64_t rank);
  void link_crash(double time, std::uint64_t from, std::uint64_t to);
  void link_recover(double time, std::uint64_t from, std::uint64_t to);

  /// A flapping site: starting at `start`, `cycles` repetitions of
  /// (down for `down_for`, then up for `up_for`).
  void site_flap(std::uint64_t rank, double start, double down_for,
                 double up_for, int cycles);
  /// Same for a directed link.
  void link_flap(std::uint64_t from, std::uint64_t to, double start,
                 double down_for, double up_for, int cycles);

  void add(const FaultEvent& event);

  /// Events sorted by time; ties keep insertion order (stable).
  const std::vector<FaultEvent>& events() const;

  bool empty() const { return events_.empty(); }
  std::size_t size() const { return events_.size(); }
  void clear() { events_.clear(); sorted_ = true; }

  friend bool operator==(const FaultSchedule& lhs, const FaultSchedule& rhs) {
    return lhs.events() == rhs.events();
  }

 private:
  mutable std::vector<FaultEvent> events_;
  mutable bool sorted_ = true;
};

/// Routes around a fixed set of failed sites with BFS on the surviving
/// subgraph. Exact (finds a path iff one exists) but O(N d) per query —
/// this is the recovery path, not the common case.
class FaultAwareRouter {
 public:
  /// `failed[rank]` marks dead sites. The graph must be materializable.
  FaultAwareRouter(const DeBruijnGraph& graph, std::vector<bool> failed);

  /// A shortest surviving path from x to y avoiding failed sites, or
  /// std::nullopt if none exists (or an endpoint is dead): route_avoiding
  /// with no failed links.
  std::optional<RoutingPath> route(const Word& x, const Word& y) const;

  const std::vector<bool>& failed() const { return failed_; }

 private:
  const DeBruijnGraph& graph_;
  std::vector<bool> failed_;
};

/// True iff every pair of surviving sites remains mutually reachable after
/// removing the failed ones. O(N d) (one BFS from the first survivor; for
/// directed graphs checks forward and backward reachability).
bool survivors_connected(const DeBruijnGraph& graph,
                         const std::vector<bool>& failed);

/// Draws `count` distinct failed ranks uniformly at random.
std::vector<bool> random_fault_set(const DeBruijnGraph& graph,
                                   std::size_t count, Rng& rng);

/// Shortest path avoiding failed sites and failed *directed links* (keys
/// are from * N + to, matching Simulator::fail_link). std::nullopt when no
/// surviving path exists. O(N d) BFS.
std::optional<RoutingPath> route_avoiding(
    const DeBruijnGraph& graph, const std::vector<bool>& failed_nodes,
    const std::unordered_set<std::uint64_t>& failed_links, const Word& x,
    const Word& y);

}  // namespace dbn::net

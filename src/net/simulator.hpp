// Discrete-event simulator of the de Bruijn network DN(d,k).
//
// The model follows the paper's Section 3.1 forwarding rule exactly: a site
// receiving a message with a non-empty routing-path field removes the first
// pair (a,b) and transmits the message to the type-a neighbor selected by
// digit b; a site receiving a message with an empty field accepts it. The
// wildcard digit "*" is resolved by the forwarding site according to a
// configurable policy — the traffic-balancing freedom the paper points out.
//
// Link model: every directed link (u -> v) transmits one message per
// `link_delay` time units, FIFO. A message that would find more than
// `link_queue_capacity` messages ahead of it on the link is dropped
// (overflow). Node processing time is zero. Failed sites drop every
// message addressed through them.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/rng.hpp"
#include "core/layer_table.hpp"
#include "debruijn/graph.hpp"
#include "net/adaptive.hpp"
#include "net/fault.hpp"
#include "net/message.hpp"

namespace dbn::net {

/// How a forwarding site resolves the wildcard digit "*".
enum class WildcardPolicy {
  Zero,        // always digit 0 (degenerate, no balancing)
  Random,      // uniform digit, per-site RNG
  LeastQueue,  // digit whose outgoing link currently has the shortest queue
};

/// Who decides the next hop.
enum class ForwardingMode {
  SourceRouted,  // the paper's scheme: consume the routing-path field
  HopByHop,      // each site computes the greedy next hop from the distance
                 // function (core/hop_by_hop.hpp); the path field is unused
  Adaptive,      // deflection routing by distance layer (net/adaptive.hpp's
                 // adaptive_hop, in-network): Closer neighbors first,
                 // Same-layer sideways as an escape, Farther-layer
                 // deflection when faults kill everything else, TTL-bounded
};

/// Distance source for ForwardingMode::Adaptive decisions. Both make
/// identical choices; they differ only in per-hop cost (the saturation
/// benchmark's subject).
enum class AdaptiveScoring {
  Rescore,     // O(k) Theorem-2 distance per neighbor per hop
  LayerTable,  // O(1) reads from a cached per-destination layer table
};

struct SimConfig {
  std::uint32_t radix = 2;
  std::size_t k = 4;
  Orientation orientation = Orientation::Undirected;
  double link_delay = 1.0;
  std::size_t link_queue_capacity = std::numeric_limits<std::size_t>::max();
  WildcardPolicy wildcard_policy = WildcardPolicy::Zero;
  ForwardingMode forwarding = ForwardingMode::SourceRouted;
  /// Adaptive forwarding only (ignored otherwise). Requires the undirected
  /// orientation (the layer trichotomy needs the graph metric).
  AdaptiveScoring adaptive_scoring = AdaptiveScoring::Rescore;
  int adaptive_ttl = 0;          // 0 = max(4k, 8), as net::adaptive_ttl
  double adaptive_jitter = 0.0;  // sideways-move probability
  /// Record every (time, site) visit per message (traces() accessor);
  /// costs memory proportional to total hops.
  bool record_traces = false;
  std::uint64_t seed = 1;
};

/// Why the simulator discarded a message (the drop hook's taxonomy; all
/// but Misdelivered mirror the dropped_* counters of SimStats). Ttl only
/// occurs under adaptive forwarding, whose walks are hop-bounded.
enum class DropReason : std::uint8_t { Fault, Link, Overflow, Misdelivered, Ttl };

const char* drop_reason_name(DropReason reason);

/// Aggregate results of a run.
struct SimStats {
  std::uint64_t injected = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped_fault = 0;     // hit a failed site
  std::uint64_t dropped_link = 0;      // sent across a failed link
  std::uint64_t dropped_overflow = 0;  // link queue over capacity
  std::uint64_t misdelivered = 0;      // path exhausted at a wrong site
  std::uint64_t dropped_ttl = 0;       // adaptive walk exhausted its TTL
  std::uint64_t adaptive_deflections = 0;  // Farther-layer moves taken
  std::uint64_t fault_events_applied = 0;  // schedule entries consumed
  std::uint64_t total_hops = 0;
  double total_latency = 0.0;
  double max_latency = 0.0;
  std::size_t max_queue = 0;  // largest link backlog seen (messages)
  std::vector<double> latencies;  // per delivered message, unsorted
  std::vector<std::uint64_t> hop_counts;  // per delivered message, unsorted

  double mean_latency() const {
    return delivered == 0 ? 0.0 : total_latency / static_cast<double>(delivered);
  }
  double mean_hops() const {
    return delivered == 0 ? 0.0
                          : static_cast<double>(total_hops) /
                                static_cast<double>(delivered);
  }
  /// Latency percentile in [0, 100]; 0 if nothing was delivered.
  double latency_percentile(double p) const;
};

class Simulator {
 public:
  explicit Simulator(const SimConfig& config);

  const DeBruijnGraph& graph() const { return graph_; }
  const SimConfig& config() const { return config_; }

  /// Marks a site as failed. Messages arriving at (or injected from) a
  /// failed site are dropped and counted.
  void fail_node(std::uint64_t rank);
  bool is_failed(std::uint64_t rank) const;

  /// Brings a failed site back (no-op if it is up).
  void recover_node(std::uint64_t rank);

  /// Marks a directed link as failed: anything forwarded across it is
  /// dropped (stats().dropped_link). Both ranks must be valid; the pair
  /// need not currently be an edge (failing it is then a no-op).
  void fail_link(std::uint64_t from, std::uint64_t to);
  bool is_link_failed(std::uint64_t from, std::uint64_t to) const;

  /// Brings a failed directed link back (no-op if it is up).
  void recover_link(std::uint64_t from, std::uint64_t to);

  /// Current fault state, as of now(). Link keys are from * N + to.
  const std::vector<bool>& failed_sites() const { return failed_; }
  const std::unordered_set<std::uint64_t>& failed_links() const {
    return failed_links_;
  }

  /// Installs a dynamic fault script, replacing any previous one. Events
  /// are applied as run() advances the clock; an event at time t is
  /// applied before message arrivals at t (crash-before-arrival). Events
  /// at or before now() are applied immediately. With a finite run(until),
  /// events up to `until` are applied even if no message arrival reaches
  /// them, so later injections observe the scheduled state.
  void set_fault_schedule(FaultSchedule schedule);

  /// Fault events not yet applied (i.e. scheduled after the clock).
  std::size_t pending_fault_events() const {
    return schedule_.events().size() - schedule_cursor_;
  }

  /// Schedules `message` to enter the network at its source site at `time`
  /// (>= 0). Must be called before run() finishes processing that time.
  void inject(double time, Message message);

  /// Invoked from within run() whenever a message is accepted by its
  /// destination; enables protocols (acknowledgements, retransmission —
  /// see net/reliable.hpp) on top of the raw network. The hook may call
  /// inject() re-entrantly.
  using DeliveryHook = std::function<void(const Message&, double time)>;
  void set_delivery_hook(DeliveryHook hook) { delivery_hook_ = std::move(hook); }

  /// Invoked from within run() whenever a message is discarded, with the
  /// reason and the site where it happened. Lets protocols attribute
  /// failures per attempt (net/reliable.hpp) instead of inferring them
  /// from aggregate counters. The hook may call inject() re-entrantly.
  using DropHook = std::function<void(const Message&, double time,
                                      DropReason reason, std::uint64_t at)>;
  void set_drop_hook(DropHook hook) { drop_hook_ = std::move(hook); }

  /// Processes events in time order until the queue is empty or the clock
  /// passes `until`. Returns the final clock value.
  double run(double until = std::numeric_limits<double>::infinity());

  const SimStats& stats() const { return stats_; }

  /// Current backlog (messages not yet done transmitting) on link u -> v,
  /// as seen at the current clock. Exposed for tests and for the
  /// LeastQueue policy.
  std::size_t queue_length(std::uint64_t from, std::uint64_t to) const;

  /// Per-link transmission counts for every usable directed link of the
  /// network (links never used report 0). Order is unspecified but stable
  /// within a run. O(N d).
  std::vector<std::uint64_t> link_transmissions() const;

  /// One visit record per site a message touched (arrival time, rank).
  struct Trace {
    std::vector<std::pair<double, std::uint64_t>> visits;
  };

  /// Traces in injection order; empty unless config.record_traces.
  const std::vector<Trace>& traces() const { return traces_; }

  double now() const { return now_; }

 private:
  struct InFlight {
    Message message;
    double injected_at = 0.0;
    std::size_t cursor = 0;  // hops consumed
    std::uint64_t at = 0;    // current site rank
    std::uint64_t previous = 0;  // last site left (deflection avoidance);
                                 // inject() resets it to the vertex-count
                                 // sentinel meaning "no previous site"
    /// Pinned destination layer table (Adaptive + LayerTable scoring only):
    /// one cache interaction per message, O(1) reads per hop. Released
    /// when the message is delivered or dropped.
    std::shared_ptr<const LayerTable::View> view;
  };

  struct Event {
    double time = 0.0;
    std::uint64_t seq = 0;  // FIFO tie-break
    std::size_t flight = 0;
    bool operator<(const Event& other) const {
      // std::priority_queue is a max-heap; invert for earliest-first.
      if (time != other.time) {
        return time > other.time;
      }
      return seq > other.seq;
    }
  };

  struct LinkState {
    double next_free = 0.0;
    std::uint64_t transmissions = 0;
  };

  void arrive(std::size_t flight_index);
  void apply_faults_until(double time);
  void deliver(InFlight& flight);
  void drop(std::size_t flight_index, DropReason reason, std::uint64_t at);
  Digit resolve_wildcard(std::uint64_t at, ShiftType type, Rng& rng);
  std::uint64_t shift_target(std::uint64_t at, ShiftType type, Digit digit) const;
  void schedule(double time, std::size_t flight_index);

  SimConfig config_;
  DeBruijnGraph graph_;
  std::vector<InFlight> flights_;
  std::vector<Event> heap_;
  std::vector<bool> failed_;
  std::unordered_map<std::uint64_t, LinkState> links_;  // key: from * N + to
  std::unordered_set<std::uint64_t> failed_links_;      // same keying
  FaultSchedule schedule_;
  std::size_t schedule_cursor_ = 0;
  std::unique_ptr<LayerTable> layers_;  // Adaptive + LayerTable scoring
  AdaptiveConfig adaptive_;             // resolved TTL, jitter, layers_.get()
  SimStats stats_;
  std::vector<Trace> traces_;
  Rng rng_;
  DeliveryHook delivery_hook_;
  DropHook drop_hook_;
  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;
};

}  // namespace dbn::net

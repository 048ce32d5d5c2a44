#include "net/simulator.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "common/contract.hpp"
#include "core/hop_by_hop.hpp"
#include "obs/trace.hpp"

namespace dbn::net {

namespace {
constexpr std::uint64_t kMaxSimVertices = 1ull << 26;

/// Sim-clock instant on the given site's lane (events carry the site rank
/// as their lane so Perfetto shows per-site activity tracks).
void sim_event(const char* name, double time, std::uint64_t site,
               std::vector<obs::TraceArg> args) {
  obs::TraceEvent event;
  event.name = name;
  event.category = "sim";
  event.phase = obs::TracePhase::Instant;
  event.clock = obs::TraceClock::Sim;
  event.ts = time;
  event.lane = site;
  event.args = std::move(args);
  obs::emit(std::move(event));
}

}  // namespace

const char* drop_reason_name(DropReason reason) {
  switch (reason) {
    case DropReason::Fault:
      return "fault";
    case DropReason::Link:
      return "link";
    case DropReason::Overflow:
      return "overflow";
    case DropReason::Misdelivered:
      return "misdelivered";
    case DropReason::Ttl:
      return "ttl";
  }
  return "?";
}

double SimStats::latency_percentile(double p) const {
  DBN_REQUIRE(p >= 0.0 && p <= 100.0, "percentile must be in [0, 100]");
  if (latencies.empty()) {
    return 0.0;
  }
  std::vector<double> sorted = latencies;
  std::sort(sorted.begin(), sorted.end());
  const double idx = p / 100.0 * static_cast<double>(sorted.size() - 1);
  return sorted[static_cast<std::size_t>(std::llround(idx))];
}

Simulator::Simulator(const SimConfig& config)
    : config_(config),
      graph_(config.radix, config.k, config.orientation),
      rng_(config.seed) {
  DBN_REQUIRE(config.link_delay > 0.0, "link_delay must be positive");
  DBN_REQUIRE(graph_.vertex_count() <= kMaxSimVertices,
              "network too large to simulate (d^k > 2^26)");
  if (config.forwarding == ForwardingMode::Adaptive) {
    DBN_REQUIRE(config.orientation == Orientation::Undirected,
                "adaptive forwarding needs the undirected orientation");
    DBN_REQUIRE(config.adaptive_ttl >= 0, "adaptive_ttl must be >= 0");
    if (config.adaptive_scoring == AdaptiveScoring::LayerTable) {
      layers_ = std::make_unique<LayerTable>(graph_);
    }
    adaptive_.ttl = adaptive_ttl(config.adaptive_ttl, config.k);
    adaptive_.jitter = config.adaptive_jitter;
    adaptive_.layers = layers_.get();
  }
  failed_.resize(graph_.vertex_count(), false);
}

void Simulator::fail_node(std::uint64_t rank) {
  DBN_REQUIRE(rank < graph_.vertex_count(), "fail_node: rank out of range");
  failed_[rank] = true;
}

bool Simulator::is_failed(std::uint64_t rank) const {
  DBN_REQUIRE(rank < graph_.vertex_count(), "is_failed: rank out of range");
  return failed_[rank];
}

void Simulator::recover_node(std::uint64_t rank) {
  DBN_REQUIRE(rank < graph_.vertex_count(), "recover_node: rank out of range");
  failed_[rank] = false;
}

void Simulator::fail_link(std::uint64_t from, std::uint64_t to) {
  DBN_REQUIRE(from < graph_.vertex_count() && to < graph_.vertex_count(),
              "fail_link: rank out of range");
  failed_links_.insert(from * graph_.vertex_count() + to);
}

bool Simulator::is_link_failed(std::uint64_t from, std::uint64_t to) const {
  DBN_REQUIRE(from < graph_.vertex_count() && to < graph_.vertex_count(),
              "is_link_failed: rank out of range");
  return failed_links_.contains(from * graph_.vertex_count() + to);
}

void Simulator::recover_link(std::uint64_t from, std::uint64_t to) {
  DBN_REQUIRE(from < graph_.vertex_count() && to < graph_.vertex_count(),
              "recover_link: rank out of range");
  failed_links_.erase(from * graph_.vertex_count() + to);
}

void Simulator::set_fault_schedule(FaultSchedule schedule) {
  for (const FaultEvent& event : schedule.events()) {
    const bool is_site = event.kind == FaultEventKind::SiteCrash ||
                         event.kind == FaultEventKind::SiteRecover;
    DBN_REQUIRE(event.a < graph_.vertex_count() &&
                    (is_site || event.b < graph_.vertex_count()),
                "fault schedule names a rank outside this network");
  }
  schedule_ = std::move(schedule);
  schedule_cursor_ = 0;
  apply_faults_until(now_);
}

void Simulator::apply_faults_until(double time) {
  const std::vector<FaultEvent>& events = schedule_.events();
  while (schedule_cursor_ < events.size() &&
         events[schedule_cursor_].time <= time) {
    const FaultEvent& event = events[schedule_cursor_];
    switch (event.kind) {
      case FaultEventKind::SiteCrash:
        failed_[event.a] = true;
        break;
      case FaultEventKind::SiteRecover:
        failed_[event.a] = false;
        break;
      case FaultEventKind::LinkCrash:
        failed_links_.insert(event.a * graph_.vertex_count() + event.b);
        break;
      case FaultEventKind::LinkRecover:
        failed_links_.erase(event.a * graph_.vertex_count() + event.b);
        break;
    }
    if (obs::tracing_enabled()) {
      const bool is_site = event.kind == FaultEventKind::SiteCrash ||
                           event.kind == FaultEventKind::SiteRecover;
      sim_event("fault", event.time, event.a,
                {obs::targ("kind", fault_event_kind_name(event.kind)),
                 obs::targ("a", event.a),
                 obs::targ("b", is_site ? std::uint64_t{0} : event.b)});
    }
    ++stats_.fault_events_applied;
    ++schedule_cursor_;
  }
}

void Simulator::inject(double time, Message message) {
  DBN_REQUIRE(time >= now_, "cannot inject in the simulated past");
  DBN_REQUIRE(message.source.radix() == config_.radix &&
                  message.source.length() == config_.k,
              "message does not fit this network");
  const std::uint64_t source_rank = message.source.rank();
  if (obs::tracing_enabled()) {
    sim_event("inject", time, source_rank,
              {obs::targ("src", source_rank),
               obs::targ("dst", message.destination.rank()),
               obs::targ("path_len",
                         static_cast<std::uint64_t>(message.path.length()))});
  }
  flights_.push_back(
      InFlight{std::move(message), time, /*cursor=*/0, source_rank,
               /*previous=*/graph_.vertex_count(), /*view=*/nullptr});
  if (config_.record_traces) {
    traces_.emplace_back();
  }
  ++stats_.injected;
  schedule(time, flights_.size() - 1);
}

void Simulator::schedule(double time, std::size_t flight_index) {
  heap_.push_back(Event{time, next_seq_++, flight_index});
  std::push_heap(heap_.begin(), heap_.end());
}

double Simulator::run(double until) {
  while (!heap_.empty()) {
    if (heap_.front().time > until) {
      break;
    }
    std::pop_heap(heap_.begin(), heap_.end());
    const Event event = heap_.back();
    heap_.pop_back();
    DBN_ASSERT(event.time >= now_, "event times must be non-decreasing");
    now_ = event.time;
    // Crash-before-arrival: scheduled faults at time t precede message
    // arrivals at t, so a site crashing "now" drops the message landing on
    // it in the same instant.
    apply_faults_until(now_);
    arrive(event.flight);
  }
  if (until != std::numeric_limits<double>::infinity()) {
    // Windowed runs advance the fault state to the window edge so callers
    // injecting at `until` (e.g. the reliable driver) see scheduled
    // crashes/recoveries even when no message arrival reached them.
    apply_faults_until(until);
  }
  return now_;
}

std::size_t Simulator::queue_length(std::uint64_t from, std::uint64_t to) const {
  const auto it = links_.find(from * graph_.vertex_count() + to);
  if (it == links_.end() || it->second.next_free <= now_) {
    return 0;
  }
  return static_cast<std::size_t>(
      std::ceil((it->second.next_free - now_) / config_.link_delay - 1e-9));
}

Digit Simulator::resolve_wildcard(std::uint64_t at, ShiftType type, Rng& rng) {
  switch (config_.wildcard_policy) {
    case WildcardPolicy::Zero:
      return 0;
    case WildcardPolicy::Random:
      return static_cast<Digit>(rng.below(config_.radix));
    case WildcardPolicy::LeastQueue: {
      Digit best = 0;
      std::size_t best_len = queue_length(at, shift_target(at, type, 0));
      for (Digit a = 1; a < config_.radix; ++a) {
        const std::size_t len = queue_length(at, shift_target(at, type, a));
        if (len < best_len) {
          best = a;
          best_len = len;
        }
      }
      return best;
    }
  }
  DBN_ASSERT(false, "unknown wildcard policy");
  return 0;
}

std::uint64_t Simulator::shift_target(std::uint64_t at, ShiftType type,
                                      Digit digit) const {
  return type == ShiftType::Left ? graph_.left_shift_rank(at, digit)
                                 : graph_.right_shift_rank(at, digit);
}

std::vector<std::uint64_t> Simulator::link_transmissions() const {
  std::vector<std::uint64_t> counts;
  for (std::uint64_t v = 0; v < graph_.vertex_count(); ++v) {
    for (const std::uint64_t w : graph_.neighbors(v)) {
      const auto it = links_.find(v * graph_.vertex_count() + w);
      counts.push_back(it == links_.end() ? 0 : it->second.transmissions);
    }
  }
  return counts;
}

void Simulator::deliver(InFlight& flight) {
  flight.view.reset();  // finished: the pinned table can go
  ++stats_.delivered;
  stats_.total_hops += flight.cursor;
  const double latency = now_ - flight.injected_at;
  stats_.total_latency += latency;
  stats_.max_latency = std::max(stats_.max_latency, latency);
  stats_.latencies.push_back(latency);
  stats_.hop_counts.push_back(flight.cursor);
  if (obs::tracing_enabled()) {
    sim_event("deliver", now_, flight.at,
              {obs::targ("src", flight.message.source.rank()),
               obs::targ("dst", flight.message.destination.rank()),
               obs::targ("latency", latency),
               obs::targ("hops", static_cast<std::uint64_t>(flight.cursor))});
  }
  if (delivery_hook_) {
    // The hook may call inject(), which can reallocate flights_ and
    // invalidate references into it — hand it a stable copy.
    const Message delivered_message = flight.message;
    delivery_hook_(delivered_message, now_);
  }
}

void Simulator::drop(std::size_t flight_index, DropReason reason,
                     std::uint64_t at) {
  switch (reason) {
    case DropReason::Fault:
      ++stats_.dropped_fault;
      break;
    case DropReason::Link:
      ++stats_.dropped_link;
      break;
    case DropReason::Overflow:
      ++stats_.dropped_overflow;
      break;
    case DropReason::Misdelivered:
      ++stats_.misdelivered;
      break;
    case DropReason::Ttl:
      ++stats_.dropped_ttl;
      break;
  }
  InFlight& flight = flights_[flight_index];
  flight.view.reset();  // finished: the pinned table can go
  if (obs::tracing_enabled()) {
    sim_event("drop", now_, at,
              {obs::targ("reason", drop_reason_name(reason)),
               obs::targ("src", flight.message.source.rank()),
               obs::targ("dst", flight.message.destination.rank())});
  }
  if (drop_hook_) {
    // Same re-entrancy caveat as deliver(): the hook may inject().
    const Message dropped_message = flight.message;
    drop_hook_(dropped_message, now_, reason, at);
  }
}

void Simulator::arrive(std::size_t flight_index) {
  InFlight& flight = flights_[flight_index];
  const std::uint64_t at = flight.at;
  if (config_.record_traces) {
    traces_[flight_index].visits.emplace_back(now_, at);
  }
  if (failed_[at]) {
    drop(flight_index, DropReason::Fault, at);
    return;
  }
  std::uint64_t to = 0;
  const char* shift_label = "L";
  Digit digit = 0;
  if (config_.forwarding == ForwardingMode::Adaptive) {
    if (at == flight.message.destination.rank()) {
      deliver(flight);
      return;
    }
    if (flight.cursor >= static_cast<std::size_t>(adaptive_.ttl)) {
      drop(flight_index, DropReason::Ttl, at);
      return;
    }
    if (adaptive_.layers != nullptr && flight.view == nullptr) {
      // Pin the destination's table once per message; every hop after this
      // classifies neighbors with plain array reads.
      flight.view = adaptive_.layers->view(flight.message.destination);
    }
    const std::optional<AdaptiveHop> hop =
        adaptive_hop(graph_, failed_, at, flight.previous,
                     flight.message.destination, flight.view.get(), adaptive_,
                     rng_);
    if (!hop.has_value()) {
      // A dead neighborhood is a fault outcome: the site is alive but
      // every exit is down.
      drop(flight_index, DropReason::Fault, at);
      return;
    }
    to = hop->next;
    shift_label = "A";  // adaptive moves are not tied to one shift type
    flight.previous = at;
    stats_.adaptive_deflections += hop->move == DistanceLayer::Farther;
  } else {
    Hop hop;
    if (config_.forwarding == ForwardingMode::SourceRouted) {
      const RoutingPath& path = flight.message.path;
      if (flight.cursor == path.length()) {
        // Paper: empty routing-path field => the message is destined here.
        if (at == flight.message.destination.rank()) {
          deliver(flight);
        } else {
          drop(flight_index, DropReason::Misdelivered, at);
        }
        return;
      }
      hop = path.hop(flight.cursor);
    } else {
      if (at == flight.message.destination.rank()) {
        deliver(flight);
        return;
      }
      // Each site computes the greedy next hop itself — O(d k), no path
      // field consulted.
      const Word here = graph_.word(at);
      hop = config_.orientation == Orientation::Directed
                ? next_hop_unidirectional(here, flight.message.destination)
                : next_hop_bidirectional(here, flight.message.destination);
    }
    digit = hop.is_wildcard() ? resolve_wildcard(at, hop.type, rng_)
                              : hop.digit;
    to = shift_target(at, hop.type, digit);
    shift_label = hop.type == ShiftType::Left ? "L" : "R";
  }
  ++flight.cursor;
  if (failed_links_.contains(at * graph_.vertex_count() + to)) {
    drop(flight_index, DropReason::Link, at);
    return;
  }

  LinkState& link = links_[at * graph_.vertex_count() + to];
  const std::size_t backlog = queue_length(at, to);
  if (backlog >= config_.link_queue_capacity) {
    drop(flight_index, DropReason::Overflow, at);
    return;
  }
  stats_.max_queue = std::max(stats_.max_queue, backlog + 1);
  ++link.transmissions;
  const double start = std::max(now_, link.next_free);
  link.next_free = start + config_.link_delay;
  if (obs::tracing_enabled()) {
    sim_event("send", now_, at,
              {obs::targ("to", to), obs::targ("shift", shift_label),
               obs::targ("digit", static_cast<std::uint64_t>(digit)),
               obs::targ("queue", static_cast<std::uint64_t>(backlog))});
  }
  flight.at = to;
  schedule(start + config_.link_delay, flight_index);
}

}  // namespace dbn::net

#include "net/fault.hpp"

#include <algorithm>
#include <deque>

#include "common/contract.hpp"
#include "core/bfs_router.hpp"

namespace dbn::net {

const char* fault_event_kind_name(FaultEventKind kind) {
  switch (kind) {
    case FaultEventKind::SiteCrash:
      return "site.crash";
    case FaultEventKind::SiteRecover:
      return "site.recover";
    case FaultEventKind::LinkCrash:
      return "link.crash";
    case FaultEventKind::LinkRecover:
      return "link.recover";
  }
  return "?";
}

void FaultSchedule::add(const FaultEvent& event) {
  DBN_REQUIRE(event.time >= 0.0, "fault events cannot predate the run");
  if (!events_.empty() && sorted_ && event.time < events_.back().time) {
    sorted_ = false;
  }
  events_.push_back(event);
}

void FaultSchedule::site_crash(double time, std::uint64_t rank) {
  add(FaultEvent{time, FaultEventKind::SiteCrash, rank, 0});
}

void FaultSchedule::site_recover(double time, std::uint64_t rank) {
  add(FaultEvent{time, FaultEventKind::SiteRecover, rank, 0});
}

void FaultSchedule::link_crash(double time, std::uint64_t from,
                               std::uint64_t to) {
  add(FaultEvent{time, FaultEventKind::LinkCrash, from, to});
}

void FaultSchedule::link_recover(double time, std::uint64_t from,
                                 std::uint64_t to) {
  add(FaultEvent{time, FaultEventKind::LinkRecover, from, to});
}

void FaultSchedule::site_flap(std::uint64_t rank, double start, double down_for,
                              double up_for, int cycles) {
  DBN_REQUIRE(down_for > 0.0 && up_for >= 0.0 && cycles >= 1,
              "flap needs a positive down window and at least one cycle");
  double t = start;
  for (int c = 0; c < cycles; ++c) {
    site_crash(t, rank);
    site_recover(t + down_for, rank);
    t += down_for + up_for;
  }
}

void FaultSchedule::link_flap(std::uint64_t from, std::uint64_t to,
                              double start, double down_for, double up_for,
                              int cycles) {
  DBN_REQUIRE(down_for > 0.0 && up_for >= 0.0 && cycles >= 1,
              "flap needs a positive down window and at least one cycle");
  double t = start;
  for (int c = 0; c < cycles; ++c) {
    link_crash(t, from, to);
    link_recover(t + down_for, from, to);
    t += down_for + up_for;
  }
}

const std::vector<FaultEvent>& FaultSchedule::events() const {
  if (!sorted_) {
    std::stable_sort(events_.begin(), events_.end(),
                     [](const FaultEvent& lhs, const FaultEvent& rhs) {
                       return lhs.time < rhs.time;
                     });
    sorted_ = true;
  }
  return events_;
}

FaultAwareRouter::FaultAwareRouter(const DeBruijnGraph& graph,
                                   std::vector<bool> failed)
    : graph_(graph), failed_(std::move(failed)) {
  DBN_REQUIRE(failed_.size() == graph_.vertex_count(),
              "failed mask size must equal the vertex count");
}

std::optional<RoutingPath> FaultAwareRouter::route(const Word& x,
                                                   const Word& y) const {
  return route_avoiding(graph_, failed_, {}, x, y);
}

namespace {

/// BFS over survivors following `step` to enumerate moves; returns the
/// number of survivors reached from `start`.
template <typename NeighborsFn>
std::uint64_t reachable_survivors(const DeBruijnGraph& graph,
                                  const std::vector<bool>& failed,
                                  std::uint64_t start, NeighborsFn&& step) {
  std::vector<bool> seen(graph.vertex_count(), false);
  std::deque<std::uint64_t> frontier;
  seen[start] = true;
  frontier.push_back(start);
  std::uint64_t reached = 1;
  while (!frontier.empty()) {
    const std::uint64_t v = frontier.front();
    frontier.pop_front();
    for (const std::uint64_t w : step(v)) {
      if (seen[w] || failed[w]) {
        continue;
      }
      seen[w] = true;
      ++reached;
      frontier.push_back(w);
    }
  }
  return reached;
}

}  // namespace

bool survivors_connected(const DeBruijnGraph& graph,
                         const std::vector<bool>& failed) {
  DBN_REQUIRE(failed.size() == graph.vertex_count(),
              "failed mask size must equal the vertex count");
  std::uint64_t survivors = 0;
  std::uint64_t first = graph.vertex_count();
  for (std::uint64_t v = 0; v < graph.vertex_count(); ++v) {
    if (!failed[v]) {
      ++survivors;
      first = std::min(first, v);
    }
  }
  if (survivors <= 1) {
    return true;
  }
  const auto forward = [&graph](std::uint64_t v) { return graph.neighbors(v); };
  if (reachable_survivors(graph, failed, first, forward) != survivors) {
    return false;
  }
  if (graph.orientation() == Orientation::Directed) {
    // Strong connectivity needs the reverse direction too; predecessors of
    // X under left shifts are exactly the right shifts X^+(c).
    const auto backward = [&graph](std::uint64_t v) {
      std::vector<std::uint64_t> in;
      in.reserve(graph.radix());
      for (Digit c = 0; c < graph.radix(); ++c) {
        in.push_back(graph.right_shift_rank(v, c));
      }
      return in;
    };
    return reachable_survivors(graph, failed, first, backward) == survivors;
  }
  return true;
}

std::optional<RoutingPath> route_avoiding(
    const DeBruijnGraph& graph, const std::vector<bool>& failed_nodes,
    const std::unordered_set<std::uint64_t>& failed_links, const Word& x,
    const Word& y) {
  DBN_REQUIRE(failed_nodes.size() == graph.vertex_count(),
              "failed mask size must equal the vertex count");
  DBN_REQUIRE(x.radix() == graph.radix() && x.length() == graph.k() &&
                  y.radix() == graph.radix() && y.length() == graph.k(),
              "route endpoints must belong to the graph");
  const std::uint64_t source = x.rank();
  const std::uint64_t target = y.rank();
  if (failed_nodes[source] || failed_nodes[target]) {
    return std::nullopt;
  }
  if (source == target) {
    return RoutingPath{};
  }
  std::vector<std::int64_t> parent(graph.vertex_count(), -2);
  std::deque<std::uint64_t> frontier;
  parent[source] = -1;
  frontier.push_back(source);
  while (!frontier.empty() && parent[target] == -2) {
    const std::uint64_t v = frontier.front();
    frontier.pop_front();
    for (const std::uint64_t w : graph.neighbors(v)) {
      if (parent[w] != -2 || failed_nodes[w] ||
          failed_links.contains(v * graph.vertex_count() + w)) {
        continue;
      }
      parent[w] = static_cast<std::int64_t>(v);
      frontier.push_back(w);
    }
  }
  if (parent[target] == -2) {
    return std::nullopt;
  }
  std::vector<std::uint64_t> ranks;
  for (std::uint64_t v = target;; v = static_cast<std::uint64_t>(parent[v])) {
    ranks.push_back(v);
    if (parent[v] == -1) {
      break;
    }
  }
  std::reverse(ranks.begin(), ranks.end());
  RoutingPath path;
  for (std::size_t i = 0; i + 1 < ranks.size(); ++i) {
    path.push(classify_edge(graph, ranks[i], ranks[i + 1]));
  }
  return path;
}

std::vector<bool> random_fault_set(const DeBruijnGraph& graph,
                                   std::size_t count, Rng& rng) {
  DBN_REQUIRE(count < graph.vertex_count(),
              "cannot fail every site in the network");
  std::vector<bool> failed(graph.vertex_count(), false);
  std::size_t placed = 0;
  while (placed < count) {
    const std::uint64_t v = rng.below(graph.vertex_count());
    if (!failed[v]) {
      failed[v] = true;
      ++placed;
    }
  }
  return failed;
}

}  // namespace dbn::net

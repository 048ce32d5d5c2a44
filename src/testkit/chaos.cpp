#include "testkit/chaos.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <limits>
#include <map>
#include <sstream>

#include "common/contract.hpp"
#include "common/schema.hpp"
#include "net/fault.hpp"
#include "net/load_stats.hpp"
#include "obs/metrics.hpp"
#include "oracle/routers.hpp"

namespace dbn::testkit {

namespace {

constexpr std::string_view kHeader = schema::kChaos;

std::string format_double(double value) {
  std::ostringstream out;
  out << std::setprecision(17) << value;
  return out.str();
}

std::uint64_t pow_u64(std::uint64_t base, std::size_t exp) {
  std::uint64_t result = 1;
  for (std::size_t i = 0; i < exp; ++i) {
    result *= base;
  }
  return result;
}

}  // namespace

std::string_view chaos_policy_name(ChaosPolicy policy) {
  switch (policy) {
    case ChaosPolicy::SourceRouted:
      return "source";
    case ChaosPolicy::Greedy:
      return "greedy";
    case ChaosPolicy::Deflect:
      return "deflect";
    case ChaosPolicy::Layer:
      return "layer";
  }
  return "?";
}

std::optional<ChaosPolicy> chaos_policy_from_name(std::string_view name) {
  if (name == "source") {
    return ChaosPolicy::SourceRouted;
  }
  if (name == "greedy") {
    return ChaosPolicy::Greedy;
  }
  if (name == "deflect") {
    return ChaosPolicy::Deflect;
  }
  if (name == "layer") {
    return ChaosPolicy::Layer;
  }
  return std::nullopt;
}

std::uint64_t ChaosScenario::vertex_count() const {
  return pow_u64(d, k);
}

std::string ChaosScenario::to_text() const {
  std::ostringstream out;
  out << kHeader << "\n";
  out << "net " << d << " " << k << "\n";
  out << "seed " << seed << "\n";
  out << "delay " << format_double(link_delay) << "\n";
  out << "cap " << queue_capacity << "\n";
  if (policy != ChaosPolicy::SourceRouted) {
    // Omitted when source-routed so pre-policy scenario files round-trip
    // byte for byte.
    out << "policy " << chaos_policy_name(policy) << "\n";
  }
  out << "reliable " << format_double(reliable.timeout) << " "
      << reliable.max_attempts << " " << format_double(reliable.backoff) << " "
      << format_double(reliable.jitter) << " "
      << format_double(reliable.max_timeout) << " " << reliable.jitter_seed
      << "\n";
  for (const net::Transfer& t : transfers) {
    out << "transfer " << t.source << " " << t.destination << "\n";
  }
  for (const net::FaultEvent& e : schedule.events()) {
    switch (e.kind) {
      case net::FaultEventKind::SiteCrash:
        out << "site-crash " << format_double(e.time) << " " << e.a << "\n";
        break;
      case net::FaultEventKind::SiteRecover:
        out << "site-recover " << format_double(e.time) << " " << e.a << "\n";
        break;
      case net::FaultEventKind::LinkCrash:
        out << "link-crash " << format_double(e.time) << " " << e.a << " "
            << e.b << "\n";
        break;
      case net::FaultEventKind::LinkRecover:
        out << "link-recover " << format_double(e.time) << " " << e.a << " "
            << e.b << "\n";
        break;
    }
  }
  return out.str();
}

ChaosScenario ChaosScenario::parse(std::string_view text) {
  ChaosScenario s;
  s.transfers.clear();
  bool saw_header = false;
  bool saw_net = false;
  std::istringstream in{std::string(text)};
  std::string line;
  while (std::getline(in, line)) {
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') {
      continue;
    }
    std::istringstream fields(line);
    std::string tag;
    fields >> tag;
    if (!saw_header) {
      DBN_REQUIRE(tag == kHeader, "chaos scenario must start with '" +
                                      std::string(kHeader) + "'");
      saw_header = true;
      continue;
    }
    const auto need = [&fields, &line](auto&... values) {
      (fields >> ... >> values);
      DBN_REQUIRE(!fields.fail(), "malformed chaos line: " + line);
    };
    if (tag == "net") {
      need(s.d, s.k);
      DBN_REQUIRE(s.d >= 1 && s.k >= 1, "chaos net needs d >= 1 and k >= 1");
      // Ranks are 64-bit, so any d >= 2 network with k > 64 is already
      // unrepresentable; the bound also keeps vertex_count()'s k-step
      // multiply loop trivial for adversarial text (found by fuzzing:
      // "net 2 99999999999" used to stall in pow_u64 before failing).
      DBN_REQUIRE(s.k <= 64, "chaos k is bounded at 64 (64-bit ranks)");
      saw_net = true;
    } else if (tag == "seed") {
      need(s.seed);
    } else if (tag == "delay") {
      need(s.link_delay);
    } else if (tag == "cap") {
      need(s.queue_capacity);
    } else if (tag == "policy") {
      std::string name;
      need(name);
      const std::optional<ChaosPolicy> policy = chaos_policy_from_name(name);
      DBN_REQUIRE(policy.has_value(), "unknown chaos policy: " + name);
      s.policy = *policy;
    } else if (tag == "reliable") {
      need(s.reliable.timeout, s.reliable.max_attempts, s.reliable.backoff,
           s.reliable.jitter, s.reliable.max_timeout, s.reliable.jitter_seed);
    } else if (tag == "transfer") {
      net::Transfer t;
      need(t.source, t.destination);
      s.transfers.push_back(t);
    } else if (tag == "site-crash" || tag == "site-recover") {
      double time = 0.0;
      std::uint64_t rank = 0;
      need(time, rank);
      if (tag == "site-crash") {
        s.schedule.site_crash(time, rank);
      } else {
        s.schedule.site_recover(time, rank);
      }
    } else if (tag == "link-crash" || tag == "link-recover") {
      double time = 0.0;
      std::uint64_t from = 0;
      std::uint64_t to = 0;
      need(time, from, to);
      if (tag == "link-crash") {
        s.schedule.link_crash(time, from, to);
      } else {
        s.schedule.link_recover(time, from, to);
      }
    } else {
      DBN_REQUIRE(false, "unknown chaos line tag: " + tag);
    }
  }
  DBN_REQUIRE(saw_header, "empty chaos scenario (missing '" +
                              std::string(kHeader) + "' header)");
  DBN_REQUIRE(saw_net, "chaos scenario missing the 'net d k' line");
  const std::uint64_t n = s.vertex_count();
  for (const net::Transfer& t : s.transfers) {
    DBN_REQUIRE(t.source < n && t.destination < n,
                "chaos transfer rank outside the network");
  }
  for (const net::FaultEvent& e : s.schedule.events()) {
    DBN_REQUIRE(e.a < n && e.b < n, "chaos fault rank outside the network");
  }
  return s;
}

namespace {

/// The analytic quiescence bound: the last attempt fires no later than the
/// sum of maximal backoff windows, and the drain is bounded by worst-case
/// FIFO serialization of every transmission the run can make.
double clock_budget(const ChaosScenario& s) {
  const net::ReliableConfig& rc = s.reliable;
  double windows = 0.0;
  double w = rc.timeout;
  for (int j = 0; j < rc.max_attempts; ++j) {
    double capped = w;
    if (rc.max_timeout > 0.0) {
      capped = std::min(capped, rc.max_timeout);
    }
    windows += capped * (1.0 + rc.jitter);
    w *= rc.backoff;
  }
  const double n = static_cast<double>(s.vertex_count());
  const double messages =
      static_cast<double>(s.transfers.size()) * rc.max_attempts;
  // Any routed path visits each site at most once => <= n hops; every hop
  // can wait behind every other transmission on a FIFO link. Adaptive
  // walks revisit sites but are TTL-bounded, and the max(4k, 8) floor can
  // exceed n on tiny networks, so the bound is the larger of the two.
  double hops = n;
  if (s.policy == ChaosPolicy::Deflect || s.policy == ChaosPolicy::Layer) {
    hops = std::max(
        hops, static_cast<double>(std::max(4 * static_cast<int>(s.k), 8)));
  }
  const double drain = hops * (messages * hops + 1.0) * s.link_delay;
  return windows + drain + 1.0;
}

void check(std::vector<std::string>& violations, bool ok,
           const std::string& message) {
  if (!ok) {
    violations.push_back(message);
  }
}

}  // namespace

ChaosRunResult run_scenario(const ChaosScenario& scenario) {
  DBN_REQUIRE(scenario.d >= 1 && scenario.k >= 1,
              "chaos scenario needs d >= 1 and k >= 1");
  const std::uint64_t n = scenario.vertex_count();
  DBN_REQUIRE(n <= (1ull << 20), "chaos scenario network too large");
  for (const net::Transfer& t : scenario.transfers) {
    DBN_REQUIRE(t.source < n && t.destination < n,
                "chaos transfer rank outside the network");
  }

  net::SimConfig config;
  config.radix = scenario.d;
  config.k = scenario.k;
  config.orientation = Orientation::Undirected;
  config.link_delay = scenario.link_delay;
  config.link_queue_capacity = scenario.queue_capacity == 0
                                   ? std::numeric_limits<std::size_t>::max()
                                   : scenario.queue_capacity;
  config.wildcard_policy = net::WildcardPolicy::Zero;
  switch (scenario.policy) {
    case ChaosPolicy::SourceRouted:
      config.forwarding = net::ForwardingMode::SourceRouted;
      break;
    case ChaosPolicy::Greedy:
      config.forwarding = net::ForwardingMode::HopByHop;
      break;
    case ChaosPolicy::Deflect:
      config.forwarding = net::ForwardingMode::Adaptive;
      config.adaptive_scoring = net::AdaptiveScoring::Rescore;
      break;
    case ChaosPolicy::Layer:
      config.forwarding = net::ForwardingMode::Adaptive;
      config.adaptive_scoring = net::AdaptiveScoring::LayerTable;
      break;
  }
  config.seed = scenario.seed;
  net::Simulator sim(config);
  sim.set_fault_schedule(scenario.schedule);
  const DeBruijnGraph& graph = sim.graph();

  ChaosRunResult result;
  result.clock_budget = clock_budget(scenario);

  // Attempt 0 is the oblivious shortest path; retries consult the fault
  // state known at send time (route_avoiding), falling back to the
  // oblivious path when the survivors are partitioned.
  const net::AttemptRouter router = [&](const Word& x, const Word& y,
                                        int attempt) {
    if (attempt > 0) {
      const auto path = net::route_avoiding(graph, sim.failed_sites(),
                                            sim.failed_links(), x, y);
      if (path.has_value()) {
        return *path;
      }
    }
    return route_bidirectional_mp(x, y);
  };

  net::ReliableConfig rc = scenario.reliable;
  rc.record_attempts = true;
  rc.on_delivery = [&](const net::Message& message, double) {
    check(result.violations, !sim.is_failed(message.destination.rank()),
          "delivered to a dead site: destination " +
              std::to_string(message.destination.rank()));
  };
  result.report = net::run_reliable(sim, scenario.transfers, router, rc);
  result.stats = sim.stats();
  result.final_clock = sim.now();

  // Fold the run into the global registry so dbn_chaos --metrics-out
  // (and any embedding tool) gets sim.* plus transfer-level series;
  // counters accumulate across the scenarios of a fuzz/replay batch.
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  net::record_sim_metrics(registry, sim);
  registry.counter("reliable.transfers").inc(result.report.transfers);
  registry.counter("reliable.completed").inc(result.report.completed);
  registry.counter("reliable.abandoned").inc(result.report.abandoned);
  registry.counter("reliable.retransmissions")
      .inc(result.report.retransmissions);
  registry.counter("reliable.duplicate_deliveries")
      .inc(result.report.duplicate_deliveries);

  const net::ReliableReport& report = result.report;
  const net::SimStats& stats = result.stats;
  check(result.violations,
        report.completed + report.abandoned == report.transfers,
        "accounting: completed + abandoned != transfers");
  check(result.violations, report.transfers == scenario.transfers.size(),
        "accounting: report.transfers != |transfers|");
  check(result.violations,
        report.retransmissions <=
            report.transfers *
                static_cast<std::uint64_t>(rc.max_attempts - 1),
        "retry budget: retransmissions > transfers * (max_attempts - 1)");
  check(result.violations, result.final_clock <= result.clock_budget,
        "termination: final clock " + format_double(result.final_clock) +
            " exceeds budget " + format_double(result.clock_budget));
  check(result.violations,
        stats.injected == stats.delivered + stats.dropped_fault +
                              stats.dropped_link + stats.dropped_overflow +
                              stats.misdelivered + stats.dropped_ttl,
        "conservation: injected != sum of outcomes");
  check(result.violations, stats.misdelivered == 0,
        "conservation: misdelivered message (no policy may misdeliver)");
  check(result.violations,
        scenario.policy == ChaosPolicy::Deflect ||
            scenario.policy == ChaosPolicy::Layer || stats.dropped_ttl == 0,
        "policy: TTL drops under a non-adaptive forwarding policy");
  check(result.violations,
        scenario.queue_capacity != 0 || stats.dropped_overflow == 0,
        "capacity: overflow drops despite unlimited link queues");
  check(result.violations, report.traces.size() == scenario.transfers.size(),
        "traces: one trace per transfer");
  for (std::size_t id = 0; id < report.traces.size(); ++id) {
    const net::TransferTrace& trace = report.traces[id];
    const std::string where = "trace " + std::to_string(id) + ": ";
    check(result.violations,
          !trace.attempts.empty() &&
              trace.attempts.size() <=
                  static_cast<std::size_t>(rc.max_attempts),
          where + "attempt count outside [1, max_attempts]");
    int delivered_attempts = 0;
    for (std::size_t i = 0; i < trace.attempts.size(); ++i) {
      const net::AttemptRecord& a = trace.attempts[i];
      check(result.violations, a.attempt == static_cast<int>(i),
            where + "attempt indices must be consecutive");
      check(result.violations, a.window > 0.0,
            where + "non-positive retransmission window");
      if (i > 0) {
        check(result.violations,
              a.sent_at > trace.attempts[i - 1].sent_at,
              where + "attempt send times must strictly increase");
      }
      check(result.violations,
            (a.cause == net::AttemptCause::Initial) == (i == 0),
            where + "attempt cause must be Initial exactly for attempt 0");
      if (i == 0) {
        check(result.violations, a.backoff_delay == 0.0,
              where + "first attempt cannot have waited on a backoff");
      } else {
        // The realized backoff is exactly the previous window: the driver
        // retransmits the moment the armed deadline expires.
        const double expected = a.sent_at - trace.attempts[i - 1].sent_at;
        const double tolerance =
            1e-9 * std::max(1.0, std::abs(a.backoff_delay));
        check(result.violations,
              std::abs(a.backoff_delay - expected) <= tolerance &&
                  std::abs(a.backoff_delay - trace.attempts[i - 1].window) <=
                      tolerance,
              where + "backoff delay disagrees with the previous window");
      }
      delivered_attempts += a.outcome == net::AttemptOutcome::Delivered;
      if (a.outcome != net::AttemptOutcome::Pending) {
        check(result.violations, a.resolved_at >= a.sent_at,
              where + "attempt resolved before it was sent");
      }
    }
    check(result.violations, delivered_attempts == (trace.completed ? 1 : 0),
          where + "exactly the completed transfers have a Delivered attempt");
    if (trace.completed) {
      check(result.violations,
            trace.delivered_attempt >= 0 &&
                trace.delivered_attempt <
                    static_cast<int>(trace.attempts.size()) &&
                trace.attempts[static_cast<std::size_t>(
                                   trace.delivered_attempt)]
                        .outcome == net::AttemptOutcome::Delivered,
            where + "delivered_attempt must name the Delivered record");
    } else {
      check(result.violations, trace.delivered_attempt == -1,
            where + "incomplete transfers cannot name a delivered attempt");
    }
  }
  std::uint64_t completed_traces = 0;
  for (const net::TransferTrace& trace : report.traces) {
    completed_traces += trace.completed;
  }
  check(result.violations, completed_traces == report.completed,
        "traces: completed flags disagree with the report counter");
  return result;
}

std::string run_summary(const ChaosRunResult& result) {
  std::ostringstream out;
  const net::ReliableReport& r = result.report;
  const net::SimStats& s = result.stats;
  out << "completed=" << r.completed << " abandoned=" << r.abandoned
      << " retx=" << r.retransmissions << " dups=" << r.duplicate_deliveries
      << " completion=" << format_double(r.completion_time)
      << " clock=" << format_double(result.final_clock)
      << " injected=" << s.injected << " delivered=" << s.delivered
      << " dfault=" << s.dropped_fault << " dlink=" << s.dropped_link
      << " dover=" << s.dropped_overflow << " dttl=" << s.dropped_ttl
      << " defl=" << s.adaptive_deflections << " hops=" << s.total_hops
      << " faults=" << s.fault_events_applied
      << " violations=" << result.violations.size();
  return out.str();
}

ChaosRunResult run_deterministically(const ChaosScenario& scenario) {
  ChaosRunResult first = run_scenario(scenario);
  const ChaosRunResult second = run_scenario(scenario);
  if (run_summary(first) != run_summary(second)) {
    first.violations.push_back("non-deterministic replay: \"" +
                               run_summary(first) + "\" vs \"" +
                               run_summary(second) + "\"");
  }
  return first;
}

ChaosScenario random_scenario(Rng& rng) {
  struct Point {
    std::uint32_t d;
    std::size_t k;
  };
  // Includes the degenerate d = 1 (single site) and k = 1 corners.
  static constexpr Point kPoints[] = {
      {1, 1}, {1, 3}, {2, 1}, {2, 2}, {2, 3}, {2, 4},
      {2, 5}, {3, 1}, {3, 2}, {3, 3}, {4, 2}, {5, 1},
  };
  const Point point = kPoints[rng.below(std::size(kPoints))];

  ChaosScenario s;
  s.d = point.d;
  s.k = point.k;
  s.seed = rng();
  s.link_delay = std::vector<double>{0.5, 1.0, 2.0}[rng.below(3)];
  s.queue_capacity = rng.chance(0.4) ? 1 + rng.below(4) : 0;
  // Source-routed keeps the majority share (it exercises the paper's
  // forwarding machinery plus misdelivery accounting); the remainder
  // splits across greedy hop-by-hop and both adaptive scorings so the
  // fuzzer owns the deflection space too.
  switch (rng.below(8)) {
    case 0:
    case 1:
    case 2:
    case 3:
      s.policy = ChaosPolicy::SourceRouted;
      break;
    case 4:
      s.policy = ChaosPolicy::Greedy;
      break;
    case 5:
    case 6:
      s.policy = ChaosPolicy::Deflect;
      break;
    default:
      s.policy = ChaosPolicy::Layer;
      break;
  }
  s.reliable.timeout = static_cast<double>(4 + rng.below(61));
  s.reliable.max_attempts = 1 + static_cast<int>(rng.below(6));
  s.reliable.backoff = std::vector<double>{1.0, 1.5, 2.0}[rng.below(3)];
  s.reliable.jitter = std::vector<double>{0.0, 0.1, 0.3}[rng.below(3)];
  s.reliable.max_timeout =
      rng.chance(0.3) ? s.reliable.timeout * 8.0 : 0.0;
  s.reliable.jitter_seed = rng();

  const std::uint64_t n = s.vertex_count();
  const std::size_t transfer_count = 1 + rng.below(10);
  for (std::size_t i = 0; i < transfer_count; ++i) {
    s.transfers.push_back(net::Transfer{rng.below(n), rng.below(n)});
  }

  // Faults land inside the retry horizon so crashes, recoveries and flaps
  // interleave with retransmissions rather than after quiescence.
  const double horizon =
      s.reliable.timeout * static_cast<double>(s.reliable.max_attempts);
  const std::size_t event_count = rng.below(11);
  for (std::size_t i = 0; i < event_count; ++i) {
    const double t =
        std::floor(rng.uniform01() * horizon * 4.0) / 4.0;  // quarter ticks
    const std::uint64_t a = rng.below(n);
    switch (rng.below(6)) {
      case 0:
        s.schedule.site_crash(t, a);
        break;
      case 1:
        s.schedule.site_recover(t, a);
        break;
      case 2:
        s.schedule.link_crash(t, a, rng.below(n));
        break;
      case 3:
        s.schedule.link_recover(t, a, rng.below(n));
        break;
      case 4:
        s.schedule.site_flap(a, t, 1.0 + static_cast<double>(rng.below(16)),
                             1.0 + static_cast<double>(rng.below(16)),
                             1 + static_cast<int>(rng.below(3)));
        break;
      default:
        s.schedule.link_flap(a, rng.below(n), t,
                             1.0 + static_cast<double>(rng.below(16)),
                             1.0 + static_cast<double>(rng.below(16)),
                             1 + static_cast<int>(rng.below(3)));
        break;
    }
  }
  return s;
}

namespace {

net::FaultSchedule schedule_without(const std::vector<net::FaultEvent>& events,
                                    std::size_t drop_begin,
                                    std::size_t drop_end) {
  net::FaultSchedule schedule;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (i < drop_begin || i >= drop_end) {
      schedule.add(events[i]);
    }
  }
  return schedule;
}

std::uint64_t remap_rank(std::uint64_t rank, std::uint64_t n) {
  return n == 0 ? 0 : rank % n;
}

/// Candidate simplifications in a fixed order; the shrinker takes the
/// first one that still fails and restarts.
std::vector<ChaosScenario> shrink_candidates(const ChaosScenario& s) {
  std::vector<ChaosScenario> out;
  // 1. Drop transfers: halves first (front/back), then each single one.
  const std::size_t t = s.transfers.size();
  const auto drop_transfers = [&](std::size_t begin, std::size_t end) {
    ChaosScenario c = s;
    c.transfers.erase(c.transfers.begin() + static_cast<std::ptrdiff_t>(begin),
                      c.transfers.begin() + static_cast<std::ptrdiff_t>(end));
    out.push_back(std::move(c));
  };
  if (t >= 2) {
    drop_transfers(t / 2, t);
    drop_transfers(0, t / 2);
  }
  for (std::size_t i = 0; i < t; ++i) {
    drop_transfers(i, i + 1);
  }
  // 2. Drop fault events: halves, then singles.
  const std::vector<net::FaultEvent>& events = s.schedule.events();
  const std::size_t e = events.size();
  const auto drop_events = [&](std::size_t begin, std::size_t end) {
    ChaosScenario c = s;
    c.schedule = schedule_without(events, begin, end);
    out.push_back(std::move(c));
  };
  if (e >= 2) {
    drop_events(e / 2, e);
    drop_events(0, e / 2);
  }
  for (std::size_t i = 0; i < e; ++i) {
    drop_events(i, i + 1);
  }
  // 3. Lower the attempt budget.
  if (s.reliable.max_attempts > 1) {
    ChaosScenario c = s;
    c.reliable.max_attempts -= 1;
    out.push_back(std::move(c));
  }
  // 4. Simplify timing: kill jitter, backoff, the cap, the queue limit.
  if (s.reliable.jitter != 0.0) {
    ChaosScenario c = s;
    c.reliable.jitter = 0.0;
    out.push_back(std::move(c));
  }
  if (s.reliable.backoff != 1.0) {
    ChaosScenario c = s;
    c.reliable.backoff = 1.0;
    out.push_back(std::move(c));
  }
  if (s.reliable.max_timeout != 0.0) {
    ChaosScenario c = s;
    c.reliable.max_timeout = 0.0;
    out.push_back(std::move(c));
  }
  if (s.queue_capacity != 0) {
    ChaosScenario c = s;
    c.queue_capacity = 0;
    out.push_back(std::move(c));
  }
  if (s.link_delay != 1.0) {
    ChaosScenario c = s;
    c.link_delay = 1.0;
    out.push_back(std::move(c));
  }
  if (s.seed != 1) {
    ChaosScenario c = s;
    c.seed = 1;
    out.push_back(std::move(c));
  }
  if (s.policy != ChaosPolicy::SourceRouted) {
    ChaosScenario c = s;
    c.policy = ChaosPolicy::SourceRouted;
    out.push_back(std::move(c));
  }
  // 5. Shrink the network; ranks are remapped modulo the new size.
  const auto resize = [&](std::uint32_t d, std::size_t k) {
    ChaosScenario c = s;
    c.d = d;
    c.k = k;
    const std::uint64_t n = c.vertex_count();
    for (net::Transfer& tr : c.transfers) {
      tr.source = remap_rank(tr.source, n);
      tr.destination = remap_rank(tr.destination, n);
    }
    net::FaultSchedule remapped;
    for (net::FaultEvent ev : c.schedule.events()) {
      ev.a = remap_rank(ev.a, n);
      ev.b = remap_rank(ev.b, n);
      remapped.add(ev);
    }
    c.schedule = std::move(remapped);
    out.push_back(std::move(c));
  };
  if (s.k > 1) {
    resize(s.d, s.k - 1);
  }
  if (s.d > 1) {
    resize(s.d - 1, s.k);
  }
  return out;
}

}  // namespace

ChaosShrinkResult shrink_scenario(ChaosScenario scenario,
                                  const ChaosFailPredicate& still_fails) {
  DBN_REQUIRE(still_fails(scenario),
              "shrink_scenario requires a failing scenario on entry");
  ChaosShrinkResult result;
  bool progress = true;
  while (progress) {
    progress = false;
    for (ChaosScenario& candidate : shrink_candidates(scenario)) {
      ++result.candidates_tried;
      if (still_fails(candidate)) {
        scenario = std::move(candidate);
        ++result.reductions;
        progress = true;
        break;  // restart from the simplified scenario
      }
    }
  }
  result.scenario = std::move(scenario);
  return result;
}

ChaosFuzzReport run_chaos_fuzz(const ChaosFuzzOptions& options) {
  const auto started = std::chrono::steady_clock::now();
  const auto elapsed = [&started]() {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         started)
        .count();
  };
  ChaosFuzzReport report;
  std::map<std::string, std::uint64_t> coverage;
  const Rng root(options.seed);
  const ChaosFailPredicate fails = [](const ChaosScenario& s) {
    return !run_deterministically(s).ok();
  };
  for (std::uint64_t iter = 0; iter < options.iterations; ++iter) {
    if (options.time_budget_seconds > 0.0 &&
        elapsed() > options.time_budget_seconds) {
      break;
    }
    // Per-iteration substream: iteration i always sees the same scenario,
    // no matter how earlier iterations consumed randomness.
    Rng rng = root.fork(iter);
    ChaosScenario scenario = random_scenario(rng);
    if (options.policy.has_value()) {
      scenario.policy = *options.policy;
    }
    ++report.iterations_run;
    ++coverage["d=" + std::to_string(scenario.d) +
               ",k=" + std::to_string(scenario.k)];
    const ChaosRunResult run = run_deterministically(scenario);
    if (run.ok()) {
      continue;
    }
    ChaosFailure failure;
    failure.original = scenario;
    failure.shrunk = scenario;
    if (options.shrink) {
      if (options.log != nullptr) {
        *options.log << "dbn_chaos: violation at iteration " << iter
                     << ", shrinking...\n";
      }
      failure.shrunk = shrink_scenario(scenario, fails).scenario;
    }
    std::ostringstream details;
    for (const std::string& v : run_deterministically(failure.shrunk).violations) {
      details << v << "\n";
    }
    failure.details = details.str();
    report.failures.push_back(std::move(failure));
    if (options.log != nullptr) {
      *options.log << "dbn_chaos: invariant violation (#"
                   << report.failures.size() << "):\n"
                   << report.failures.back().details;
    }
    if (report.failures.size() >= options.max_failures) {
      break;
    }
  }
  report.point_coverage.assign(coverage.begin(), coverage.end());
  report.elapsed_seconds = elapsed();
  return report;
}

ChaosScenario load_chaos_file(const std::string& path) {
  std::ifstream file(path);
  DBN_REQUIRE(file.good(), "cannot open chaos file: " + path);
  std::ostringstream text;
  text << file.rdbuf();
  return ChaosScenario::parse(text.str());
}

std::vector<std::string> list_chaos_files(const std::string& dir) {
  namespace fs = std::filesystem;
  DBN_REQUIRE(fs::is_directory(dir), "not a directory: " + dir);
  std::vector<std::string> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file() && entry.path().extension() == ".chaos") {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::vector<std::string> replay_chaos_files(
    const std::vector<std::string>& files, std::ostream* log,
    std::optional<ChaosPolicy> policy_override) {
  std::vector<std::string> failures;
  for (const std::string& file : files) {
    ChaosScenario scenario = load_chaos_file(file);
    if (policy_override.has_value()) {
      scenario.policy = *policy_override;
    }
    const ChaosRunResult result = run_deterministically(scenario);
    if (log != nullptr) {
      *log << file << ": " << run_summary(result) << "\n";
    }
    for (const std::string& violation : result.violations) {
      failures.push_back(file + ": " + violation);
    }
  }
  return failures;
}

}  // namespace dbn::testkit

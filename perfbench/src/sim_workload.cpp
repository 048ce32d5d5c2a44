// sim_saturation: net::Simulator on undirected DN(2,8), link queues capped
// at 4, adaptive forwarding scored by distance-layer tables
// (AdaptiveScoring::LayerTable, `dbn simulate --policy=layer`), fed
// uniform_traffic at 0.35 per site over 60 time units (about 5.4k
// messages, the knee of the saturation sweep). 256 destinations against a
// 64-table cache make table builds nearly the whole cost; it is also the
// only workload that runs the library undirected_distance and the event
// loop.
//
// The same schedule is simulated many times per run: once alone, then in
// rounds of kSimulators simulators at once. The outcome must repeat
// exactly, and injected must equal delivered plus every drop.
#include <algorithm>
#include <barrier>
#include <iostream>
#include <set>
#include <thread>

#include "common/rng.hpp"
#include "common/schema.hpp"
#include "core/distance.hpp"
#include "core/layer_table.hpp"
#include "net/simulator.hpp"
#include "net/traffic.hpp"
#include "obs/metrics.hpp"
#include "strings/packed.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace dbn;

constexpr std::uint32_t kD = 2;
constexpr std::size_t kK = 8;
constexpr double kRate = 0.35;
constexpr double kDuration = 60.0;
constexpr std::size_t kQueueCap = 4;
constexpr std::size_t kCacheTables = 64;  // LayerTableOptions default
// Simulated time per timed step: 1,200 steps up to kDuration, so p99 has
// a dozen steps beyond it.
constexpr std::size_t kStepsPerUnit = 20;
constexpr double kStep = 1.0 / kStepsPerUnit;
// Simulators the window runs at once, each on its own thread. A lone
// simulator stays on whichever CPU the scheduler gave it, and on a shared
// 4-CPU host the same schedule ran up to a quarter faster on one CPU than
// on another; the median over the repetitions of four at once is steadier.
constexpr std::size_t kSimulators = 4;

net::SimConfig sim_config(std::uint64_t seed) {
  net::SimConfig config;
  config.radix = kD;
  config.k = kK;
  config.orientation = Orientation::Undirected;
  config.link_queue_capacity = kQueueCap;
  config.forwarding = net::ForwardingMode::Adaptive;
  config.adaptive_scoring = net::AdaptiveScoring::LayerTable;
  config.seed = seed;
  return config;
}

struct LayerCounters {
  std::uint64_t lookups = 0, hits = 0, builds = 0, evictions = 0;
  friend bool operator==(const LayerCounters&, const LayerCounters&) = default;

  LayerCounters operator-(const LayerCounters& o) const {
    return {lookups - o.lookups, hits - o.hits, builds - o.builds,
            evictions - o.evictions};
  }
  LayerCounters& operator+=(const LayerCounters& o) {
    lookups += o.lookups;
    hits += o.hits;
    builds += o.builds;
    evictions += o.evictions;
    return *this;
  }
  LayerCounters times(std::uint64_t n) const {
    return {lookups * n, hits * n, builds * n, evictions * n};
  }
};

// Everything that must repeat exactly for a seed.
struct Outcome {
  std::uint64_t injected = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped_fault = 0;
  std::uint64_t dropped_link = 0;
  std::uint64_t dropped_overflow = 0;
  std::uint64_t misdelivered = 0;
  std::uint64_t dropped_ttl = 0;
  std::uint64_t hops = 0;  // link transmissions, every message
  std::uint64_t delivered_hops = 0;
  std::uint64_t deflections = 0;
  LayerCounters layer;  // this simulation's LayerTable counters
  friend bool operator==(const Outcome&, const Outcome&) = default;

  std::uint64_t drops() const {
    return dropped_fault + dropped_link + dropped_overflow + misdelivered +
           dropped_ttl;
  }
};

/// The process-wide LayerTable counters. A simulation's own counters are
/// the change across it while nothing else uses a LayerTable.
LayerCounters layer_counters() {
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::global().snapshot();
  const auto count = [&snap](std::string_view name) -> std::uint64_t {
    const obs::MetricSnapshot* m = snap.find(name);
    return m == nullptr ? 0 : m->count;
  };
  return LayerCounters{count(schema::metric::kLayerLookups),
                       count(schema::metric::kLayerHits),
                       count(schema::metric::kLayerBuilds),
                       count(schema::metric::kLayerEvictions)};
}

// Times are the simulator thread's CPU time (thread_cpu_seconds): a
// simulator runs on one thread and never waits, so that is its wall time
// less the time the CPU was taken from it. On a shared 4-CPU VM, wall-clock
// figures of the same schedule moved with the host's steal.
struct Rep {
  Outcome outcome;  // layer counters left 0: the caller reads them
  bool traced = false;
  double inject_s = 0.0;
  double run_s = 0.0;
  double run_wall_s = 0.0;      // wall time of run(), printed beside run_s
  std::vector<double> step_us;  // CPU time per kStep of simulated time
};

// Messages are inputs: built before any clock starts.
std::vector<net::Message> make_messages(
    const std::vector<net::Injection>& schedule) {
  std::vector<net::Message> messages;
  messages.reserve(schedule.size());
  for (const net::Injection& inj : schedule) {
    messages.emplace_back(net::ControlCode::Data,
                          Word::from_rank(kD, kK, inj.source),
                          Word::from_rank(kD, kK, inj.destination),
                          RoutingPath());
  }
  return messages;
}

Rep simulate(const net::SimConfig& config,
             const std::vector<net::Injection>& schedule) {
  std::vector<net::Message> messages = make_messages(schedule);
  Rep rep;
  rep.traced = spans().enabled();
  SpanLog::Scope rep_span(spans(), "sim.rep");
  const double t1 = thread_cpu_seconds();
  net::Simulator sim(config);
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    sim.inject(schedule[i].time, std::move(messages[i]));
  }
  const double t2 = thread_cpu_seconds();
  const Clock::time_point wall_start = Clock::now();
  {
    SpanLog::Scope run_span(spans(), "sim.run", rep_span.id());
    // Windowed run(): kStep of simulated time per call, the same event
    // order as one run() to completion; stops once every message is
    // delivered or dropped.
    for (std::size_t step = 1;; ++step) {
      const double until = kStep * static_cast<double>(step);
      SpanLog::Scope step_span(spans(), "sim.step", run_span.id());
      const double s0 = thread_cpu_seconds();
      sim.run(until);
      rep.step_us.push_back((thread_cpu_seconds() - s0) * 1e6);
      const net::SimStats& st = sim.stats();
      const std::uint64_t resolved =
          st.delivered + st.dropped_fault + st.dropped_link +
          st.dropped_overflow + st.misdelivered + st.dropped_ttl;
      if (resolved >= st.injected || until > kDuration + 1000.0) {
        break;
      }
    }
  }
  rep.run_wall_s = seconds_between(wall_start, Clock::now());
  rep.inject_s = t2 - t1;
  rep.run_s = thread_cpu_seconds() - t2;
  const net::SimStats& st = sim.stats();
  Outcome& o = rep.outcome;
  o.injected = st.injected;
  o.delivered = st.delivered;
  o.dropped_fault = st.dropped_fault;
  o.dropped_link = st.dropped_link;
  o.dropped_overflow = st.dropped_overflow;
  o.misdelivered = st.misdelivered;
  o.dropped_ttl = st.dropped_ttl;
  o.delivered_hops = st.total_hops;
  o.deflections = st.adaptive_deflections;
  for (const std::uint64_t n : sim.link_transmissions()) {
    o.hops += n;
  }
  rep_span.set_ops(o.injected);
  return rep;
}

/// One simulation with nothing else running, so the change in the
/// process-wide counters across it is its own.
Rep simulate_alone(const net::SimConfig& config,
                   const std::vector<net::Injection>& schedule) {
  const LayerCounters before = layer_counters();
  Rep rep = simulate(config, schedule);
  rep.outcome.layer = layer_counters() - before;
  return rep;
}

/// setup_s: the simulator built and the schedule injected, timed alone.
double median_setup_s(const net::SimConfig& config,
                      const std::vector<net::Injection>& schedule) {
  std::vector<double> setups;
  for (const Clock::time_point first = Clock::now(); setup_due(setups, first);) {
    std::vector<net::Message> messages = make_messages(schedule);
    const Clock::time_point t0 = Clock::now();
    net::Simulator sim(config);
    for (std::size_t m = 0; m < schedule.size(); ++m) {
      sim.inject(schedule[m].time, std::move(messages[m]));
    }
    setups.push_back(seconds_between(t0, Clock::now()));
  }
  return median(setups);
}

/// Messages of repetitions that break the accounting identity (injected
/// == delivered + every drop, and == scheduled) or differ from the first
/// repetition's outcome; `why` collects the broken rules.
std::uint64_t check_outcomes(const std::vector<Outcome>& outcomes,
                             std::size_t scheduled,
                             std::vector<std::string>& why) {
  std::uint64_t failed = 0;
  for (const Outcome& o : outcomes) {
    const bool balanced =
        o.injected == o.delivered + o.drops() && o.injected == scheduled;
    if (!balanced || !(o == outcomes.front())) {
      failed += o.injected;
      why.emplace_back(!balanced ? "injected != delivered + drops"
                                 : "outcome did not repeat for the seed");
    }
  }
  return failed;
}

/// Cold LayerTable::view builds, timed between the steps of a simulation
/// of the schedule: one build of the next destination after each step, on
/// an uncached table. They run on the heap and caches a simulation leaves,
/// as the simulator's own builds do; timed on a quiet heap instead, builds
/// came out about a tenth cheaper than the simulations' run time implied.
/// Returns the mean CPU time per build, in microseconds.
double time_builds_in_simulation(const net::SimConfig& config,
                                 const std::vector<net::Injection>& schedule,
                                 const DeBruijnGraph& graph,
                                 const std::vector<std::uint64_t>& destinations) {
  LayerTable table(graph, LayerTableOptions{.cache_destinations = 0});
  std::vector<net::Message> messages = make_messages(schedule);
  net::Simulator sim(config);
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    sim.inject(schedule[i].time, std::move(messages[i]));
  }
  double total_us = 0.0;
  std::size_t builds = 0;
  for (std::size_t step = 1; kStep * static_cast<double>(step) <= kDuration; ++step) {
    sim.run(kStep * static_cast<double>(step));
    const Word dest = graph.word(destinations[step % destinations.size()]);
    const double t0 = thread_cpu_seconds();
    const std::shared_ptr<const LayerTable::View> view = table.view(dest);
    total_us += (thread_cpu_seconds() - t0) * 1e6;
    ++builds;
  }
  return total_us / static_cast<double>(builds);
}

/// What the window's rounds do. Untraced runs repeat Untraced rounds; a
/// traced run cycles Untraced, Traced (the benchmark's spans on) and
/// Builds (cold table builds timed on every thread, so they meet the same
/// load and drift as the simulations they account for).
enum class Phase { Untraced, Traced, Builds, Stop };

struct SimWindow {
  std::vector<Rep> reps;
  std::vector<double> build_us;  // per build, one entry per Builds round
  LayerCounters counters;        // over the simulation rounds only
};

SimWindow run_window(const net::SimConfig& config,
                     const std::vector<net::Injection>& schedule,
                     const DeBruijnGraph& graph,
                     const std::vector<std::uint64_t>& destinations,
                     double seconds, bool trace) {
  SimWindow w;
  std::vector<std::vector<Rep>> reps(kSimulators);
  std::vector<std::vector<double>> builds(kSimulators);
  Phase phase = Phase::Untraced;
  std::size_t round = 0;
  LayerCounters last = layer_counters();
  const Clock::time_point start = Clock::now();
  // Runs once per round, after every thread finished it: files the round's
  // counter change, then picks the next round. A traced run stops only
  // after a whole Untraced-Traced-Builds cycle.
  const auto next_round = [&]() noexcept {
    const LayerCounters now = layer_counters();
    if (phase != Phase::Builds) {
      w.counters += now - last;
    }
    last = now;
    ++round;
    const std::size_t cycle = trace ? 3 : 1;
    if (round % cycle == 0 && seconds_between(start, Clock::now()) >= seconds) {
      phase = Phase::Stop;
    } else {
      phase = trace ? static_cast<Phase>(round % 3) : Phase::Untraced;
    }
    spans().enable(phase == Phase::Traced);
  };
  std::barrier sync(static_cast<std::ptrdiff_t>(kSimulators), next_round);
  spans().enable(false);
  {
    std::vector<std::jthread> threads;
    for (std::size_t t = 0; t < kSimulators; ++t) {
      threads.emplace_back([&, t] {
        for (;;) {
          if (phase == Phase::Stop) {
            return;
          }
          if (phase == Phase::Builds) {
            builds[t].push_back(
                time_builds_in_simulation(config, schedule, graph, destinations));
          } else {
            reps[t].push_back(simulate(config, schedule));
          }
          sync.arrive_and_wait();
        }
      });
    }
  }
  spans().enable(trace);
  for (std::size_t t = 0; t < kSimulators; ++t) {
    for (Rep& r : reps[t]) {
      w.reps.push_back(std::move(r));
    }
    w.build_us.insert(w.build_us.end(), builds[t].begin(), builds[t].end());
  }
  return w;
}

}  // namespace

int sim_selftest() {
  Rng rng(5);
  const std::vector<net::Injection> schedule =
      net::uniform_traffic(kD, kK, 0.05, 5.0, rng);
  const net::SimConfig config = sim_config(5);
  std::vector<Outcome> outcomes = {simulate_alone(config, schedule).outcome,
                                   simulate_alone(config, schedule).outcome};
  std::vector<std::string> why;
  int missed = 0;
  const auto expect = [&](bool caught, const char* what) {
    std::cout << (caught ? "ok   " : "FAIL ") << "sim: " << what << "\n";
    missed += caught ? 0 : 1;
  };
  expect(check_outcomes(outcomes, schedule.size(), why) == 0,
         "two runs of one seed balance and repeat");
  std::vector<Outcome> lost = outcomes;
  lost[1].delivered -= 1;  // a message neither delivered nor dropped
  expect(check_outcomes(lost, schedule.size(), why) == lost[1].injected,
         "a vanished message fails the accounting");
  std::vector<Outcome> drift = outcomes;
  drift[1].layer.builds += 1;  // a counter that did not repeat
  expect(check_outcomes(drift, schedule.size(), why) == drift[1].injected,
         "a layer counter that does not repeat fails");
  return missed;
}

Result run_sim(const RunOptions& options) {
  Result result;
  Rng rng(options.seed);
  const std::vector<net::Injection> schedule =
      net::uniform_traffic(kD, kK, kRate, kDuration, rng);
  const net::SimConfig config = sim_config(options.seed);
  const DeBruijnGraph graph(kD, kK, Orientation::Undirected);
  std::set<std::uint64_t> distinct;
  for (const net::Injection& inj : schedule) {
    distinct.insert(inj.destination);
  }
  const std::vector<std::uint64_t> destinations(distinct.begin(), distinct.end());
  double distance_sum = 0.0;
  for (const net::Injection& inj : schedule) {
    distance_sum += undirected_distance(graph.word(inj.source),
                                        graph.word(inj.destination));
  }
  result.note("network", "DN(2,8) undirected, link queue cap 4, adaptive "
                         "forwarding with layer tables");
  result.note("load", "uniform_traffic 0.35 per site over 60 time units; "
                      "4 simulators at once, each repeating the schedule");
  result.note("input.messages", static_cast<double>(schedule.size()));
  result.note("input.mean_distance",
              distance_sum / static_cast<double>(schedule.size()));
  result.note("input.distinct_destinations",
              static_cast<double>(destinations.size()));
  result.note("input.layer_cache_tables", static_cast<double>(kCacheTables));
  result.note("input.fits_packed_lane", strings::packable(kD, kK) ? "yes" : "no");

  const double setup_s = median_setup_s(config, schedule);

  // One simulation alone first: the reference outcome, with the layer
  // counters, that every repetition in the window must match.
  const Rep alone = simulate_alone(config, schedule);
  const Outcome& first = alone.outcome;
  SimWindow w;
  {
    SpanLog::Scope span(spans(), "window");
    w = run_window(config, schedule, graph, destinations, options.seconds,
                   options.trace);
  }

  // Checks: accounting per repetition, exact repetition for the seed, and
  // the window's layer counters equal to one simulation's times the
  // repetitions (the counters are process-wide, so the simulations that
  // ran at once are checked together).
  std::vector<Outcome> outcomes = {first};
  result.attempted = first.injected;
  for (const Rep& r : w.reps) {
    outcomes.push_back(r.outcome);
    outcomes.back().layer = first.layer;
    result.attempted += r.outcome.injected;
  }
  std::vector<std::string> why;
  result.failed = check_outcomes(outcomes, schedule.size(), why);
  if (!(w.counters == first.layer.times(w.reps.size()))) {
    result.failed += first.injected * w.reps.size();
    why.emplace_back("layer counters did not repeat for the seed");
  }
  for (const std::string& reason : why) {
    result.problem(reason);
  }

  // End-to-end figures over the untraced repetitions: throughput from the
  // median run time, latency from every step up to kDuration, both in the
  // simulator thread's CPU time.
  std::vector<double> steps;
  std::vector<double> inject_s;
  std::vector<double> run_s[2];  // untraced, traced repetitions
  std::vector<double> run_wall_s;
  for (const Rep& r : w.reps) {
    run_s[r.traced ? 1 : 0].push_back(r.run_s);
    if (r.traced) {
      continue;
    }
    inject_s.push_back(r.inject_s);
    run_wall_s.push_back(r.run_wall_s);
    for (std::size_t s = 0; s < r.step_us.size(); ++s) {
      if (kStep * static_cast<double>(s + 1) <= kDuration) {
        steps.push_back(r.step_us[s]);
      }
    }
  }
  const double messages = static_cast<double>(first.injected);
  const double median_run_s = median(run_s[0]);
  double total_run_s = 0.0;
  for (const double r : run_s[0]) {
    total_run_s += r;
  }
  result.set("throughput", messages / median_run_s, "1/s");
  result.set("p50_us", percentile(steps, 50.0), "us");
  result.note("p99_us", full_digits(percentile(steps, 99.0)) + " us");
  result.note("mean_throughput",
              full_digits(messages * static_cast<double>(run_s[0].size()) /
                          total_run_s) +
                  " 1/s");
  result.note("wall_throughput",
              full_digits(messages / median(run_wall_s)) +
                  " 1/s (median over repetitions, wall clock)");
  result.set("setup_s", setup_s, "s");
  result.note("timing", "CPU time of each simulator's thread; wall_throughput "
                        "is the same median on the wall clock");
  result.note("latency", "CPU time per 1/20 simulated time unit, t <= 60");
  result.note("latency_samples", static_cast<double>(steps.size()));
  result.note("repetitions", static_cast<double>(run_s[0].size()));
  result.note("sim.undelivered_frac",
              static_cast<double>(first.drops()) /
                  static_cast<double>(std::max<std::uint64_t>(first.injected, 1)));

  if (!options.trace) {
    return result;
  }

  // --- per-layer metrics ----------------------------------------------
  result.set("layer.lookups", static_cast<double>(first.layer.lookups), "count");
  result.set("layer.hits", static_cast<double>(first.layer.hits), "count");
  result.set("layer.builds", static_cast<double>(first.layer.builds), "count");
  result.set("layer.evictions", static_cast<double>(first.layer.evictions), "count");
  result.set("sim.inject_s", median(inject_s), "s");
  result.set("sim.run_s", median_run_s, "s");
  result.set("sim.hops", static_cast<double>(first.hops), "count");
  result.set("sim.dropped.fault", static_cast<double>(first.dropped_fault), "count");
  result.set("sim.dropped.link", static_cast<double>(first.dropped_link), "count");
  result.set("sim.dropped.overflow", static_cast<double>(first.dropped_overflow),
             "count");
  result.set("sim.dropped.misdelivered", static_cast<double>(first.misdelivered),
             "count");
  result.set("sim.dropped.ttl", static_cast<double>(first.dropped_ttl), "count");
  result.set("layer.build_us", median(w.build_us), "us");

  // Offline, on one thread, on the run's own (source, destination) pairs.
  // One decision per (source, neighbor) of each message.
  LayerTable table(graph);
  std::vector<std::shared_ptr<const LayerTable::View>> views;
  for (const std::uint64_t dest : destinations) {
    views.push_back(table.view(graph.word(dest)));
  }
  std::vector<const LayerTable::View*> decision_view;
  std::vector<std::uint64_t> decision_from, decision_to;
  double degree_sum = 0.0;
  for (const net::Injection& inj : schedule) {
    const auto at = std::lower_bound(destinations.begin(), destinations.end(),
                                     inj.destination);
    const LayerTable::View* view =
        views[static_cast<std::size_t>(at - destinations.begin())].get();
    for (const std::uint64_t n : graph.neighbors(inj.source)) {
      decision_view.push_back(view);
      decision_from.push_back(inj.source);
      decision_to.push_back(n);
      degree_sum += 1.0;
    }
  }
  const double mean_degree = degree_sum / static_cast<double>(schedule.size());
  {
    SpanLog::Scope span(spans(), "offline.layer.classify");
    std::uint64_t sink = 0;
    std::uint64_t n = 0;
    const Clock::time_point t0 = Clock::now();
    while (n == 0 || seconds_between(t0, Clock::now()) < 0.1) {
      for (std::size_t i = 0; i < decision_view.size(); ++i) {
        sink += static_cast<std::uint64_t>(
            decision_view[i]->classify(decision_from[i], decision_to[i]));
      }
      n += decision_view.size();
    }
    result.set("layer.classify_ns",
               micros_between(t0, Clock::now()) * 1e3 /
                   static_cast<double>(std::max<std::uint64_t>(n, 1)),
               "ns");
    span.set_ops(sink + n);
  }
  std::vector<RouteQuery> pairs;
  for (const net::Injection& inj : schedule) {
    pairs.push_back(RouteQuery{graph.word(inj.source), graph.word(inj.destination)});
  }
  {
    SpanLog::Scope span(spans(), "offline.distance.undirected");
    std::uint64_t sink = 0;
    const Clock::time_point t0 = Clock::now();
    for (const RouteQuery& q : pairs) {
      sink += static_cast<std::uint64_t>(undirected_distance(q.x, q.y));
    }
    result.set("distance.undirected_ns",
               micros_between(t0, Clock::now()) * 1e3 /
                   static_cast<double>(pairs.size()),
               "ns");
    span.set_ops(sink == 0 ? 0 : pairs.size());
  }
  time_kernels(pairs, kK, 0.2, result);

  // Event handling is what is left of run() once builds and decisions are
  // taken out; every hop was one decision over ~mean_degree neighbors, and
  // every overflow or stuck drop one more. While builds are nearly all of
  // run(), this remainder is within the noise of the subtraction and can
  // come out below 0.
  const double run_ns = median_run_s * 1e9;
  const double build_ns = static_cast<double>(first.layer.builds) *
                          result.metrics["layer.build_us"].value * 1e3;
  const double decisions =
      static_cast<double>(first.hops + first.dropped_overflow + first.dropped_fault);
  const double decide_ns =
      decisions * mean_degree * result.metrics["layer.classify_ns"].value;
  const double hops = static_cast<double>(std::max<std::uint64_t>(first.hops, 1));
  result.set("sim.event_ns", (run_ns - build_ns - decide_ns) / hops, "ns");
  result.note("sim.decisions", decisions);
  result.note("trace.build_rounds", static_cast<double>(w.build_us.size()));

  Attribution& a = result.attribution;
  a.figure = "simulator CPU ns per simulated message (run time / messages)";
  a.untraced = median_run_s * 1e9 / messages;
  a.traced = median(run_s[1]) * 1e9 / messages;
  a.rows = {
      {"layer.build", build_ns / messages,
       "builds x cold LayerTable::view, timed inside simulations in the window"},
      {"layer.classify", decide_ns / messages,
       "decisions x neighbors x View::classify, offline"},
  };
  a.leftover = "sim.event: the event loop, queues, neighbor lists";
  return result;
}

}  // namespace perfbench

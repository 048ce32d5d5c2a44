// Chaos-layer tests: FaultSchedule semantics on the simulator, the
// run_reliable report invariants the ISSUE names (accounting, retry
// budget, completion-time monotonicity in the timeout), backoff/jitter
// window shapes, receiver-side dedup, and the chaos engine itself
// (text round-trip, invariant sweeps, the shrinker, fuzz determinism).
#include <gtest/gtest.h>

#include <string>
#include <unordered_set>
#include <vector>

#include "common/contract.hpp"
#include "common/rng.hpp"
#include "core/distance.hpp"
#include "net/fault.hpp"
#include "net/reliable.hpp"
#include "net/simulator.hpp"
#include "oracle/routers.hpp"
#include "testing_util.hpp"
#include "testkit/chaos.hpp"

namespace dbn::net {
namespace {

TEST(ChaosSchedule, EventsSortStablyByTime) {
  FaultSchedule s;
  s.site_crash(5.0, 1);
  s.link_crash(2.0, 0, 1);
  s.site_recover(5.0, 1);  // same instant: insertion order must survive
  s.site_crash(0.0, 3);
  const auto& ev = s.events();
  ASSERT_EQ(ev.size(), 4u);
  EXPECT_EQ(ev[0].time, 0.0);
  EXPECT_EQ(ev[1].time, 2.0);
  EXPECT_EQ(ev[2].kind, FaultEventKind::SiteCrash);
  EXPECT_EQ(ev[3].kind, FaultEventKind::SiteRecover);
}

TEST(ChaosSchedule, FlapExpandsToAlternatingCrashRecoverPairs) {
  FaultSchedule s;
  s.site_flap(5, 10.0, 2.0, 3.0, 3);
  const auto& ev = s.events();
  ASSERT_EQ(ev.size(), 6u);
  const double down_at[] = {10.0, 15.0, 20.0};
  for (int cycle = 0; cycle < 3; ++cycle) {
    EXPECT_EQ(ev[2 * cycle].kind, FaultEventKind::SiteCrash);
    EXPECT_EQ(ev[2 * cycle].time, down_at[cycle]);
    EXPECT_EQ(ev[2 * cycle + 1].kind, FaultEventKind::SiteRecover);
    EXPECT_EQ(ev[2 * cycle + 1].time, down_at[cycle] + 2.0);
    EXPECT_EQ(ev[2 * cycle].a, 5u);
  }
}

TEST(ChaosSchedule, CrashAppliesBeforeArrivalAtTheSameInstant) {
  // D(000, 111) = 3, so with link_delay 1 the message lands on site 7 at
  // exactly t = 3 — the instant the schedule kills it. Crash wins.
  SimConfig config;
  config.radix = 2;
  config.k = 3;
  Simulator sim(config);
  const Word src = Word::zero(2, 3);
  const Word dst(2, {1, 1, 1});
  const RoutingPath path = route_bidirectional_mp(src, dst);
  ASSERT_EQ(path.length(), 3u);
  FaultSchedule schedule;
  schedule.site_crash(3.0, dst.rank());
  sim.set_fault_schedule(schedule);
  sim.inject(0.0, Message(ControlCode::Data, src, dst, path));
  sim.run();
  EXPECT_EQ(sim.stats().delivered, 0u);
  EXPECT_EQ(sim.stats().dropped_fault, 1u);
  EXPECT_EQ(sim.stats().fault_events_applied, 1u);
  EXPECT_TRUE(sim.is_failed(dst.rank()));
}

TEST(ChaosSchedule, RecoveryRestoresDelivery) {
  SimConfig config;
  config.radix = 2;
  config.k = 3;
  Simulator sim(config);
  const Word src = Word::zero(2, 3);
  const Word dst(2, {1, 1, 1});
  const RoutingPath path = route_bidirectional_mp(src, dst);
  FaultSchedule schedule;
  schedule.site_crash(3.0, dst.rank());
  schedule.site_recover(3.5, dst.rank());
  sim.set_fault_schedule(schedule);
  sim.inject(0.0, Message(ControlCode::Data, src, dst, path));  // dies at 3
  sim.inject(1.0, Message(ControlCode::Data, src, dst, path));  // lands at 4
  sim.run();
  EXPECT_EQ(sim.stats().dropped_fault, 1u);
  EXPECT_EQ(sim.stats().delivered, 1u);
  EXPECT_EQ(sim.stats().fault_events_applied, 2u);
  EXPECT_FALSE(sim.is_failed(dst.rank()));
}

TEST(ChaosSchedule, LinkFlapDropsOnlyDuringDownWindows) {
  SimConfig config;
  config.radix = 2;
  config.k = 3;
  Simulator sim(config);
  const Word src = Word::zero(2, 3);
  const Word dst(2, {1, 1, 1});
  const RoutingPath path = route_bidirectional_mp(src, dst);
  const Word first_hop = src.left_shift(path.hop(0).digit);
  FaultSchedule schedule;
  schedule.link_flap(src.rank(), first_hop.rank(), 0.0, 2.0, 2.0, 2);
  sim.set_fault_schedule(schedule);
  // t = 0: the link is inside its first down window -> dropped.
  sim.inject(0.0, Message(ControlCode::Data, src, dst, path));
  // t = 2: the recovery at 2.0 applies before the forward at 2.0 -> clean.
  sim.inject(2.0, Message(ControlCode::Data, src, dst, path));
  sim.run();
  EXPECT_EQ(sim.stats().dropped_link, 1u);
  EXPECT_EQ(sim.stats().delivered, 1u);
}

TEST(ChaosSchedule, WindowedRunAdvancesFaultStateWithoutTraffic) {
  SimConfig config;
  config.radix = 2;
  config.k = 3;
  Simulator sim(config);
  FaultSchedule schedule;
  schedule.site_crash(5.0, 2);
  sim.set_fault_schedule(schedule);
  EXPECT_EQ(sim.pending_fault_events(), 1u);
  sim.run(2.0);
  EXPECT_FALSE(sim.is_failed(2)) << "the crash at 5 is still in the future";
  EXPECT_EQ(sim.pending_fault_events(), 1u);
  sim.run(10.0);
  EXPECT_TRUE(sim.is_failed(2));
  EXPECT_EQ(sim.pending_fault_events(), 0u);
  EXPECT_EQ(sim.stats().fault_events_applied, 1u);
}

TEST(ChaosSchedule, PastEventsApplyOnInstall) {
  SimConfig config;
  config.radix = 2;
  config.k = 3;
  Simulator sim(config);
  FaultSchedule schedule;
  schedule.site_crash(0.0, 6);
  sim.set_fault_schedule(schedule);
  EXPECT_TRUE(sim.is_failed(6)) << "events at or before now() apply eagerly";
  EXPECT_EQ(sim.pending_fault_events(), 0u);
}

TEST(ChaosSchedule, RejectsOutOfRangeRanks) {
  SimConfig config;
  config.radix = 2;
  config.k = 3;  // N = 8
  Simulator sim(config);
  FaultSchedule bad_site;
  bad_site.site_crash(1.0, 8);
  EXPECT_THROW(sim.set_fault_schedule(bad_site), ContractViolation);
  FaultSchedule bad_link;
  bad_link.link_crash(1.0, 0, 8);
  EXPECT_THROW(sim.set_fault_schedule(bad_link), ContractViolation);
}

AttemptRouter fault_steering_router(
    const DeBruijnGraph& g, const std::vector<bool>& failed,
    const std::unordered_set<std::uint64_t>& failed_links) {
  return [&g, &failed, &failed_links](const Word& x, const Word& y,
                                      int attempt) {
    if (attempt == 0) {
      return route_bidirectional_mp(x, y);
    }
    const auto detour = route_avoiding(g, failed, failed_links, x, y);
    return detour.value_or(route_bidirectional_mp(x, y));
  };
}

TEST(ChaosReliable, AccountingAndRetryBudgetHoldAcrossFaultDensities) {
  const DeBruijnGraph g(2, 5, Orientation::Undirected);
  const std::unordered_set<std::uint64_t> no_links;
  DBN_SEEDED_RNG(rng, 0xCA05);
  for (std::size_t faults = 0; faults <= 3; ++faults) {
    for (int round = 0; round < 4; ++round) {
      const auto failed = random_fault_set(g, faults, rng);
      SimConfig config;
      config.radix = 2;
      config.k = 5;
      config.seed = rng();
      Simulator sim(config);
      for (std::uint64_t v = 0; v < g.vertex_count(); ++v) {
        if (failed[v]) {
          sim.fail_node(v);
        }
      }
      std::vector<Transfer> transfers(16);
      for (auto& t : transfers) {
        t.source = rng.below(g.vertex_count());
        t.destination = rng.below(g.vertex_count());
      }
      ReliableConfig rc;
      rc.timeout = 8.0;
      rc.max_attempts = 1 + static_cast<int>(rng.below(4));
      rc.backoff = 2.0;
      rc.jitter = 0.2;
      rc.record_attempts = true;
      const ReliableReport report = run_reliable(
          sim, transfers, fault_steering_router(g, failed, no_links), rc);
      SCOPED_TRACE("faults=" + std::to_string(faults) +
                   " attempts=" + std::to_string(rc.max_attempts));
      EXPECT_EQ(report.transfers, transfers.size());
      EXPECT_EQ(report.completed + report.abandoned, report.transfers);
      EXPECT_LE(report.retransmissions,
                report.transfers *
                    static_cast<std::uint64_t>(rc.max_attempts - 1));
      ASSERT_EQ(report.traces.size(), transfers.size());
      for (const TransferTrace& trace : report.traces) {
        ASSERT_FALSE(trace.attempts.empty());
        EXPECT_LE(trace.attempts.size(),
                  static_cast<std::size_t>(rc.max_attempts));
        for (std::size_t i = 1; i < trace.attempts.size(); ++i) {
          EXPECT_LT(trace.attempts[i - 1].sent_at, trace.attempts[i].sent_at);
        }
        if (trace.completed) {
          EXPECT_LE(trace.completed_at, report.completion_time);
        } else {
          EXPECT_EQ(trace.attempts.size(),
                    static_cast<std::size_t>(rc.max_attempts))
              << "abandonment requires a spent budget";
        }
      }
    }
  }
}

TEST(ChaosReliable, CompletionTimeIsMonotoneInTheTimeout) {
  // With one transfer, a deterministic per-attempt router and static
  // faults, the attempt index that succeeds is independent of the timeout,
  // so stretching the windows can only move the completion later.
  const DeBruijnGraph g(2, 4, Orientation::Undirected);
  const std::unordered_set<std::uint64_t> no_links;
  DBN_SEEDED_RNG(rng, 0xC10C);
  int completed_runs = 0;
  for (int trial = 0; trial < 30; ++trial) {
    const auto failed = random_fault_set(g, rng.below(4), rng);
    const std::uint64_t s = rng.below(g.vertex_count());
    const std::uint64_t t = rng.below(g.vertex_count());
    if (failed[s] || failed[t]) {
      continue;
    }
    SCOPED_TRACE("trial " + std::to_string(trial));
    double previous_completion = -1.0;
    int previous_completed = -1;
    for (const double timeout : {4.0, 8.0, 16.0, 32.0}) {
      SimConfig config;
      config.radix = 2;
      config.k = 4;
      Simulator sim(config);
      for (std::uint64_t v = 0; v < g.vertex_count(); ++v) {
        if (failed[v]) {
          sim.fail_node(v);
        }
      }
      ReliableConfig rc;
      rc.timeout = timeout;
      rc.max_attempts = 4;
      rc.backoff = 2.0;
      const ReliableReport report =
          run_reliable(sim, {Transfer{s, t}},
                       fault_steering_router(g, failed, no_links), rc);
      EXPECT_EQ(report.completed + report.abandoned, 1u);
      if (previous_completed >= 0) {
        EXPECT_EQ(static_cast<int>(report.completed), previous_completed)
            << "whether the transfer completes must not depend on the timeout";
      }
      previous_completed = static_cast<int>(report.completed);
      if (report.completed == 1u) {
        ++completed_runs;
        EXPECT_GE(report.completion_time + 1e-9, previous_completion)
            << "timeout " << timeout;
        previous_completion = report.completion_time;
      }
    }
  }
  EXPECT_GT(completed_runs, 0) << "the sweep must exercise completions";
}

TEST(ChaosReliable, BackoffWindowsGrowGeometricallyAndRespectTheCap) {
  SimConfig config;
  config.radix = 2;
  config.k = 4;
  Simulator sim(config);
  sim.fail_node(9);  // dead destination: every attempt is spent
  ReliableConfig rc;
  rc.timeout = 4.0;
  rc.backoff = 2.0;
  rc.max_timeout = 10.0;
  rc.max_attempts = 5;
  rc.record_attempts = true;
  const AttemptRouter router = [](const Word& x, const Word& y, int) {
    return route_bidirectional_mp(x, y);
  };
  const ReliableReport report =
      run_reliable(sim, {Transfer{1, 9}}, router, rc);
  EXPECT_EQ(report.abandoned, 1u);
  EXPECT_EQ(report.retransmissions, 4u);
  ASSERT_EQ(report.traces.size(), 1u);
  const TransferTrace& trace = report.traces[0];
  ASSERT_EQ(trace.attempts.size(), 5u);
  const double expected_window[] = {4.0, 8.0, 10.0, 10.0, 10.0};
  double expected_sent = 0.0;
  for (int i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(trace.attempts[i].window, expected_window[i]) << i;
    EXPECT_DOUBLE_EQ(trace.attempts[i].sent_at, expected_sent) << i;
    expected_sent += expected_window[i];
  }
}

TEST(ChaosReliable, JitterStretchesWindowsBoundedlyAndDeterministically) {
  const auto run_once = [] {
    SimConfig config;
    config.radix = 2;
    config.k = 4;
    Simulator sim(config);
    sim.fail_node(9);
    ReliableConfig rc;
    rc.timeout = 4.0;
    rc.backoff = 2.0;
    rc.max_attempts = 4;
    rc.jitter = 0.5;
    rc.jitter_seed = 77;
    rc.record_attempts = true;
    const AttemptRouter router = [](const Word& x, const Word& y, int) {
      return route_bidirectional_mp(x, y);
    };
    return run_reliable(sim, {Transfer{1, 9}, Transfer{3, 9}}, router, rc);
  };
  const ReliableReport a = run_once();
  const ReliableReport b = run_once();
  ASSERT_EQ(a.traces.size(), 2u);
  bool saw_stretch = false;
  for (std::size_t id = 0; id < a.traces.size(); ++id) {
    ASSERT_EQ(a.traces[id].attempts.size(), b.traces[id].attempts.size());
    double base = 4.0;
    for (std::size_t i = 0; i < a.traces[id].attempts.size(); ++i) {
      const AttemptRecord& ra = a.traces[id].attempts[i];
      const AttemptRecord& rb = b.traces[id].attempts[i];
      EXPECT_DOUBLE_EQ(ra.window, rb.window) << "jitter must replay";
      EXPECT_DOUBLE_EQ(ra.sent_at, rb.sent_at);
      EXPECT_GE(ra.window, base);
      EXPECT_LT(ra.window, base * 1.5);
      saw_stretch = saw_stretch || ra.window > base;
      base *= 2.0;
    }
  }
  EXPECT_TRUE(saw_stretch) << "jitter 0.5 should stretch some window";
}

TEST(ChaosReliable, DuplicateDeliveriesAreDedupedAndStopRetransmission) {
  // D(00000, 11111) = 5 with delay 1, but the timeout is 2: attempts go
  // out at t = 0, 2, 4 before the first copy lands at t = 5. All three
  // copies are delivered by the network; the receiver keeps one.
  SimConfig config;
  config.radix = 2;
  config.k = 5;
  Simulator sim(config);
  const Word src = Word::zero(2, 5);
  const Word dst(2, {1, 1, 1, 1, 1});
  ASSERT_EQ(undirected_distance(src, dst), 5);
  ReliableConfig rc;
  rc.timeout = 2.0;
  rc.backoff = 1.0;
  rc.max_attempts = 5;
  const AttemptRouter router = [](const Word& x, const Word& y, int) {
    return route_bidirectional_mp(x, y);
  };
  const ReliableReport report =
      run_reliable(sim, {Transfer{src.rank(), dst.rank()}}, router, rc);
  EXPECT_EQ(report.completed, 1u);
  EXPECT_EQ(report.abandoned, 0u);
  EXPECT_EQ(report.retransmissions, 2u)
      << "completion at t=5 must cancel the remaining attempt budget";
  EXPECT_EQ(report.duplicate_deliveries, 2u);
  EXPECT_DOUBLE_EQ(report.completion_time, 5.0);
  EXPECT_EQ(sim.stats().delivered, 3u);
}

TEST(ChaosReliable, DeliveryObserverSeesEveryCopy) {
  SimConfig config;
  config.radix = 2;
  config.k = 5;
  Simulator sim(config);
  const Word src = Word::zero(2, 5);
  const Word dst(2, {1, 1, 1, 1, 1});
  ReliableConfig rc;
  rc.timeout = 2.0;
  rc.backoff = 1.0;
  rc.max_attempts = 5;
  int copies = 0;
  double last_time = -1.0;
  rc.on_delivery = [&](const Message& m, double time) {
    ++copies;
    EXPECT_EQ(m.destination.rank(), dst.rank());
    EXPECT_GE(time, last_time);
    last_time = time;
  };
  const AttemptRouter router = [](const Word& x, const Word& y, int) {
    return route_bidirectional_mp(x, y);
  };
  run_reliable(sim, {Transfer{src.rank(), dst.rank()}}, router, rc);
  EXPECT_EQ(copies, 3) << "the observer fires on duplicates too";
}

}  // namespace
}  // namespace dbn::net

namespace dbn::testkit {
namespace {

TEST(ChaosEngine, TextFormatRoundTrips) {
  DBN_SEEDED_RNG(rng, 0xC0DE);
  for (int i = 0; i < 40; ++i) {
    const ChaosScenario s = random_scenario(rng);
    const std::string text = s.to_text();
    const ChaosScenario parsed = ChaosScenario::parse(text);
    EXPECT_EQ(parsed.d, s.d);
    EXPECT_EQ(parsed.k, s.k);
    EXPECT_EQ(parsed.seed, s.seed);
    EXPECT_EQ(parsed.transfers, s.transfers);
    EXPECT_TRUE(parsed.schedule == s.schedule);
    EXPECT_EQ(parsed.to_text(), text) << "serialization must be a fixpoint";
  }
}

TEST(ChaosEngine, ParserRejectsGarbage) {
  EXPECT_THROW(ChaosScenario::parse(""), ContractViolation);
  EXPECT_THROW(ChaosScenario::parse("net 2 3\n"), ContractViolation);
  EXPECT_THROW(ChaosScenario::parse("chaos/1\nnet 2\n"), ContractViolation);
  EXPECT_THROW(ChaosScenario::parse("chaos/1\nwobble 1 2\n"),
               ContractViolation);
}

TEST(ChaosEngine, RandomScenariosHoldEveryInvariant) {
  DBN_SEEDED_RNG(rng, 0xC405);
  for (int i = 0; i < 30; ++i) {
    const ChaosScenario s = random_scenario(rng);
    const ChaosRunResult result = run_deterministically(s);
    std::string joined;
    for (const std::string& v : result.violations) {
      joined += v + "\n";
    }
    EXPECT_TRUE(result.ok()) << joined << s.to_text();
  }
}

TEST(ChaosEngine, DegenerateCornersHoldEveryInvariant) {
  // d = 1 and k = 1 networks (single vertex / complete graph) through the
  // full chaos pipeline, including a crash/recover cycle.
  for (const auto& p : testing::degenerate_grid()) {
    SCOPED_TRACE(::testing::Message() << "d=" << p.d << " k=" << p.k);
    ChaosScenario s;
    s.d = p.d;
    s.k = p.k;
    s.seed = 5;
    const std::uint64_t n = s.vertex_count();
    s.reliable.timeout = 4.0;
    s.reliable.max_attempts = 3;
    s.reliable.backoff = 2.0;
    s.transfers.push_back({0, n - 1});
    s.transfers.push_back({n - 1, 0});
    s.schedule.site_crash(1.0, n - 1);
    s.schedule.site_recover(3.0, n - 1);
    const ChaosRunResult result = run_deterministically(s);
    std::string joined;
    for (const std::string& v : result.violations) {
      joined += v + "\n";
    }
    EXPECT_TRUE(result.ok()) << joined;
    EXPECT_EQ(result.report.completed + result.report.abandoned, 2u);
  }
}

TEST(ChaosEngine, ShrinkerReachesTheMinimalReproducer) {
  // A synthetic failure predicate that only needs one transfer and one
  // fault event: the fixpoint must strip everything else, including the
  // network size and every timing knob.
  ChaosScenario s;
  s.d = 3;
  s.k = 3;
  s.seed = 123;
  s.link_delay = 2.0;
  s.queue_capacity = 4;
  s.reliable.timeout = 16.0;
  s.reliable.max_attempts = 5;
  s.reliable.backoff = 2.0;
  s.reliable.jitter = 0.3;
  s.reliable.max_timeout = 64.0;
  for (std::uint64_t i = 0; i < 5; ++i) {
    s.transfers.push_back({i, (i * 7 + 3) % s.vertex_count()});
  }
  s.schedule.site_flap(1, 3.0, 2.0, 2.0, 3);
  s.schedule.link_crash(4.0, 2, 5);
  const ChaosFailPredicate fails = [](const ChaosScenario& c) {
    return !c.transfers.empty() && !c.schedule.empty();
  };
  const ChaosShrinkResult result = shrink_scenario(s, fails);
  EXPECT_GT(result.reductions, 0);
  EXPECT_TRUE(fails(result.scenario));
  EXPECT_EQ(result.scenario.transfers.size(), 1u);
  EXPECT_EQ(result.scenario.schedule.size(), 1u);
  EXPECT_EQ(result.scenario.d, 1u);
  EXPECT_EQ(result.scenario.k, 1u);
  EXPECT_EQ(result.scenario.reliable.max_attempts, 1);
  EXPECT_EQ(result.scenario.reliable.jitter, 0.0);
  EXPECT_EQ(result.scenario.reliable.backoff, 1.0);
  EXPECT_EQ(result.scenario.reliable.max_timeout, 0.0);
  EXPECT_EQ(result.scenario.queue_capacity, 0u);
  EXPECT_EQ(result.scenario.link_delay, 1.0);
  EXPECT_EQ(result.scenario.seed, 1u);
}

TEST(ChaosEngine, ShrinkingIsDeterministic) {
  ChaosScenario s;
  s.d = 2;
  s.k = 3;
  for (std::uint64_t i = 0; i < 4; ++i) {
    s.transfers.push_back({i, 7 - i});
  }
  s.schedule.site_flap(2, 1.0, 1.0, 1.0, 2);
  const ChaosFailPredicate fails = [](const ChaosScenario& c) {
    return c.transfers.size() >= 2;
  };
  const ChaosScenario a = shrink_scenario(s, fails).scenario;
  const ChaosScenario b = shrink_scenario(s, fails).scenario;
  EXPECT_EQ(a.to_text(), b.to_text());
  EXPECT_EQ(a.transfers.size(), 2u);
  EXPECT_TRUE(a.schedule.empty()) << "the predicate does not need faults";
}

TEST(ChaosEngine, ShrinkerRequiresAFailingScenarioOnEntry) {
  ChaosScenario s;
  EXPECT_THROW(
      shrink_scenario(s, [](const ChaosScenario&) { return false; }),
      ContractViolation);
}

TEST(ChaosEngine, FuzzLoopIsDeterministic) {
  ChaosFuzzOptions options;
  options.seed = 7;
  options.iterations = 25;
  const ChaosFuzzReport a = run_chaos_fuzz(options);
  const ChaosFuzzReport b = run_chaos_fuzz(options);
  EXPECT_EQ(a.iterations_run, 25u);
  EXPECT_EQ(a.iterations_run, b.iterations_run);
  EXPECT_EQ(a.failures.size(), b.failures.size());
  EXPECT_EQ(a.point_coverage, b.point_coverage);
  EXPECT_TRUE(a.ok());
  std::uint64_t covered = 0;
  for (const auto& [point, count] : a.point_coverage) {
    covered += count;
  }
  EXPECT_EQ(covered, a.iterations_run) << "every iteration hits one point";
}

}  // namespace
}  // namespace dbn::testkit

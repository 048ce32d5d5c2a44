// batch_k128: BatchRouteEngine with the bidi backend, no cache and 4
// threads on DG(2,128), route_batch_into on batches of 4,096 uniform random
// pairs. The only workload that runs the pool on more than one thread, and
// the only one whose words do not fit the packed lane (k <= 64 at d = 2),
// so every query takes the scalar Theorem-2 fallback.
#include <algorithm>
#include <memory>
#include <thread>
#include <unordered_map>

#include "checks.hpp"
#include "common/rng.hpp"
#include "core/distance.hpp"
#include "core/route_engine.hpp"
#include "obs/trace.hpp"
#include "strings/packed.hpp"
#include "workloads.hpp"

namespace perfbench {

void time_kernels(const std::vector<dbn::RouteQuery>& pairs, std::size_t k,
                  double budget_s, Result& result) {
  SpanLog::Scope span(spans(), "offline.kernel");
  dbn::BidirectionalRouteEngine engine(k);
  dbn::RoutingPath path;
  std::uint64_t sink = 0;
  std::uint64_t n = 0;
  Clock::time_point start = Clock::now();
  while (n == 0 || seconds_between(start, Clock::now()) < budget_s / 2) {
    for (const dbn::RouteQuery& q : pairs) {
      sink += static_cast<std::uint64_t>(engine.distance(q.x, q.y));
    }
    n += pairs.size();
  }
  result.set("kernel.distance_ns",
             micros_between(start, Clock::now()) * 1e3 / static_cast<double>(n),
             "ns");
  n = 0;
  start = Clock::now();
  while (n == 0 || seconds_between(start, Clock::now()) < budget_s / 2) {
    for (const dbn::RouteQuery& q : pairs) {
      engine.route_into(q.x, q.y, dbn::WildcardMode::Concrete, path);
      sink += path.length();
    }
    n += pairs.size();
  }
  result.set("kernel.route_ns",
             micros_between(start, Clock::now()) * 1e3 / static_cast<double>(n),
             "ns");
  span.set_ops(sink == 0 ? 0 : n);
}

namespace {

using namespace dbn;

constexpr std::uint32_t kD = 2;
constexpr std::size_t kK = 128;
constexpr std::size_t kThreads = 4;
constexpr std::size_t kBatch = 4096;
// Distinct batches, cycled: no cache, so a repeated pair costs what a new
// one does, and the answers of 4 batches fit in memory for checking.
constexpr std::size_t kBatches = 4;
constexpr std::size_t kWarmup = 64;
constexpr std::size_t kOfflinePairs = 256;

BatchRouteOptions engine_options(std::size_t threads) {
  return BatchRouteOptions{.backend = BatchBackend::BidiEngine,
                           .threads = threads,
                           .cache_entries = 0,
                           .trace_routes = false};
}

Word random_word(Rng& rng) {
  std::vector<Digit> digits(kK);
  for (Digit& d : digits) {
    d = static_cast<Digit>(rng.below(kD));
  }
  return Word(kD, std::move(digits));
}

// Sums the engine's own chunk spans (worker busy time) in memory.
class ChunkSink : public obs::TraceSink {
 public:
  void emit(const obs::TraceEvent& e) override {
    if (e.category != "batch" || e.name != "chunk") {
      return;
    }
    const MutexLock lock(mutex_);
    if (e.phase == obs::TracePhase::Begin) {
      open_[e.span] = e.ts;
    } else if (e.phase == obs::TracePhase::End) {
      const auto it = open_.find(e.span);
      if (it != open_.end()) {
        busy_us_ += e.ts - it->second;
        ++chunks_;
        open_.erase(it);
      }
    }
  }
  double busy_us() const {
    const MutexLock lock(mutex_);
    return busy_us_;
  }
  std::uint64_t chunks() const {
    const MutexLock lock(mutex_);
    return chunks_;
  }

 private:
  mutable Mutex mutex_;
  std::unordered_map<std::uint64_t, double> open_ DBN_GUARDED_BY(mutex_);
  double busy_us_ DBN_GUARDED_BY(mutex_) = 0.0;
  std::uint64_t chunks_ DBN_GUARDED_BY(mutex_) = 0;
};

struct WindowResult {
  double seconds = 0.0;  // inside route_batch_into
  std::uint64_t queries = 0;
  std::vector<double> wall_us;  // per call
  std::vector<double> call_us;  // per call, less the host's steal share
};

/// Calls route_batch_into on the batches in turn for `seconds`, filing
/// every answer. With a sink, every other round over the batches runs with
/// it installed and is tallied in `traced`, so traced and untraced calls
/// interleave, drift in the host moves both alike, and both route every
/// batch equally often.
void run_window(BatchRouteEngine& engine,
                const std::vector<std::vector<RouteQuery>>& batches,
                double seconds, AnswerStore<RoutingPath>& answers,
                obs::TraceSink* sink, WindowResult& untraced,
                WindowResult& traced) {
  std::vector<RoutingPath> out;
  const std::size_t min_calls = (sink == nullptr ? 1 : 2) * batches.size();
  const Clock::time_point start = Clock::now();
  for (std::size_t call = 0; call < min_calls ||
                             seconds_between(start, Clock::now()) < seconds;
       ++call) {
    const std::size_t b = call % batches.size();
    const bool traced_call = sink != nullptr && (call / batches.size()) % 2 == 1;
    WindowResult& w = traced_call ? traced : untraced;
    obs::set_trace_sink(traced_call ? sink : nullptr);
    SpanLog::Scope span(spans(), traced_call ? "batch.call.traced" : "batch.call");
    const MachineTimes m0 = machine_times();
    const Clock::time_point t0 = Clock::now();
    engine.route_batch_into(batches[b], out);
    const double wall_us = micros_between(t0, Clock::now());
    obs::set_trace_sink(nullptr);  // the pool is idle: no emitter left
    w.wall_us.push_back(wall_us);
    w.call_us.push_back(wall_us * (1.0 - steal_share(m0, machine_times())));
    w.seconds += wall_us / 1e6;
    w.queries += batches[b].size();
    span.set_ops(batches[b].size());
    for (std::size_t j = 0; j < out.size(); ++j) {
      answers.record(b * kBatch + j, std::move(out[j]));
    }
  }
}

}  // namespace

Result run_batch(const RunOptions& options) {
  Result result;
  Rng rng(options.seed);
  std::vector<std::vector<RouteQuery>> batches(kBatches);
  for (std::vector<RouteQuery>& batch : batches) {
    for (std::size_t i = 0; i < kBatch; ++i) {
      Word x = random_word(rng);
      Word y = random_word(rng);
      batch.push_back(RouteQuery{std::move(x), std::move(y)});
    }
  }
  const std::vector<RouteQuery> warmup(batches[0].begin(),
                                       batches[0].begin() + kWarmup);
  result.note("network", "DG(2,128) undirected, bidi backend, 4 threads, "
                         "no cache, batches of 4096");
  result.note("input.route_share", 1.0);
  result.note("input.distinct_pairs", static_cast<double>(kBatches * kBatch));
  result.note("input.fits_packed_lane", strings::packable(kD, kK) ? "yes" : "no");

  // Set-up: engine and pool built. The warm-up call that grows the
  // workers' scratch arenas comes after, untimed: it is routing work.
  std::vector<double> setups;
  std::unique_ptr<BatchRouteEngine> engine;
  for (const Clock::time_point first = Clock::now(); setup_due(setups, first);) {
    engine.reset();
    const Clock::time_point t0 = Clock::now();
    engine = std::make_unique<BatchRouteEngine>(kD, kK, engine_options(kThreads));
    setups.push_back(seconds_between(t0, Clock::now()));
  }
  std::vector<RoutingPath> scratch;
  engine->route_batch_into(warmup, scratch);

  // A traced run spends 0.65 of its time in one alternating window and
  // the rest timing the layers offline.
  AnswerStore<RoutingPath> answers(kBatches * kBatch);
  ChunkSink sink;
  WindowResult u;
  WindowResult t;
  {
    SpanLog::Scope span(spans(), "window");
    run_window(*engine, batches,
               options.trace ? options.seconds * 0.65 : options.seconds, answers,
               options.trace ? &sink : nullptr, u, t);
  }
  // Every call routes one batch of kBatch pairs: the figures are medians
  // over the calls, each less the share of the CPUs the host took during
  // it. The 4 workers keep every CPU busy, so a CPU taken away holds the
  // call up; the wall-clock figures are printed beside them.
  const double call_us = median(u.call_us);
  const double t4_ns = call_us * 1e3 / static_cast<double>(kBatch);
  const double wall_t4_ns = median(u.wall_us) * 1e3 / static_cast<double>(kBatch);
  result.set("throughput", 1e9 / t4_ns, "1/s");
  result.set("p50_us", call_us, "us");
  result.note("p99_us", full_digits(percentile(u.call_us, 99.0)) + " us");
  result.note("wall_throughput", full_digits(1e9 / wall_t4_ns) + " 1/s");
  result.note("mean_throughput",
              full_digits(static_cast<double>(u.queries) / u.seconds) + " 1/s");
  result.set("setup_s", median(setups), "s");
  result.note("latency", "per route_batch_into call of 4096 pairs");
  result.note("latency_samples", static_cast<double>(u.call_us.size()));
  result.attempted = u.queries + t.queries;

  // Checks after the timed windows.
  // The oracle costs ~0.1 ms per k = 128 pair: one batch per thread.
  std::vector<int> oracle(kBatches * kBatch);
  {
    SpanLog::Scope span(spans(), "check.oracle");
    std::vector<double> busy_us(kBatches);
    std::vector<std::thread> threads;
    for (std::size_t b = 0; b < kBatches; ++b) {
      threads.emplace_back([&, b] {
        const Clock::time_point t0 = Clock::now();
        for (std::size_t j = 0; j < kBatch; ++j) {
          oracle[b * kBatch + j] =
              undirected_distance(batches[b][j].x, batches[b][j].y);
        }
        busy_us[b] = micros_between(t0, Clock::now());
      });
    }
    for (std::thread& thread : threads) {
      thread.join();
    }
    double busy = 0.0;
    for (const double us : busy_us) {
      busy += us;
    }
    double sum = 0.0;
    for (const int d : oracle) {
      sum += d;
    }
    const double n = static_cast<double>(oracle.size());
    result.set("distance.undirected_ns", busy * 1e3 / n, "ns");
    result.note("input.mean_distance", sum / n);
    span.set_ops(oracle.size());
  }
  std::map<std::string, std::uint64_t> tally;
  result.failed = answers.failures(
      [&](std::size_t i, const RoutingPath& path) {
        const RouteQuery& q = batches[i / kBatch][i % kBatch];
        return check_route(q.x, q.y, path.hops(), oracle[i]);
      },
      [&](Verdict v, std::uint64_t n) { tally[verdict_name(v)] += n; });
  const std::uint64_t unanswered = result.attempted - answers.answers();
  result.failed += unanswered;
  for (const auto& [what, n] : tally) {
    result.note("failures." + what, static_cast<double>(n));
  }
  if (result.failed != 0) {
    result.problem("wrong or missing answers");
  }
  if (!options.trace) {
    return result;
  }

  // --- per-layer metrics ----------------------------------------------
  const std::vector<RouteQuery> offline(batches[1].begin(),
                                        batches[1].begin() + kOfflinePairs);
  time_kernels(offline, kK, 0.6, result);
  {
    SpanLog::Scope span(spans(), "offline.batch.t1");
    BatchRouteEngine one(kD, kK, engine_options(1));
    std::vector<RoutingPath> out;
    one.route_batch_into(warmup, out);
    std::uint64_t n = 0;
    const Clock::time_point t0 = Clock::now();
    while (n == 0 || seconds_between(t0, Clock::now()) < 0.3) {
      one.route_batch_into(offline, out);
      n += offline.size();
    }
    const double t1_ns =
        micros_between(t0, Clock::now()) * 1e3 / static_cast<double>(n);
    result.set("batch.t1_ns", t1_ns, "ns");
    result.set("batch.speedup", t1_ns / wall_t4_ns, "ratio");
    span.set_ops(n);
  }

  Attribution& a = result.attribution;
  a.figure = "wall ns per query at 4 threads (1e9 / wall_throughput)";
  // Worker time per query, from the chunk spans of the traced calls.
  a.untraced = wall_t4_ns;
  a.traced = median(t.wall_us) * 1e3 / static_cast<double>(kBatch);
  const double q = static_cast<double>(t.queries);
  const double threads = static_cast<double>(kThreads);
  const double chunk_ns = sink.busy_us() * 1e3 / q;  // worker time per query
  const double kernel_ns = result.metrics["kernel.route_ns"].value;
  a.rows = {
      {"kernel.route", kernel_ns / threads,
       "BidirectionalRouteEngine::route_into, 1 thread, offline; / 4 workers"},
      {"batch chunk self", (chunk_ns - kernel_ns) / threads,
       "engine chunk spans less the kernel: validation, contention"},
  };
  a.leftover = "thread_pool idle: worker time outside chunk spans";
  result.note("trace.chunks", static_cast<double>(sink.chunks()));
  return result;
}

}  // namespace perfbench

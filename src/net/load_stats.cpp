#include "net/load_stats.hpp"

#include <algorithm>
#include <cmath>

#include "common/schema.hpp"
#include "net/simulator.hpp"

namespace dbn::net {

double gini_coefficient(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  double weighted = 0.0;
  double total = 0.0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    weighted += (2.0 * static_cast<double>(i + 1) - n - 1.0) * values[i];
    total += values[i];
  }
  if (total <= 0.0) {
    return 0.0;
  }
  return weighted / (n * total);
}

double gini_coefficient(const std::vector<std::uint64_t>& values) {
  std::vector<double> doubles(values.begin(), values.end());
  return gini_coefficient(std::move(doubles));
}

double coefficient_of_variation(const std::vector<std::uint64_t>& values) {
  obs::Summary summary;
  for (const std::uint64_t v : values) {
    summary.observe(static_cast<double>(v));
  }
  return summary.coefficient_of_variation();
}

void record_sim_metrics(obs::MetricsRegistry& registry, const Simulator& sim) {
  const SimStats& stats = sim.stats();
  registry.counter("sim.injected").inc(stats.injected);
  registry.counter("sim.delivered").inc(stats.delivered);
  registry.counter("sim.dropped_fault").inc(stats.dropped_fault);
  registry.counter("sim.dropped_link").inc(stats.dropped_link);
  registry.counter("sim.dropped_overflow").inc(stats.dropped_overflow);
  registry.counter("sim.misdelivered").inc(stats.misdelivered);
  registry.counter(schema::metric::kSimDroppedTtl).inc(stats.dropped_ttl);
  registry.counter(schema::metric::kSimDeflections)
      .inc(stats.adaptive_deflections);
  registry.counter("sim.fault_events").inc(stats.fault_events_applied);

  obs::Histogram link_load = registry.histogram(
      "sim.link_load", {0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0,
                        256.0, 512.0, 1024.0});
  const std::vector<std::uint64_t> loads = sim.link_transmissions();
  for (const std::uint64_t load : loads) {
    link_load.observe(static_cast<double>(load));
  }

  // Hop counts are bounded by twice the diameter for shortest paths; the
  // buckets leave headroom for adaptive detours.
  obs::Histogram hops = registry.histogram(
      "sim.hops", {0.0, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0});
  for (const std::uint64_t h : stats.hop_counts) {
    hops.observe(static_cast<double>(h));
  }

  obs::Histogram latency = registry.histogram(
      "sim.latency", {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0,
                      512.0, 1024.0, 4096.0});
  for (const double l : stats.latencies) {
    latency.observe(l);
  }

  // Gauges are integral; store the balance metrics in fixed-point x1000.
  registry.gauge("sim.link_load_gini_milli")
      .set(static_cast<std::int64_t>(std::llround(
          gini_coefficient(loads) * 1000.0)));
  registry.gauge("sim.link_load_cov_milli")
      .set(static_cast<std::int64_t>(std::llround(
          coefficient_of_variation(loads) * 1000.0)));
  registry.gauge("sim.max_queue")
      .set(static_cast<std::int64_t>(stats.max_queue));
}

}  // namespace dbn::net

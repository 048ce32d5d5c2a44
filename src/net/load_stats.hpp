// Load-distribution statistics for the balancing experiments.
//
// Max queue length shows the worst instant; these summarize the whole
// run: per-link transmission counts and their Gini coefficient (0 = all
// links carried equal traffic, ->1 = traffic concentrated on few links).
// The wildcard experiment (S1) uses the Gini of link loads as its primary
// balancing metric.
//
// The accumulation itself lives in obs::Summary (one implementation of
// mean/variance/cov for the whole codebase); record_sim_metrics folds a
// finished simulation into an obs::MetricsRegistry so link-load and hop
// histograms come from the same registry as every other metric.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/metrics.hpp"

namespace dbn::net {

class Simulator;

/// Gini coefficient of a non-negative sample (0 for empty/uniform input).
double gini_coefficient(std::vector<double> values);

/// Convenience overload for counters.
double gini_coefficient(const std::vector<std::uint64_t>& values);

/// Coefficient of variation (stddev / mean); 0 for empty or zero-mean
/// input. Thin adapter over obs::Summary.
double coefficient_of_variation(const std::vector<std::uint64_t>& values);

/// Folds a finished simulation into `registry`:
///   counters   sim.injected/delivered/dropped_fault/dropped_link/
///              dropped_overflow/misdelivered
///   histograms sim.link_load (per-link transmissions),
///              sim.hops + sim.latency (per delivered message)
///   gauges     sim.link_load_gini_milli / sim.link_load_cov_milli
///              (fixed-point x1000, gauges are integral)
void record_sim_metrics(obs::MetricsRegistry& registry, const Simulator& sim);

}  // namespace dbn::net

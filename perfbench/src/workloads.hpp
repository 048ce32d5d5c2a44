// The benchmark's workloads. Each generates its inputs from the seed,
// sets the program up several times (setup_s is the median), measures for
// the requested seconds, checks every output after the timed window and,
// in a traced run, adds the per-layer metrics and the attribution table.
// One rule for every workload: throughput is the median over the repeated
// units of work in the window (half-second slices of serving, batch calls,
// simulations), and latency percentiles are over every request, call or
// step in it.
#pragma once

#include <cstddef>
#include <vector>

#include "core/batch_route_engine.hpp"
#include "util.hpp"

namespace perfbench {

enum class ServeMode {
  InProcess,  // serve_inproc: Connection::feed and in-memory sinks
  Bulk,       // serve_bulk: serve_tcp, closed loop
  Open,       // serve_open: serve_tcp, open loop
};

Result run_serve(const RunOptions& options, ServeMode mode);
Result run_batch(const RunOptions& options);
Result run_sim(const RunOptions& options);

/// Plants wrong answers into the checkers; returns 0 when each one is
/// caught.
int run_selftest();

/// Self-test halves that need workload internals: a short real serve
/// window with an extra hop, a distance off by one and a dropped reply
/// planted in its replies; and two simulations with a broken accounting
/// identity and a non-repeating counter planted in their outcomes. Each
/// prints its cases and returns the number that were not caught.
int serve_selftest();
int sim_selftest();

/// kernel.distance_ns / kernel.route_ns: BidirectionalRouteEngine on one
/// thread over `pairs`, each timed for about `budget_s` seconds.
void time_kernels(const std::vector<dbn::RouteQuery>& pairs, std::size_t k,
                  double budget_s, Result& result);

}  // namespace perfbench

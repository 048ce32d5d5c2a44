// Workload generators for the DN(d,k) simulation benchmarks.
//
// Each generator produces a time-ordered injection schedule (when, from
// where, to where); the harness turns the (src, dst) pairs into messages
// with whichever routing algorithm and wildcard mode the experiment needs.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "debruijn/word.hpp"

namespace dbn::net {

struct Injection {
  double time = 0.0;
  std::uint64_t source = 0;
  std::uint64_t destination = 0;
};

/// Poisson arrivals at each site with the given per-site rate over
/// [0, duration); destinations uniform over all sites (self included —
/// self-traffic delivers immediately and exercises the empty path). Both
/// rate and duration must be finite and positive.
std::vector<Injection> uniform_traffic(std::uint32_t radix, std::size_t k,
                                       double rate_per_node, double duration,
                                       Rng& rng);

/// Like uniform_traffic but a fraction `hotspot_fraction` of destinations
/// is redirected to one fixed hotspot site. The paper's "*" remark is about
/// exactly this kind of congestion.
std::vector<Injection> hotspot_traffic(std::uint32_t radix, std::size_t k,
                                       double rate_per_node, double duration,
                                       double hotspot_fraction,
                                       std::uint64_t hotspot, Rng& rng);

/// One message per site to a random permutation partner, all injected at
/// time 0 (a classic permutation-routing workload).
std::vector<Injection> permutation_traffic(std::uint32_t radix, std::size_t k,
                                           Rng& rng);

/// One message per site to the digit-reversed address, all at time 0.
/// A structured workload: X and reverse(X) share reversed blocks, which is
/// exactly what the r-side matching function exploits, so bi-directional
/// routes for reversal pairs are markedly shorter than the uni-directional
/// ones — a workload where Theorem 2's two-sided minimum shines (measured
/// in bench_routing_throughput).
std::vector<Injection> reversal_traffic(std::uint32_t radix, std::size_t k);

}  // namespace dbn::net

#include "net/traffic.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/contract.hpp"

namespace dbn::net {

namespace {

void sort_by_time(std::vector<Injection>& schedule) {
  std::stable_sort(schedule.begin(), schedule.end(),
                   [](const Injection& a, const Injection& b) {
                     return a.time < b.time;
                   });
}

}  // namespace

std::vector<Injection> uniform_traffic(std::uint32_t radix, std::size_t k,
                                       double rate_per_node, double duration,
                                       Rng& rng) {
  DBN_REQUIRE(std::isfinite(rate_per_node) && rate_per_node > 0.0 &&
                  std::isfinite(duration) && duration > 0.0,
              "uniform_traffic requires a finite positive rate and duration");
  const std::uint64_t n = Word::vertex_count(radix, k);
  std::vector<Injection> schedule;
  for (std::uint64_t src = 0; src < n; ++src) {
    double t = rng.exponential(rate_per_node);
    while (t < duration) {
      schedule.push_back({t, src, rng.below(n)});
      t += rng.exponential(rate_per_node);
    }
  }
  sort_by_time(schedule);
  return schedule;
}

std::vector<Injection> hotspot_traffic(std::uint32_t radix, std::size_t k,
                                       double rate_per_node, double duration,
                                       double hotspot_fraction,
                                       std::uint64_t hotspot, Rng& rng) {
  DBN_REQUIRE(hotspot_fraction >= 0.0 && hotspot_fraction <= 1.0,
              "hotspot_fraction must be in [0, 1]");
  const std::uint64_t n = Word::vertex_count(radix, k);
  DBN_REQUIRE(hotspot < n, "hotspot rank out of range");
  std::vector<Injection> schedule =
      uniform_traffic(radix, k, rate_per_node, duration, rng);
  for (Injection& inj : schedule) {
    if (rng.chance(hotspot_fraction)) {
      inj.destination = hotspot;
    }
  }
  return schedule;
}

std::vector<Injection> permutation_traffic(std::uint32_t radix, std::size_t k,
                                           Rng& rng) {
  const std::uint64_t n = Word::vertex_count(radix, k);
  std::vector<std::uint64_t> partner(n);
  std::iota(partner.begin(), partner.end(), 0);
  // Fisher–Yates with our deterministic RNG.
  for (std::uint64_t i = n; i-- > 1;) {
    std::swap(partner[i], partner[rng.below(i + 1)]);
  }
  std::vector<Injection> schedule(n);
  for (std::uint64_t src = 0; src < n; ++src) {
    schedule[src] = {0.0, src, partner[src]};
  }
  return schedule;
}

std::vector<Injection> reversal_traffic(std::uint32_t radix, std::size_t k) {
  const std::uint64_t n = Word::vertex_count(radix, k);
  std::vector<Injection> schedule(n);
  for (std::uint64_t src = 0; src < n; ++src) {
    schedule[src] = {0.0, src,
                     Word::from_rank(radix, k, src).reversed().rank()};
  }
  return schedule;
}

}  // namespace dbn::net

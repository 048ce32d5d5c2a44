#include "core/distance.hpp"

#include <algorithm>
#include <cmath>

#include "common/contract.hpp"
#include "strings/failure.hpp"
#include "strings/matching.hpp"
#include "strings/suffix_automaton.hpp"

namespace dbn {

namespace {

void check_pair(const Word& x, const Word& y) {
  DBN_REQUIRE(x.radix() == y.radix() && x.length() == y.length(),
              "distance endpoints must share radix and length");
}

}  // namespace

int directed_distance(const Word& x, const Word& y) {
  check_pair(x, y);
  const int d = static_cast<int>(x.length()) -
                strings::suffix_prefix_overlap(x.symbols(), y.symbols());
  DBN_ENSURE(d >= 0 && d <= static_cast<int>(x.length()),
             "directed distance must lie in [0, k]");
  return d;
}

int undirected_distance_quadratic(const Word& x, const Word& y) {
  check_pair(x, y);
  const int d1 = strings::min_l_cost(x.symbols(), y.symbols()).cost;
  const Word xr = x.reversed();
  const Word yr = y.reversed();
  const int d2 = strings::min_l_cost(xr.symbols(), yr.symbols()).cost;
  return std::min(d1, d2);
}

int undirected_distance(const Word& x, const Word& y) {
  check_pair(x, y);
  // The suffix-automaton kernel: same Theorem 2 minimum as the suffix-tree
  // form of Algorithm 4 (cross-checked continuously in the tests), with
  // the best measured constants of the linear engines (EXPERIMENTS.md A1).
  const int d1 =
      strings::min_l_cost_suffix_automaton(x.symbols(), y.symbols()).cost;
  const Word xr = x.reversed();
  const Word yr = y.reversed();
  const int d2 =
      strings::min_l_cost_suffix_automaton(xr.symbols(), yr.symbols()).cost;
  const int d = std::min(d1, d2);
  // D(X,Y) = min(D1, D2) of Theorem 2; both candidates are bounded by the
  // diameter k, and at audit level the O(k^2) scan must agree.
  DBN_ENSURE(d >= 0 && d <= static_cast<int>(x.length()),
             "undirected distance must lie in [0, k]");
  DBN_AUDIT(d == undirected_distance_quadratic(x, y),
            "linear kernels must agree with the quadratic reference");
  return d;
}

double directed_average_distance_closed_form(std::uint32_t radix,
                                             std::size_t k) {
  DBN_REQUIRE(radix >= 2 && k >= 1, "requires d >= 2, k >= 1");
  const double alpha = 1.0 / static_cast<double>(radix);
  const double alpha_bar = 1.0 - alpha;
  const double alpha_k = std::pow(alpha, static_cast<double>(k));
  return static_cast<double>(k) - (1.0 - alpha_k) * alpha / alpha_bar;
}

std::vector<std::uint64_t> directed_distance_histogram_exact(
    std::uint32_t radix, std::size_t k) {
  const std::uint64_t n = Word::vertex_count(radix, k);
  // Powers d^0..d^k for cylinder sizes.
  std::vector<std::uint64_t> pow(k + 1, 1);
  for (std::size_t e = 1; e <= k; ++e) {
    pow[e] = pow[e - 1] * radix;
  }
  std::vector<std::uint64_t> histogram(k + 1, 0);
  std::vector<Digit> x(k);
  // lcp[i] is reused per source: lcp[i][j] suffix LCPs, computed on the fly.
  for (std::uint64_t rank = 0; rank < n; ++rank) {
    {
      std::uint64_t r = rank;
      for (std::size_t i = k; i-- > 0;) {
        x[i] = static_cast<Digit>(r % radix);
        r /= radix;
      }
    }
    // lcp[i][j]: longest common prefix of the suffixes of x starting at
    // 0-based i and j (O(k^2) dynamic program, diagonal recursion).
    std::vector<std::vector<int>> lcp(k + 1, std::vector<int>(k + 1, 0));
    for (std::size_t i = k; i-- > 0;) {
      for (std::size_t j = k; j-- > 0;) {
        lcp[i][j] = (x[i] == x[j]) ? lcp[i + 1][j + 1] + 1 : 0;
      }
    }
    // For cylinder C_{s'} (Y starts with the length-s' suffix of x),
    // C_{s'} is nested inside C_{s''} (s'' < s') iff the length-s'' suffix
    // of x occurs at the start of the length-s' suffix. m[s'] is the
    // largest such s'' (0 if none).
    std::vector<std::size_t> m(k + 1, 0);
    for (std::size_t sp = 2; sp <= k; ++sp) {
      for (std::size_t spp = sp - 1; spp >= 1; --spp) {
        if (lcp[k - sp][k - spp] >= static_cast<int>(spp)) {
          m[sp] = spp;
          break;
        }
      }
    }
    // cnt_ge[s] = |union over s' >= s of C_{s'}|: cylinder s' contributes
    // iff it is not nested inside any cylinder with index in [s, s'), i.e.
    // iff m[s'] < s.
    std::vector<std::uint64_t> cnt_ge(k + 2, 0);
    cnt_ge[0] = n;  // C_0 is everything
    for (std::size_t s = 1; s <= k; ++s) {
      for (std::size_t sp = s; sp <= k; ++sp) {
        if (m[sp] < s) {
          cnt_ge[s] += pow[k - sp];
        }
      }
    }
    // Distance i corresponds to maximal overlap k - i.
    for (std::size_t i = 0; i <= k; ++i) {
      const std::size_t s = k - i;
      histogram[i] += cnt_ge[s] - cnt_ge[s + 1];
    }
  }
  return histogram;
}

double directed_average_distance_exact(std::uint32_t radix, std::size_t k) {
  const std::vector<std::uint64_t> histogram =
      directed_distance_histogram_exact(radix, k);
  const double n = static_cast<double>(Word::vertex_count(radix, k));
  double total = 0.0;
  for (std::size_t i = 0; i <= k; ++i) {
    total += static_cast<double>(i) * static_cast<double>(histogram[i]);
  }
  return total / (n * n);
}

}  // namespace dbn

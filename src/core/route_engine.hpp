// Allocation-free bi-directional routing engine — the paper's Section 4
// made concrete: "In order to gain efficiency, some mechanical
// transformations on the programs are necessary ... Appropriately
// implemented, the constant factors of our linear algorithms are low
// enough to make these algorithms of practical use."
//
// Two mechanical transformations live here. First, every buffer is
// hoisted out of the hot path so route() performs no heap allocation once
// warmed up (beyond growing the returned path in place). Second, the
// Theorem 2 side minima come from word-parallel kernels
// (strings/packed.hpp) instead of the per-symbol Algorithm 3 scan, chosen
// from (d, k) alone:
//   - k <= 32, d <= 16 (every network the paper's figures discuss): one
//     pass over the 2k - 1 diagonals of the equality matrix, one 64-bit
//     row per digit of x, scoring both sides at once;
//   - every other word: the seeded kernel, which tests the central cells
//     of every diagonal at once and measures only the few diagonals whose
//     run could still beat the incumbent.
// Both keep one witness rule (strings::SideMinima). No kernel allocates
// once warmed. bench_route_engine measures the kernels, and
// tests/test_packed_kernels.cpp pins their witnesses to a reference.
#pragma once

#include "core/path.hpp"
#include "core/path_builder.hpp"
#include "debruijn/word.hpp"
#include "strings/matching.hpp"

namespace dbn {

class BidirectionalRouteEngine {
 public:
  /// Takes words of up to max_k digits.
  explicit BidirectionalRouteEngine(std::size_t max_k);

  /// Exact undirected distance (Theorem 2); no allocation once warmed.
  int distance(const Word& x, const Word& y);

  /// A shortest path of the same length as route_bidirectional_mp's,
  /// writing into the caller's path object (cleared first) so storage is
  /// reused. The Theorem 2 witness — and with it the placement of the
  /// arbitrary/wildcard digits — may differ from the Algorithm 3 scan's on
  /// a cost tie; every witness satisfies the same shape contracts.
  void route_into(const Word& x, const Word& y, WildcardMode mode,
                  RoutingPath& out);

  std::size_t max_k() const { return max_k_; }

 private:
  std::size_t max_k_;
};

}  // namespace dbn

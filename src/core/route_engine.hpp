// Allocation-free bi-directional routing engine — the paper's Section 4
// made concrete: "In order to gain efficiency, some mechanical
// transformations on the programs are necessary ... Appropriately
// implemented, the constant factors of our linear algorithms are low
// enough to make these algorithms of practical use."
//
// Two mechanical transformations live here. First, every buffer is
// hoisted into a reusable object so route() performs no heap allocation
// once warmed up (beyond growing the returned path in place). Second, the
// Theorem 2 side minima come from word-parallel kernels
// (strings/packed.hpp) instead of the per-symbol Algorithm 3 scan, chosen
// from (d, k) alone:
//   - k <= 32, d <= 16 (every network the paper's figures discuss): one
//     pass over the 2k - 1 diagonals of the equality matrix, one 64-bit
//     row per digit of x, scoring both sides at once with no
//     data-dependent branch but the loop exits;
//   - past that, the offset sweep, l-side then r-side on the reversed
//     words bounded by the l-side minimum, where each offset tests only
//     whether a run long enough to beat its incumbent exists: one 128-bit
//     lane for d = 2 up to k = 128 (one bit per digit) and d <= 4 up to
//     k = 64 (two), a lane of 64-bit limbs for d = 2 up to k = 512,
//     d <= 4 up to k = 256 and d <= 16 up to k = 128 (four bits);
//   - d > 16 and longer words: that scan, in place over the reused
//     buffers.
// No kernel allocates once warmed. The diagonal pass keeps the sweep's
// witness order, so both plan the same routes. One engine per thread.
// The ablation benchmark (bench_route_engine) measures the gain; the
// packed-vs-scalar differential battery pins the equivalence.
#pragma once

#include <vector>

#include "core/path.hpp"
#include "core/path_builder.hpp"
#include "debruijn/word.hpp"
#include "strings/matching.hpp"

namespace dbn {

class BidirectionalRouteEngine {
 public:
  /// Buffers are sized for diameters up to max_k.
  explicit BidirectionalRouteEngine(std::size_t max_k);

  /// Exact undirected distance (Theorem 2); no allocation once warmed.
  int distance(const Word& x, const Word& y);

  /// A shortest path of the same length as route_bidirectional_mp's,
  /// writing into the caller's path object (cleared first) so storage is
  /// reused. The Theorem 2 witness — and with it the placement of the
  /// arbitrary/wildcard digits — may differ between the packed and scalar
  /// kernels; every witness satisfies the same shape contracts.
  void route_into(const Word& x, const Word& y, WildcardMode mode,
                  RoutingPath& out);

  std::size_t max_k() const { return max_k_; }

 private:
  /// Side minima for both orientations: the diagonal pass up to k = 32,
  /// the packed sweep when (d, k) fits a lane (128-bit, else 64-bit
  /// limbs), the in-place Algorithm 3 scan otherwise.
  void side_minima(const Word& x, const Word& y, strings::OverlapMin& l_side,
                   strings::OverlapMin& r_side);

  /// The l-side minimum via the reusable Morris–Pratt row buffers.
  strings::OverlapMin min_l_cost_inplace(const std::vector<strings::Symbol>& x,
                                         const std::vector<strings::Symbol>& y,
                                         std::size_t k);

  std::size_t max_k_;
  std::vector<strings::Symbol> x_, y_, xr_, yr_;
  std::vector<int> border_;
};

}  // namespace dbn

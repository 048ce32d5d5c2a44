// Allocation-free bi-directional routing engine — the paper's Section 4
// made concrete: "In order to gain efficiency, some mechanical
// transformations on the programs are necessary ... Appropriately
// implemented, the constant factors of our linear algorithms are low
// enough to make these algorithms of practical use."
//
// Two mechanical transformations live here. First, every buffer is
// hoisted into a reusable object so route() performs no heap allocation
// once warmed up (beyond growing the returned path in place). Second,
// whenever the endpoints fit a 128-bit packed lane (strings/packed.hpp:
// d <= 4 up to k = 64, d <= 16 up to k = 32 — every network the paper's
// figures discuss), the Theorem 2 side minima are computed by the
// word-parallel offset sweep instead of the per-symbol Algorithm 3 scan.
// Larger alphabets and diameters run that scan in place over the reused
// buffers, so neither kernel allocates once warmed. One engine per
// thread. The ablation benchmark (bench_route_engine) measures the gain;
// the packed-vs-scalar differential battery pins the equivalence.
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
  /// Side minima for both orientations: the packed sweep when (d, k) fits
  /// the lane, the in-place Algorithm 3 scan otherwise.
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

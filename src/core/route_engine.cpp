#include "core/route_engine.hpp"

#include <algorithm>

#include "common/contract.hpp"
#include "core/route_trace.hpp"
#include "obs/trace.hpp"
#include "strings/packed.hpp"

namespace dbn {

BidirectionalRouteEngine::BidirectionalRouteEngine(std::size_t max_k)
    : max_k_(max_k) {
  DBN_REQUIRE(max_k_ >= 1, "engine needs max_k >= 1");
  xr_.reserve(max_k_);
  yr_.reserve(max_k_);
  border_.reserve(max_k_);
}

void BidirectionalRouteEngine::side_minima(const Word& x, const Word& y,
                                           strings::OverlapMin& l_side,
                                           strings::OverlapMin& r_side) {
  const std::uint32_t d = x.radix();
  const std::size_t k = x.length();
  if (strings::diagonal_pass_fits(d, k)) {
    // Up to k = 32: both sides from one pass over the 2k - 1 diagonals,
    // no reversed words and no data-dependent run test.
    const strings::SideMinima m =
        strings::side_minima_diagonal(x.symbols(), y.symbols(), d);
    l_side = m.l_side;
    r_side = m.r_side;
    return;
  }
  if (strings::packable(d, k, strings::kLaneBits)) {
    // Two packs (the reversed lanes are O(log) cell reversals of the
    // forward ones) plus two pruned offset sweeps replace the two O(k^2)
    // Algorithm 3 scans. The r-side runs on the reversed words and maps
    // back through the same reduction the scalar path uses; it sweeps
    // against the l-side incumbent, which is sound because the route only
    // needs the winning side's witness (see min_l_cost_packed_bounded).
    const strings::PackedBuf px = strings::pack_word(x.symbols(), d);
    const strings::PackedBuf py = strings::pack_word(y.symbols(), d);
    l_side = strings::min_l_cost_packed(px, py);
    r_side = r_side_from_reversed(
        static_cast<int>(k),
        strings::min_l_cost_packed_bounded(strings::reverse_cells(px),
                                           strings::reverse_cells(py),
                                           l_side.cost));
    return;
  }
  if (strings::packable(d, k)) {
    // Past one 128-bit lane: the same two sweeps on 64-bit limbs, with the
    // reversed words packed backwards digit by digit.
    const strings::SymbolView xs = x.symbols();
    const strings::SymbolView ys = y.symbols();
    l_side = strings::min_l_cost_wide(strings::pack_wide(xs, d),
                                      strings::pack_wide(ys, d));
    r_side = r_side_from_reversed(
        static_cast<int>(k),
        strings::min_l_cost_wide(strings::pack_wide(xs, d, true),
                                 strings::pack_wide(ys, d, true),
                                 l_side.cost));
    return;
  }
  xr_.assign(x.symbols().rbegin(), x.symbols().rend());
  yr_.assign(y.symbols().rbegin(), y.symbols().rend());
  l_side = strings::min_l_cost_buffered(x.symbols(), y.symbols(), border_);
  r_side = r_side_from_reversed(
      static_cast<int>(k), strings::min_l_cost_buffered(xr_, yr_, border_));
}

int BidirectionalRouteEngine::distance(const Word& x, const Word& y) {
  DBN_REQUIRE(x.radix() == y.radix() && x.length() == y.length(),
              "distance endpoints must share radix and length");
  const std::size_t k = x.length();
  DBN_REQUIRE(k <= max_k_, "word longer than the engine's max_k");
  strings::OverlapMin l_side;
  strings::OverlapMin r_side;
  side_minima(x, y, l_side, r_side);
  const int d = std::min(l_side.cost, r_side.cost);
  DBN_ENSURE(d >= 0 && d <= static_cast<int>(k),
             "undirected distance must lie in [0, k]");
  return d;
}

void BidirectionalRouteEngine::route_into(const Word& x, const Word& y,
                                          WildcardMode mode,
                                          RoutingPath& out) {
  DBN_REQUIRE(x.radix() == y.radix() && x.length() == y.length(),
              "route endpoints must share radix and length");
  const std::size_t k = x.length();
  DBN_REQUIRE(k <= max_k_, "word longer than the engine's max_k");
  strings::OverlapMin l_side;
  strings::OverlapMin r_side;
  side_minima(x, y, l_side, r_side);
  const BidiPlan plan = make_bidi_plan(static_cast<int>(k), l_side, r_side);
  build_bidi_path_into(x, y, plan, mode, out);
  if (obs::tracing_enabled()) {
    trace_bidi_route("bidi-engine", x, y, plan, out);
  }
}

}  // namespace dbn

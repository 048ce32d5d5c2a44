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
  x_.reserve(max_k_);
  y_.reserve(max_k_);
  xr_.reserve(max_k_);
  yr_.reserve(max_k_);
  border_.reserve(max_k_);
}

void BidirectionalRouteEngine::side_minima(const Word& x, const Word& y,
                                           strings::OverlapMin& l_side,
                                           strings::OverlapMin& r_side) {
  const std::uint32_t d = x.radix();
  const std::size_t k = x.length();
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
  x_.assign(x.symbols().begin(), x.symbols().end());
  y_.assign(y.symbols().begin(), y.symbols().end());
  xr_.assign(x.symbols().rbegin(), x.symbols().rend());
  yr_.assign(y.symbols().rbegin(), y.symbols().rend());
  l_side = min_l_cost_inplace(x_, y_, k);
  r_side = r_side_from_reversed(static_cast<int>(k),
                                min_l_cost_inplace(xr_, yr_, k));
}

strings::OverlapMin BidirectionalRouteEngine::min_l_cost_inplace(
    const std::vector<strings::Symbol>& x,
    const std::vector<strings::Symbol>& y, std::size_t k) {
  // Algorithm 3 rows with the border buffer reused across rows; logic
  // identical to strings::min_l_cost (tested for equality).
  const int ki = static_cast<int>(k);
  strings::OverlapMin best;
  best.cost = 2 * ki;
  for (int i = 1; i <= ki; ++i) {
    const std::size_t i0 = static_cast<std::size_t>(i - 1);
    const std::size_t m = k - i0;  // pattern length
    border_.assign(m, 0);
    int q = 0;
    for (std::size_t idx = 1; idx < m; ++idx) {
      while (q > 0 && x[i0 + static_cast<std::size_t>(q)] != x[i0 + idx]) {
        q = border_[static_cast<std::size_t>(q) - 1];
      }
      if (x[i0 + static_cast<std::size_t>(q)] == x[i0 + idx]) {
        ++q;
      }
      border_[idx] = q;
    }
    q = 0;
    for (int j = 1; j <= ki; ++j) {
      const strings::Symbol c = y[static_cast<std::size_t>(j - 1)];
      if (q == static_cast<int>(m)) {
        q = border_[static_cast<std::size_t>(q) - 1];
      }
      while (q > 0 && x[i0 + static_cast<std::size_t>(q)] != c) {
        q = border_[static_cast<std::size_t>(q) - 1];
      }
      if (x[i0 + static_cast<std::size_t>(q)] == c) {
        ++q;
      }
      const int cost = 2 * ki - 1 + i - j - q;
      if (cost < best.cost) {
        best = strings::OverlapMin{cost, i, j, q};
      }
    }
    // Morris–Pratt failure bounds: a border is a proper prefix, and the
    // match length never exceeds what the pattern row offers.
    DBN_AUDIT(std::all_of(border_.begin(), border_.end(),
                          [n = 0](int b) mutable { return b <= n++; }),
              "border array entries must be proper-prefix lengths");
  }
  DBN_ASSERT(best.cost <= ki, "l-side minimum must not exceed the diameter");
  // Theorem 2 witness validity: the minimizer must be in range, reproduce
  // its own cost, and (audit level) actually match the θ-length block
  // x_s..x_{s+θ-1} = y_{t-θ+1}..y_t it claims.
  DBN_ENSURE(best.s >= 1 && best.s <= ki && best.t >= 1 && best.t <= ki &&
                 best.theta >= 0 && best.theta <= best.t &&
                 best.theta <= ki - best.s + 1,
             "l-side witness (s, t, theta) out of range");
  DBN_ENSURE(best.cost == 2 * ki - 1 + best.s - best.t - best.theta,
             "l-side witness does not reproduce its cost");
  DBN_AUDIT(
      [&] {
        for (int m = 0; m < best.theta; ++m) {
          if (x[static_cast<std::size_t>(best.s - 1 + m)] !=
              y[static_cast<std::size_t>(best.t - best.theta + m)]) {
            return false;
          }
        }
        return true;
      }(),
      "l-side witness block does not match");
  return best;
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

#include "core/route_engine.hpp"

#include <algorithm>

#include "common/contract.hpp"
#include "core/route_trace.hpp"
#include "obs/trace.hpp"
#include "strings/packed.hpp"

namespace dbn {

namespace {

// Both Theorem 2 side minima from the kernel (d, k) selects.
strings::SideMinima side_minima(const Word& x, const Word& y) {
  const std::uint32_t d = x.radix();
  return strings::diagonal_pass_fits(d, x.length())
             ? strings::side_minima_diagonal(x.symbols(), y.symbols(), d)
             : strings::side_minima_seeded(x.symbols(), y.symbols(), d);
}

}  // namespace

BidirectionalRouteEngine::BidirectionalRouteEngine(std::size_t max_k)
    : max_k_(max_k) {
  DBN_REQUIRE(max_k_ >= 1, "engine needs max_k >= 1");
}

int BidirectionalRouteEngine::distance(const Word& x, const Word& y) {
  DBN_REQUIRE(x.radix() == y.radix() && x.length() == y.length(),
              "distance endpoints must share radix and length");
  const std::size_t k = x.length();
  DBN_REQUIRE(k <= max_k_, "word longer than the engine's max_k");
  const strings::SideMinima m = side_minima(x, y);
  const int d = std::min(m.l_side.cost, m.r_side.cost);
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
  const strings::SideMinima m = side_minima(x, y);
  const BidiPlan plan =
      make_bidi_plan(static_cast<int>(k), m.l_side, m.r_side);
  build_bidi_path_into(x, y, plan, mode, out);
  if (obs::tracing_enabled()) {
    trace_bidi_route("bidi-engine", x, y, plan, out);
  }
}

}  // namespace dbn

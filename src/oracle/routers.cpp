#include "oracle/routers.hpp"

#include "common/contract.hpp"
#include "core/route_trace.hpp"
#include "obs/trace.hpp"
#include "oracle/common_substring.hpp"
#include "strings/matching.hpp"
#include "strings/suffix_automaton.hpp"

namespace dbn {

namespace {

using SideMinFn = strings::OverlapMin (*)(strings::SymbolView,
                                          strings::SymbolView);

RoutingPath route_bidirectional(const Word& x, const Word& y,
                                WildcardMode mode, SideMinFn side_min,
                                const char* algo) {
  DBN_REQUIRE(x.radix() == y.radix() && x.length() == y.length(),
              "route endpoints must share radix and length");
  const int k = static_cast<int>(x.length());
  const Word xr = x.reversed();
  const Word yr = y.reversed();
  const strings::OverlapMin l_side = side_min(x.symbols(), y.symbols());
  const strings::OverlapMin r_side =
      r_side_from_reversed(k, side_min(xr.symbols(), yr.symbols()));
  const BidiPlan plan = make_bidi_plan(k, l_side, r_side);
  RoutingPath path = build_bidi_path(x, y, plan, mode);
  if (obs::tracing_enabled()) {
    trace_bidi_route(algo, x, y, plan, path);
  }
  return path;
}

}  // namespace

RoutingPath route_bidirectional_mp(const Word& x, const Word& y,
                                   WildcardMode mode) {
  return route_bidirectional(x, y, mode, &strings::min_l_cost, "bidi-mp");
}

RoutingPath route_bidirectional_suffix_tree(const Word& x, const Word& y,
                                            WildcardMode mode) {
  return route_bidirectional(x, y, mode, &min_l_cost_suffix_tree,
                             "bidi-suffix-tree");
}

RoutingPath route_bidirectional_suffix_automaton(const Word& x, const Word& y,
                                                 WildcardMode mode) {
  return route_bidirectional(x, y, mode, &strings::min_l_cost_suffix_automaton,
                             "bidi-suffix-automaton");
}

}  // namespace dbn

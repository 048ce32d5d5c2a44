#include "core/routers.hpp"

#include "common/contract.hpp"
#include "core/route_trace.hpp"
#include "obs/trace.hpp"
#include "strings/failure.hpp"

namespace dbn {

RoutingPath route_unidirectional(const Word& x, const Word& y) {
  DBN_REQUIRE(x.radix() == y.radix() && x.length() == y.length(),
              "route endpoints must share radix and length");
  if (x == y) {
    return RoutingPath{};
  }
  const int l = strings::suffix_prefix_overlap(x.symbols(), y.symbols());
  RoutingPath path;
  for (std::size_t i = static_cast<std::size_t>(l); i < y.length(); ++i) {
    path.push({ShiftType::Left, y.digit(i)});
  }
  if (obs::tracing_enabled()) {
    trace_uni_route(x, y, l, path);
  }
  return path;
}

}  // namespace dbn

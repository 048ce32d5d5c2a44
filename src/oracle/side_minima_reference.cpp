#include "oracle/side_minima_reference.hpp"

#include <algorithm>
#include <utility>

#include "common/contract.hpp"

namespace dbn::oracle {

strings::SideMinima side_minima_reference(strings::SymbolView x,
                                          strings::SymbolView y) {
  DBN_REQUIRE(!x.empty() && x.size() == y.size(),
              "side_minima_reference requires two non-empty words of equal "
              "length");
  const int k = static_cast<int>(x.size());
  strings::SideMinima out{strings::OverlapMin{k, 1, k, 0},
                          strings::OverlapMin{k, k, 1, 0}};
  for (int c = -(k - 1); c <= k - 1; ++c) {
    // The diagonal's longest run, lowest start first.
    int theta = 0;
    int start = 0;
    for (int p = std::max(0, -c), run = 0; p < std::min(k, k - c); ++p) {
      run = x[static_cast<std::size_t>(p)] ==
                    y[static_cast<std::size_t>(p + c)]
                ? run + 1
                : 0;
      if (run > theta) {
        theta = run;
        start = p - run + 1;
      }
    }
    // l names the block by its first x and last y digit, r by its last x
    // and first y digit.
    for (auto [side, best] :
         {std::pair{strings::OverlapMin{2 * k - c - 2 * theta, start + 1,
                                        start + c + theta, theta},
                    &out.l_side},
          std::pair{strings::OverlapMin{2 * k + c - 2 * theta, start + theta,
                                        start + c + 1, theta},
                    &out.r_side}}) {
      if (side.cost < k &&
          std::pair{side.cost, -side.theta} <
              std::pair{best->cost, -best->theta}) {
        *best = side;
      }
    }
  }
  return out;
}

}  // namespace dbn::oracle

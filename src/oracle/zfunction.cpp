#include "oracle/zfunction.hpp"

#include <algorithm>
#include <limits>

#include "common/contract.hpp"

namespace dbn::strings {

std::vector<int> z_function(SymbolView s) {
  const int n = static_cast<int>(s.size());
  std::vector<int> z(s.size(), 0);
  if (n == 0) {
    return z;
  }
  z[0] = n;
  int l = 0, r = 0;  // rightmost known match window [l, r)
  for (int i = 1; i < n; ++i) {
    if (i < r) {
      z[static_cast<std::size_t>(i)] =
          std::min(r - i, z[static_cast<std::size_t>(i - l)]);
    }
    int& zi = z[static_cast<std::size_t>(i)];
    while (i + zi < n && s[static_cast<std::size_t>(zi)] ==
                             s[static_cast<std::size_t>(i + zi)]) {
      ++zi;
    }
    if (i + zi > r) {
      l = i;
      r = i + zi;
    }
  }
  return z;
}

std::vector<int> matching_row_l_z(SymbolView x, SymbolView y, std::size_t i0) {
  DBN_REQUIRE(i0 < x.size(), "matching_row_l_z: row index out of range");
  const SymbolView pattern = x.subspan(i0);
  // Build pattern · sep · y with a separator above both alphabets.
  Symbol max_symbol = 0;
  for (const Symbol c : pattern) {
    max_symbol = std::max(max_symbol, c);
  }
  for (const Symbol c : y) {
    max_symbol = std::max(max_symbol, c);
  }
  DBN_REQUIRE(max_symbol < std::numeric_limits<Symbol>::max(),
              "symbols too large to insert a separator");
  std::vector<Symbol> joined;
  joined.reserve(pattern.size() + 1 + y.size());
  joined.insert(joined.end(), pattern.begin(), pattern.end());
  joined.push_back(max_symbol + 1);
  joined.insert(joined.end(), y.begin(), y.end());
  const std::vector<int> z = z_function(joined);

  // e[p] = how far the pattern matches starting at y position p (0-based);
  // the separator caps it below |pattern| automatically, but cap anyway.
  const std::size_t offset = pattern.size() + 1;
  const int cap = static_cast<int>(pattern.size());
  // l_{i,j} = j0 - best[j0] + 1 where best[j0] is the smallest start p
  // whose match interval [p, p + e[p]) covers j0. Fill best[] left to
  // right: processing starts in increasing order assigns each j0 its
  // smallest covering start.
  std::vector<int> row(y.size(), 0);
  std::size_t next_unfilled = 0;
  for (std::size_t p = 0; p < y.size(); ++p) {
    const int e = std::min(cap, z[offset + p]);
    if (e <= 0) {
      continue;
    }
    const std::size_t end = std::min(y.size(), p + static_cast<std::size_t>(e));
    for (std::size_t j = std::max(next_unfilled, p); j < end; ++j) {
      row[j] = static_cast<int>(j - p) + 1;
    }
    next_unfilled = std::max(next_unfilled, end);
  }
  return row;
}

OverlapMin min_l_cost_z(SymbolView x, SymbolView y) {
  DBN_REQUIRE(!x.empty() && x.size() == y.size(),
              "min_l_cost_z requires two non-empty words of equal length");
  const int k = static_cast<int>(x.size());
  OverlapMin best;
  best.cost = 2 * k;
  for (int i = 1; i <= k; ++i) {
    const std::vector<int> row =
        matching_row_l_z(x, y, static_cast<std::size_t>(i - 1));
    for (int j = 1; j <= k; ++j) {
      const int lij = row[static_cast<std::size_t>(j - 1)];
      const int cost = 2 * k - 1 + i - j - lij;
      if (cost < best.cost) {
        best = OverlapMin{cost, i, j, lij};
      }
    }
  }
  DBN_ASSERT(best.cost <= k, "l-side minimum must not exceed the diameter");
  return best;
}

}  // namespace dbn::strings

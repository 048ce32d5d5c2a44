#include "strings/matching.hpp"

#include <algorithm>

#include "common/contract.hpp"
#include "strings/failure.hpp"

namespace dbn::strings {

std::vector<int> matching_row_l(SymbolView x, SymbolView y, std::size_t i0) {
  DBN_REQUIRE(i0 < x.size(), "matching_row_l: row index out of range");
  // Algorithm 3: the pattern is the suffix of x starting at i0; lines 1-8
  // of the paper compute its failure function (c_{i,.}), lines 9-14 run the
  // resulting MP automaton over y, capping at the pattern length.
  const SymbolView pattern = x.subspan(i0);
  const std::vector<int> border = border_array(pattern);
  const int pattern_len = static_cast<int>(pattern.size());

  std::vector<int> row(y.size(), 0);
  int q = 0;
  for (std::size_t j = 0; j < y.size(); ++j) {
    if (q == pattern_len) {  // paper line 10: h = c_{i,k}
      q = border[static_cast<std::size_t>(q) - 1];
    }
    while (q > 0 && pattern[static_cast<std::size_t>(q)] != y[j]) {
      q = border[static_cast<std::size_t>(q) - 1];
    }
    if (pattern[static_cast<std::size_t>(q)] == y[j]) {
      ++q;
    }
    row[j] = q;
  }
  return row;
}

std::vector<std::vector<int>> matching_table_l(SymbolView x, SymbolView y) {
  std::vector<std::vector<int>> table;
  table.reserve(x.size());
  for (std::size_t i0 = 0; i0 < x.size(); ++i0) {
    table.push_back(matching_row_l(x, y, i0));
  }
  return table;
}

std::vector<std::vector<int>> matching_table_r(SymbolView x, SymbolView y) {
  const std::vector<Symbol> xr = reversed(x);
  const std::vector<Symbol> yr = reversed(y);
  const std::vector<std::vector<int>> lrev = matching_table_l(xr, yr);
  // r_{i,j}(x,y) = l_{|x|+1-i, |y|+1-j}(reverse(x), reverse(y)): reversing
  // both words turns "block of X ending at i" into "block of reverse(X)
  // starting at |x|+1-i" and flips the Y anchor the same way.
  std::vector<std::vector<int>> table(x.size(), std::vector<int>(y.size(), 0));
  for (std::size_t i0 = 0; i0 < x.size(); ++i0) {
    for (std::size_t j0 = 0; j0 < y.size(); ++j0) {
      table[i0][j0] = lrev[x.size() - 1 - i0][y.size() - 1 - j0];
    }
  }
  return table;
}

OverlapMin min_l_cost(SymbolView x, SymbolView y) {
  DBN_REQUIRE(!x.empty() && x.size() == y.size(),
              "min_l_cost requires two non-empty words of equal length");
  // Algorithm 3 once per row i: the pattern is x_i..x_k, its failure
  // function goes into `border`, and the MP automaton runs over y, capping
  // at the pattern length (matching_row_l, without the row vector).
  const std::size_t k = x.size();
  const int ki = static_cast<int>(k);
  std::vector<int> border;
  OverlapMin best;
  best.cost = 2 * ki;  // larger than any reachable value (min <= k, see below)
  for (int i = 1; i <= ki; ++i) {
    const std::size_t i0 = static_cast<std::size_t>(i - 1);
    const std::size_t m = k - i0;  // pattern length
    border.assign(m, 0);
    int q = 0;
    for (std::size_t idx = 1; idx < m; ++idx) {
      while (q > 0 && x[i0 + static_cast<std::size_t>(q)] != x[i0 + idx]) {
        q = border[static_cast<std::size_t>(q) - 1];
      }
      if (x[i0 + static_cast<std::size_t>(q)] == x[i0 + idx]) {
        ++q;
      }
      border[idx] = q;
    }
    q = 0;
    for (int j = 1; j <= ki; ++j) {
      const Symbol c = y[static_cast<std::size_t>(j - 1)];
      if (q == static_cast<int>(m)) {
        q = border[static_cast<std::size_t>(q) - 1];
      }
      while (q > 0 && x[i0 + static_cast<std::size_t>(q)] != c) {
        q = border[static_cast<std::size_t>(q) - 1];
      }
      if (x[i0 + static_cast<std::size_t>(q)] == c) {
        ++q;
      }
      const int cost = 2 * ki - 1 + i - j - q;
      if (cost < best.cost) {
        best = OverlapMin{cost, i, j, q};
      }
    }
    // Morris–Pratt failure bounds: a border is a proper prefix, and the
    // match length never exceeds what the pattern row offers.
    DBN_AUDIT(std::all_of(border.begin(), border.end(),
                          [n = 0](int b) mutable { return b <= n++; }),
              "border array entries must be proper-prefix lengths");
  }
  // The term (i=1, j=k) is bounded by 2k-1+1-k-0 = k, so the minimum never
  // exceeds k (the trivial all-left-shift path of Section 2).
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
        for (int n = 0; n < best.theta; ++n) {
          if (x[static_cast<std::size_t>(best.s - 1 + n)] !=
              y[static_cast<std::size_t>(best.t - best.theta + n)]) {
            return false;
          }
        }
        return true;
      }(),
      "l-side witness block does not match");
  return best;
}

}  // namespace dbn::strings

#include "oracle/naive.hpp"

#include <algorithm>

#include "common/contract.hpp"

namespace dbn::strings::naive {

namespace {

bool equal_ranges(SymbolView a, std::size_t ai, SymbolView b, std::size_t bi,
                  std::size_t len) {
  for (std::size_t m = 0; m < len; ++m) {
    if (a[ai + m] != b[bi + m]) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::vector<int> border_array(SymbolView pattern) {
  const std::size_t n = pattern.size();
  std::vector<int> border(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t len = i; len >= 1; --len) {
      // border of prefix pattern[0..i]: proper prefix == proper suffix
      if (equal_ranges(pattern, 0, pattern, i + 1 - len, len)) {
        border[i] = static_cast<int>(len);
        break;
      }
    }
  }
  return border;
}

int suffix_prefix_overlap(SymbolView x, SymbolView y) {
  const std::size_t max_len = std::min(x.size(), y.size());
  for (std::size_t len = max_len; len >= 1; --len) {
    if (equal_ranges(x, x.size() - len, y, 0, len)) {
      return static_cast<int>(len);
    }
  }
  return 0;
}

int matching_l(SymbolView x, SymbolView y, std::size_t i0, std::size_t j0) {
  DBN_REQUIRE(i0 < x.size() && j0 < y.size(), "matching_l: index out of range");
  // l_{i,j}: x[i0 .. i0+s-1] == y[j0-s+1 .. j0], s <= j0+1, s <= |x|-i0.
  const std::size_t max_len = std::min(j0 + 1, x.size() - i0);
  for (std::size_t s = max_len; s >= 1; --s) {
    if (equal_ranges(x, i0, y, j0 + 1 - s, s)) {
      return static_cast<int>(s);
    }
  }
  return 0;
}

int matching_r(SymbolView x, SymbolView y, std::size_t i0, std::size_t j0) {
  DBN_REQUIRE(i0 < x.size() && j0 < y.size(), "matching_r: index out of range");
  // r_{i,j}: x[i0-s+1 .. i0] == y[j0 .. j0+s-1], s <= i0+1, s <= |y|-j0.
  const std::size_t max_len = std::min(i0 + 1, y.size() - j0);
  for (std::size_t s = max_len; s >= 1; --s) {
    if (equal_ranges(x, i0 + 1 - s, y, j0, s)) {
      return static_cast<int>(s);
    }
  }
  return 0;
}

OverlapMin min_l_cost(SymbolView x, SymbolView y) {
  DBN_REQUIRE(!x.empty() && x.size() == y.size(),
              "min_l_cost requires two non-empty words of equal length");
  const int k = static_cast<int>(x.size());
  OverlapMin best;
  best.cost = 2 * k;
  for (int i = 1; i <= k; ++i) {
    for (int j = 1; j <= k; ++j) {
      const int lij = matching_l(x, y, static_cast<std::size_t>(i - 1),
                                 static_cast<std::size_t>(j - 1));
      const int cost = 2 * k - 1 + i - j - lij;
      if (cost < best.cost) {
        best = OverlapMin{cost, i, j, lij};
      }
    }
  }
  return best;
}

std::vector<std::size_t> find_all(SymbolView text, SymbolView pattern) {
  std::vector<std::size_t> hits;
  if (pattern.empty()) {
    for (std::size_t i = 0; i <= text.size(); ++i) {
      hits.push_back(i);
    }
    return hits;
  }
  if (pattern.size() > text.size()) {
    return hits;
  }
  for (std::size_t i = 0; i + pattern.size() <= text.size(); ++i) {
    if (equal_ranges(text, i, pattern, 0, pattern.size())) {
      hits.push_back(i);
    }
  }
  return hits;
}

int longest_common_substring(SymbolView a, SymbolView b) {
  int best = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t j = 0; j < b.size(); ++j) {
      std::size_t s = 0;
      while (i + s < a.size() && j + s < b.size() && a[i + s] == b[j + s]) {
        ++s;
      }
      best = std::max(best, static_cast<int>(s));
    }
  }
  return best;
}

}  // namespace dbn::strings::naive

// The paper's matching functions (definitions (8) and (9)) and Algorithm 3,
// the generalized Morris–Pratt scan that computes one row of them in O(k).
//
// Index conventions: the paper is 1-based; this module is 0-based and
// documents the mapping at each function. For 1-based i, j in [1, k]:
//
//   l_{i,j}(X,Y) = max{ s : s <= j, s <= k-i+1,
//                       x_i ... x_{i+s-1} = y_{j-s+1} ... y_j }
//   r_{i,j}(X,Y) = max{ s : s <= i, s <= k-j+1,
//                       x_{i-s+1} ... x_i = y_j ... y_{j+s-1} }
//
// i.e. l is "block of X starting at i == block of Y ending at j" and r is
// "block of X ending at i == block of Y starting at j", both read forward.
#pragma once

#include <cstddef>
#include <vector>

#include "strings/symbol.hpp"

namespace dbn::strings {

/// One row of the l matching function, computed by Algorithm 3.
///
/// Returns a vector `row` of size |y| with row[j0] = l_{i0+1, j0+1}(x, y):
/// the length of the longest prefix of x[i0..] that is a suffix of
/// y[0..j0]. O(|x| + |y|) time and space.
std::vector<int> matching_row_l(SymbolView x, SymbolView y, std::size_t i0);

/// Full l table: table[i0][j0] = l_{i0+1, j0+1}(x, y).
/// O(|x| * |y|) time via |x| runs of Algorithm 3.
std::vector<std::vector<int>> matching_table_l(SymbolView x, SymbolView y);

/// Full r table: table[i0][j0] = r_{i0+1, j0+1}(x, y), via the reduction
/// r_{i,j}(X,Y) = l_{k+1-i, k+1-j}(reverse(X), reverse(Y)) with k = |x| = |y|
/// generalized to unequal lengths.
std::vector<std::vector<int>> matching_table_r(SymbolView x, SymbolView y);

/// Result of minimizing the l-side cost term of Theorem 2.
struct OverlapMin {
  /// min over 1-based i, j of (2k - 1 + i - j - l_{i,j}); this is the
  /// candidate distance D1 of the paper's Algorithm 2.
  int cost = 0;
  /// 1-based minimizing pair (the paper's s1, t1) and theta = l_{s1,t1}.
  int s = 0;
  int t = 0;
  int theta = 0;

  friend bool operator==(const OverlapMin&, const OverlapMin&) = default;
};

/// The paper's Algorithm 2, lines 3/4 in the O(k)-space form of section 3.2:
/// scans rows of the l matching function and keeps the minimizer.
/// Requires |x| == |y| == k >= 1. O(k^2) time, O(k) space.
///
/// The r-side minimum (D2, with s2/t2/theta2) is obtained by calling this
/// on the reversed words; see core/path_builder.hpp for the mapping.
OverlapMin min_l_cost(SymbolView x, SymbolView y);

}  // namespace dbn::strings

// Linear-time computation of the Theorem 2 side-minimum via a generalized
// suffix tree — the engine of the paper's Algorithm 4, in the corrected
// formulation (see DESIGN.md §1.1 for why the printed Proposition 5 cannot
// be used as-is).
//
// Derivation. The l-side minimum rewrites over *occurrences*: for every
// common substring W of X and Y with an occurrence starting at p (1-based)
// in X and at q' in Y,
//     i - j - l_{i,j}  at  (i,j) = (p, q'+|W|-1)  contributes  p-q'-2|W|+1,
// and conversely every (i,j) with l_{i,j} = θ >= 1 yields such an occurrence
// with |W| = θ. θ = 0 terms contribute min_{i,j}(2k-1+i-j) = k (at i=1,j=k).
// Hence, over the generalized suffix tree of X·sep1·Y·sep2:
//     D1 = min( k,  min over internal nodes v with leaves from both words
//                   of  2k + minStartX(v) - maxStartY(v) - 2·depth(v) )
// (0-based starts). Node candidates are achievable because any two leaves
// below v share a prefix of length >= depth(v), and dominance along root
// paths (minStartX non-increasing, maxStartY non-decreasing, depth
// increasing) makes truncated matches redundant. One DFS computes all
// aggregates: O(k·log d) time, O(k) space.
#pragma once

#include "strings/matching.hpp"
#include "strings/symbol.hpp"

namespace dbn {

/// Same contract and result semantics as strings::min_l_cost (the O(k^2)
/// Algorithm 3 scan), computed in linear time with a generalized suffix
/// tree. Requires |x| == |y| == k >= 1 and symbols < 2^32 - 2 (two
/// sentinels are appended internally).
strings::OverlapMin min_l_cost_suffix_tree(strings::SymbolView x,
                                           strings::SymbolView y);

/// Length of the longest common substring of a and b (may have different
/// lengths), via the same generalized suffix tree. O(|a|+|b|).
int longest_common_substring_suffix_tree(strings::SymbolView a,
                                         strings::SymbolView b);

}  // namespace dbn

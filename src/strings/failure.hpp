// Morris–Pratt failure functions and the overlap primitive behind the
// paper's Algorithm 1 (Property 1 reduces the directed-graph distance to
// the longest suffix of X that is a prefix of Y).
#pragma once

#include <cstddef>
#include <vector>

#include "strings/symbol.hpp"

namespace dbn::strings {

/// Morris–Pratt failure function (border array).
///
/// border[i] is the length of the longest proper border of the prefix
/// p[0..i] (both a proper prefix and a proper suffix of it). border has the
/// same length as `pattern`. O(n) time and space.
std::vector<int> border_array(SymbolView pattern);

/// Length of the longest suffix of `x` that is also a prefix of `y`
/// (the quantity `l` of the paper's equation (2), there with x = y = k).
///
/// Runs the MP automaton of `y` over `x` and reports the match length at
/// the end of `x`, never letting it reach |y| by taking the border first
/// (a full match of y inside x is not a suffix-prefix overlap unless it
/// ends exactly at the end of x, which the final value captures).
/// O(|x| + |y|) time, O(|y|) space.
int suffix_prefix_overlap(SymbolView x, SymbolView y);

}  // namespace dbn::strings

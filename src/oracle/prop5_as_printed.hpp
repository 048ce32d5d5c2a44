// The paper's Proposition 5 / Algorithm 4 lines 3.0-3.3, implemented
// *exactly as printed* — kept as a falsification artifact.
//
// As printed, the compact prefix tree is built for S = X ⊥ reverse(Y) ⊤
// and the l-side candidate is D1 = k - 2 + p(w) + q(w) - D(w) over interior
// vertices with p(v) + q(v) <= 2k. The longest common prefix of the suffix
// x_i x_{i+1}... and the suffix y_j y_{j-1}... is a *reversed* block of Y,
// not the forward block that definition (8) and Theorem 2 require, so this
// quantity differs from min_{i,j}(2k-1+i-j-l_{i,j}) on concrete pairs
// (X = Y = (0,1) is the smallest counterexample). The test suite and
// EXPERIMENTS.md quantify how often it disagrees; the corrected
// formulation lives in oracle/common_substring.hpp.
#pragma once

#include "strings/matching.hpp"
#include "strings/symbol.hpp"

namespace dbn {

/// Lines 3.0-3.3 verbatim: returns the candidate D1 with the paper's
/// s1 = p(w), t1 = k+1-q(w), and theta = D(w). Same input contract as the
/// correct kernels (|x| == |y| == k >= 1).
strings::OverlapMin l_side_min_prop5_as_printed(strings::SymbolView x,
                                                strings::SymbolView y);

}  // namespace dbn

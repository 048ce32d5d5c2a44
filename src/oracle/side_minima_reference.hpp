// The Theorem 2 witness rule (strings::SideMinima) computed as plainly as
// it can be: every diagonal's longest run, scored on both sides, O(k^2).
// The reference both route-engine kernels are tested against.
#pragma once

#include "strings/packed.hpp"
#include "strings/symbol.hpp"

namespace dbn::oracle {

/// Both side minima: for each diagonal c, its longest run
/// x[p..p+θ-1] == y[p+c..p+c+θ-1] at its lowest start p; each side keeps
/// the minimum of (cost, -θ) over the runs below cost k, else the θ = 0
/// baseline. Requires two non-empty words of equal length.
strings::SideMinima side_minima_reference(strings::SymbolView x,
                                          strings::SymbolView y);

}  // namespace dbn::oracle

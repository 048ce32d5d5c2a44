// The paper's bi-directional routers, kept as differential oracles for
// BidirectionalRouteEngine (core/route_engine.hpp), which serves every
// production route.
//
//  - route_bidirectional_mp: Algorithm 2 with Algorithm 3 rows (the O(k)-
//    space variant of Section 3.2), O(k^2) time.
//  - route_bidirectional_suffix_tree: Algorithm 4 (corrected, DESIGN.md
//    §1.1), O(k) time/space.
//  - route_bidirectional_suffix_automaton: Algorithm 4 on the suffix
//    automaton, O(k) time/space.
//
// All routers return a path whose length equals the exact distance D(X,Y)
// of Section 2 and which, applied to X (under any wildcard resolution),
// reaches Y.
#pragma once

#include "core/path.hpp"
#include "core/path_builder.hpp"
#include "debruijn/word.hpp"

namespace dbn {

/// Algorithm 2 (+ Algorithm 3): shortest path in the bi-directional
/// network. O(k^2) time, O(k) space.
RoutingPath route_bidirectional_mp(const Word& x, const Word& y,
                                   WildcardMode mode = WildcardMode::Concrete);

/// Algorithm 4: shortest path in the bi-directional network via suffix
/// trees. O(k) time and space. Produces a path of identical length to
/// route_bidirectional_mp (the minimizers may differ when ties exist).
RoutingPath route_bidirectional_suffix_tree(
    const Word& x, const Word& y, WildcardMode mode = WildcardMode::Concrete);

/// Algorithm 4 with the suffix automaton of X in place of the generalized
/// suffix tree — a third, independently derived O(k) engine for the same
/// Theorem 2 minimum (see strings/suffix_automaton.hpp). Same guarantees.
RoutingPath route_bidirectional_suffix_automaton(
    const Word& x, const Word& y, WildcardMode mode = WildcardMode::Concrete);

}  // namespace dbn
